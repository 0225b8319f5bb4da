import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import qsdlab as q
from qsdlab.errors import (
    AllNodesEscape,
    InvalidDomain,
    NegativeDensity,
    NotApplicable,
    RowSumExceedsOne,
)
from qsdlab.kernels import (
    FAMILIES,
    KernelSpec,
    ModulusReport,
    StateGrid,
    analytic_row_mass,
    build_operator,
    check_h1_modulus,
)
from qsdlab.oracle import FiniteChain
from qsdlab.simulate import _mover
from dense_graph import expand, operator_graph


def spec21(n=101):
    return q.get_spec("example21", grid_size=n)


def spec22(n=101):
    return q.get_spec("example22cubic", grid_size=n)


# -- the family table --------------------------------------------------------

# one small spec per family: a family added to the table needs one here
FAMILY_SPECS = {
    "affine_uniform": {"domain": (-1.0, 1.0), "grid_size": 11,
                       "params": {"a": 0.5, "b": 0.0, "noise_halfwidth": 0.5}},
    "cubic_uniform": {"domain": (-1.0, 1.0), "grid_size": 11, "params": {"noise_halfwidth": 0.5}},
    "gaussian_shift": {"domain": (-1.0, 1.0), "grid_size": 11, "params": {"sigma": 0.5}},
    "tabulated": {"domain": (0.0, 1.0), "grid_size": 3, "params": {"values": [[0.2] * 3] * 3}},
    "explicit_matrix": {"params": {"matrix": [[0.5, 0.25], [0.25, 0.5]]}},
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_the_family_record_is_what_the_family_does(name):
    record, spec = FAMILIES[name], KernelSpec(family=name, **FAMILY_SPECS[name])
    assert type(build_operator(spec).form) is record.form
    if isinstance(record.rows, str):
        with pytest.raises(NotApplicable) as exc:
            check_h1_modulus(spec)
        assert str(exc.value) == record.rows
    else:
        assert isinstance(check_h1_modulus(spec), ModulusReport)
    if spec.is_explicit or record.draw is not None:
        _mover(spec)
    else:
        with pytest.raises(NotApplicable) as exc:
            _mover(spec)
        assert str(exc.value) == f"cannot simulate family {name!r}"
    assert (analytic_row_mass(spec, [0.0]) is None) == (record.row_mass is None)
    # an unknown family's message names every family, in this order
    with pytest.raises(InvalidDomain) as exc:
        KernelSpec(family=name + "_", **FAMILY_SPECS[name])
    assert str(exc.value) == (
        "family must be one of ('affine_uniform', 'cubic_uniform', 'gaussian_shift', "
        f"'tabulated', 'explicit_matrix'), got '{name}_'")


# -- grids and construction --------------------------------------------------

def test_trapezoid_weights_integrate_reference_measure():
    op = build_operator(spec21(101))
    assert op.grid.weights.sum() == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.diff(op.grid.nodes) > 0)
    assert op.grid.nodes[0] == -1.0 and op.grid.nodes[-1] == 1.0


def test_invalid_domain_rejected():
    with pytest.raises(InvalidDomain, match="lower < upper"):
        KernelSpec(domain=(1.0, -1.0), family="affine_uniform",
                   params={"a": 2.0, "b": 0.0, "noise_halfwidth": 1.0}, grid_size=5)
    with pytest.raises(InvalidDomain, match="grid_size"):
        KernelSpec(domain=(0.0, 1.0), family="gaussian_shift", params={"sigma": 1.0},
                   grid_size=1)


@pytest.mark.parametrize("family,params", [
    ("gaussian_shift", {"sigma": -1.0}),
    ("gaussian_shift", {"sigma": np.float64("nan")}),
    ("cubic_uniform", {"noise_halfwidth": 0}),
    ("affine_uniform", {"a": 2.0, "b": False, "noise_halfwidth": 1.0}),
    ("tabulated", {"values": np.ones((3, 3))}),
])
def test_library_spec_with_a_bad_value_is_refused(family, params):
    # a spec built in the library, not read from a file, is checked too, so
    # simulate_batch never sees it
    with pytest.raises(InvalidDomain):
        KernelSpec(domain=(0.0, 1.0), family=family, params=params, grid_size=5)


def test_negative_density_rejected():
    # refused where the spec is made, as an explicit chain's negative entry is
    with pytest.raises(NegativeDensity, match="values has negative entries"):
        KernelSpec(domain=(0.0, 1.0), family="tabulated",
                   params={"values": [[1.0, -0.5], [0.0, 1.0]]}, grid_size=2)


def test_explicit_matrix_passthrough():
    spec = KernelSpec(family="explicit_matrix",
                      params={"matrix": [[0.5, 0.25], [0.25, 0.5]]})
    op = build_operator(spec)
    assert np.array_equal(op.matrix, [[0.5, 0.25], [0.25, 0.5]])
    assert op.escape == frozenset()
    assert np.array_equal(op.grid.nodes, [0.0, 1.0])
    assert np.array_equal(op.grid.weights, [1.0, 1.0])


@pytest.mark.parametrize("given", [{"domain": (-1.0, 1.0)}, {"grid_size": 11}, {}])
def test_density_family_needs_a_domain_and_a_grid_size(given):
    with pytest.raises(InvalidDomain, match="needs a domain and a grid_size"):
        KernelSpec(family="gaussian_shift", params={"sigma": 1.0}, **given)


@pytest.mark.parametrize("given,reason", [
    ({"grid_size": 2.7}, "grid_size must be an integer"),
    ({"grid_size": "5"}, "grid_size must be an integer"),
    ({"domain": ("a", 1)}, "domain bound must be a number"),
    ({"domain": (0, 1, 2)}, "domain must be [lower, upper]"),
    ({"domain": 1.0}, "domain must be [lower, upper]"),
    ({"params": "sigma"}, "params must be an object"),
    ({"family": "gaussian"}, "family must be one of"),
])
def test_kernel_spec_refuses_a_mistyped_field(given, reason):
    fields = {"domain": (-1.0, 1.0), "family": "gaussian_shift", "params": {"sigma": 1.0},
              "grid_size": 11, **given}
    with pytest.raises(InvalidDomain, match=re.escape(reason)):
        KernelSpec(**fields)


@pytest.mark.parametrize("domain", [("-1", 1.0), (-1.0, "1"), (-1, True), (False, 1),
                                    ("-1", True), (-1.0, b"1")])
def test_kernel_spec_refuses_a_string_or_bool_domain_bound(domain):
    # float() reads each of these as a number; a bound is checked by type, as a family parameter is
    with pytest.raises(InvalidDomain, match="domain bound must be a number"):
        KernelSpec(domain=domain, family="gaussian_shift", params={"sigma": 1.0}, grid_size=5)


def test_kernel_spec_keeps_a_float_domain_and_an_int_grid_size():
    spec = KernelSpec(domain=[-1, np.float32(1)], family="gaussian_shift",
                      params={"sigma": 1.0}, grid_size=np.int64(11))
    assert spec.domain == (-1.0, 1.0) and type(spec.domain) is tuple
    assert all(type(b) is float for b in spec.domain) and type(spec.grid_size) is int
    assert spec == KernelSpec(domain=(-1.0, 1.0), family="gaussian_shift",
                              params={"sigma": 1.0}, grid_size=11)


def test_kernel_spec_fields_are_keyword_only():
    with pytest.raises(TypeError):
        KernelSpec((-1.0, 1.0), "gaussian_shift", {"sigma": 1.0}, 11)


def test_explicit_chain_takes_its_domain_and_grid_size_from_the_matrix():
    q3 = np.array([[0.5, 0.25, 0.0], [0.25, 0.5, 0.0], [0.0, 0.3, 0.3]])
    spec = KernelSpec(family="explicit_matrix", params={"matrix": q3})
    assert spec.domain == (0.0, 2.0) and spec.grid_size == 3
    assert np.array_equal(spec.matrix, q3) and spec.matrix.dtype == float
    assert not spec.matrix.flags.writeable and not np.shares_memory(spec.matrix, q3)
    # the derived values may be passed as well, as the benchmark's chains do
    named = KernelSpec(domain=(0.0, 2.0), family="explicit_matrix", params={"matrix": q3},
                       grid_size=3)
    assert named == spec and named.domain == spec.domain and named.grid_size == 3
    one = KernelSpec(family="explicit_matrix", params={"matrix": [[0.5]]})
    assert one.domain == (0.0, 1.0) and one.grid_size == 1
    assert q.get_spec("sym2", grid_size=2) == q.get_spec("sym2")


@pytest.mark.parametrize("given", [
    {"domain": (5, 9), "grid_size": 77}, {"domain": (5, 9)}, {"grid_size": 77},
    {"domain": (0.0, 2.0)}, {"grid_size": 3}, {"domain": (0.0, 1.0), "grid_size": 3},
])
def test_explicit_chain_refuses_any_other_domain_or_grid_size(given):
    with pytest.raises(InvalidDomain, match="a 2-state chain has domain"):
        KernelSpec(family="explicit_matrix", params={"matrix": [[0.5, 0.25], [0.25, 0.5]]},
                   **given)


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), [], [[]], [[0.5, 0.25]]])
def test_explicit_matrix_must_be_square_and_non_empty(matrix):
    with pytest.raises(InvalidDomain, match="square and non-empty"):
        KernelSpec(family="explicit_matrix", params={"matrix": matrix})


def test_bundled_chain_refuses_a_grid_size():
    with pytest.raises(InvalidDomain):
        q.get_spec("sym2", grid_size=5)


def test_constructors_copy_the_callers_arrays():
    a = np.array([[0.5, 0.25], [0.25, 0.5]])
    nodes, weights = np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.5, 0.25])
    kept = [x.copy() for x in (a, nodes, weights)]
    op = build_operator(KernelSpec(family="explicit_matrix", params={"matrix": a}))
    chain = FiniteChain(Q=a)
    grid = StateGrid(0.0, 1.0, nodes, weights)
    for x, before in zip((a, nodes, weights), kept):
        assert x.flags.writeable and np.array_equal(x, before)
    for copy, x in ((op.matrix, a), (chain.Q, a), (grid.nodes, nodes), (grid.weights, weights)):
        assert not copy.flags.writeable and not np.shares_memory(copy, x)


@pytest.mark.parametrize("nodes, weights, reason", [
    ([[0.0, 1.0]], [[0.5, 0.5]], "1-D and of equal length"),
    ([0.0, 1.0], [0.5, 0.25, 0.25], "1-D and of equal length"),
    ([0.0, 0.5, 0.5], [0.25, 0.5, 0.25], "strictly increasing"),
    ([0.0, 0.5, 1.5], [0.25, 0.5, 0.25], r"inside \[lower, upper\]"),
    ([-0.5, 0.5, 1.0], [0.25, 0.5, 0.25], r"inside \[lower, upper\]"),
    ([0.0, 0.5, 1.0], [0.5, -0.25, 0.5], "nonnegative with positive total"),
    ([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], "nonnegative with positive total"),
])
def test_state_grid_refusals(nodes, weights, reason):
    with pytest.raises(InvalidDomain, match=reason):
        StateGrid(0.0, 1.0, np.array(nodes), np.array(weights))


def test_tabulated_table_is_checked_once_and_kept():
    # the checked table is the spec's read-only copy: a table changed after
    # the check, the caller's array or the params, reaches no reader
    values = np.array([[0.25, 0.5], [0.75, 0.0]])
    spec = KernelSpec(domain=(0.0, 1.0), family="tabulated", params={"values": values},
                      grid_size=2)
    assert not spec.matrix.flags.writeable and not np.shares_memory(spec.matrix, values)
    matrix, (escape, runs) = build_operator(spec).matrix, operator_graph(spec)
    edges = expand(runs)
    for change in (lambda: values.fill(math.nan),
                   lambda: spec.params.update(values=[[-1.0, math.nan], [5.0, 5.0]])):
        change()
        assert build_operator(spec).matrix.tobytes() == matrix.tobytes()
        again = operator_graph(spec)
        assert again[0] == escape and np.array_equal(expand(again[1]), edges)
    assert np.array_equal(spec.matrix, [[0.25, 0.5], [0.75, 0.0]])


def test_explicit_row_sum_guard():
    # refused where the spec is made, so build_operator never sees it
    with pytest.raises(RowSumExceedsOne):
        KernelSpec(family="explicit_matrix", params={"matrix": [[0.9, 0.2], [0.0, 0.5]]})


def test_affine_entries_are_half_window_indicators():
    op = build_operator(spec21(41))
    x = op.grid.nodes
    w = op.grid.weights
    i, j = 20, 25  # x=0, y=0.25: inside the window, density 1/2
    assert op.matrix[i, j] == pytest.approx(0.5 * w[j])
    # outside the window
    assert op.matrix[40, 0] == 0.0


def test_cubic_entries():
    op = build_operator(spec22(41))
    x = op.grid.nodes
    w = op.grid.weights
    i = 20  # x = 0, window [-6, 6] covers everything, density 1/12
    assert np.allclose(op.matrix[i], w / 12.0)


def test_row_masses_exact_for_affine():
    op = build_operator(spec21(101))
    exact = 1.0 - np.abs(op.grid.nodes)
    assert np.abs(op.matrix.sum(axis=1) - exact).max() < 1e-14


def test_row_masses_first_order_for_cubic():
    errs = {}
    for n in (51, 101, 201):
        op = build_operator(spec22(n))
        exact = analytic_row_mass(op.spec, op.grid.nodes)
        errs[n] = np.abs(op.matrix.sum(axis=1) - exact).max()
        assert errs[n] <= op.grid.step / 12 + 1e-15
    # first-order refinement: error roughly halves per doubling
    assert errs[101] <= 0.75 * errs[51]
    assert errs[201] <= 0.75 * errs[101]


def test_row_masses_gaussian_second_order():
    errs = {}
    for n in (51, 101, 201):
        op = build_operator(q.get_spec("example23gauss", grid_size=n))
        exact = analytic_row_mass(op.spec, op.grid.nodes)
        errs[n] = np.abs(op.matrix.sum(axis=1) - exact).max()
    assert errs[201] <= 0.3 * errs[101] <= 0.09 * errs[51]


# -- escape set ---------------------------------------------------------------

def test_every_built_operator_is_entrywise_nonnegative(ops):
    for name, op in ops.items():
        assert op.matrix.min() >= 0, name


def test_escape_nodes_are_exactly_the_endpoints_affine():
    for n in (51, 101, 401):
        op = build_operator(spec21(n))
        assert sorted(op.escape) == [0, n - 1]


def test_escape_cubic_endpoints():
    op = build_operator(spec22(101))
    assert sorted(op.escape) == [0, 100]


def test_escape_empty_for_gaussian():
    op = build_operator(q.get_spec("example23gauss", grid_size=51))
    assert op.escape == frozenset()


def test_escape_zero_row_explicit():
    spec = KernelSpec(family="explicit_matrix",
                      params={"matrix": [[0.0, 0.0], [0.3, 0.3]]})
    assert sorted(build_operator(spec).escape) == [0]


def test_all_nodes_escape_degenerate():
    spec = KernelSpec(family="explicit_matrix",
                      params={"matrix": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(AllNodesEscape):
        q.check_h2_reachability(build_operator(spec))


# -- hypothesis (H1) / (H2) audits -------------------------------------------

def test_h1_affine_obeys_shift_bound():
    spec = spec21(201)
    rep = q.check_h1_modulus(spec)
    h = rep.grid_step
    for d, s in zip(rep.deltas, rep.sup_distances):
        assert s <= 2 * d + 2 * h
    assert rep.verdict == "PASS"


def test_h1_gaussian_mean_value_bound():
    spec = q.get_spec("example23gauss", grid_size=201)
    rep = q.check_h1_modulus(spec)
    lo, hi = spec.domain
    for d, s in zip(rep.deltas, rep.sup_distances):
        assert s <= math.sqrt(2 / math.pi) * d * (hi - lo) + 1e-9
    assert rep.verdict == "PASS"


def test_h1_refuses_explicit_matrix():
    with pytest.raises(NotApplicable):
        q.check_h1_modulus(q.get_spec("sym2"))


def test_h2_affine_connected_aperiodic(ops):
    rep = q.check_h2_reachability(ops["example21_201"])
    assert rep.strongly_connected and rep.n_components == 1
    assert rep.graph_period == 1
    assert rep.verdict == "PASS"


def test_h2_two_cycle_period():
    spec = KernelSpec(family="explicit_matrix",
                      params={"matrix": [[0.0, 1.0], [1.0, 0.0]]})
    rep = q.check_h2_reachability(build_operator(spec))
    assert rep.n_components == 1 and rep.graph_period == 2


def test_h2_disconnected_fails():
    spec = KernelSpec(family="explicit_matrix",
                      params={"matrix": [[0.5, 0.0], [0.0, 0.5]]})
    rep = q.check_h2_reachability(build_operator(spec))
    assert rep.n_components == 2
    assert rep.verdict == "FAIL"


@st.composite
def digraphs(draw):
    """Random 1-30 node digraphs, some forced into k-partite cycles."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 4))
    p = draw(st.floats(0.05, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.permutation(np.arange(n) % k)
    allowed = labels[None, :] == (labels[:, None] + 1) % k
    return (rng.random((n, n)) < p) & allowed


@settings(max_examples=300, deadline=None)
@given(digraphs())
@example(np.array([[True]]))
@example(np.array([[False]]))
@example(np.array([[False, True], [False, False]]))
def test_h2_matches_csgraph_and_trace_period(adj):
    n = adj.shape[0]
    op = build_operator(KernelSpec(family="explicit_matrix",
                                   params={"matrix": (adj * (0.9 / n)).tolist()}))
    keep = np.flatnonzero(adj.any(axis=1))
    if keep.size == 0:
        with pytest.raises(AllNodesEscape):
            q.check_h2_reachability(op)
        return
    sub = adj[np.ix_(keep, keep)]
    n_comp, _ = connected_components(csr_matrix(sub), directed=True, connection="strong")
    connected = n_comp == 1 and (keep.size > 1 or bool(sub[0, 0]))
    rep = q.check_h2_reachability(op)
    assert rep.n_components == n_comp
    assert rep.strongly_connected == connected
    if not connected:
        assert rep.graph_period == 0
        return
    # period: gcd of the lengths k <= n of closed walks, trace(A^k) > 0
    walk, lengths = sub.copy(), []
    for length in range(1, keep.size + 1):
        if np.trace(walk) > 0:
            lengths.append(length)
        walk = (walk.astype(int) @ sub.astype(int)) > 0
    assert rep.graph_period == np.gcd.reduce(lengths)


@settings(max_examples=300, deadline=None)
@given(digraphs())
@example(np.array([[True]]))
@example(np.array([[False, True], [True, False]]))
def test_h2_node_class_steps_by_one_along_every_edge(adj):
    n = adj.shape[0]
    op = build_operator(KernelSpec(family="explicit_matrix",
                                   params={"matrix": (adj * (0.9 / n)).tolist()}))
    keep = np.flatnonzero(adj.any(axis=1))
    if keep.size == 0:
        return
    rep = q.check_h2_reachability(op)
    cls = rep.node_class
    assert cls.shape == (n,) and (cls[sorted(op.escape)] == -1).all()
    if not rep.strongly_connected:
        assert (cls == -1).all()
        return
    p = rep.graph_period
    assert cls[keep[0]] == 0 and set(cls[keep].tolist()) == set(range(p))
    u, v = np.nonzero(adj[np.ix_(keep, keep)])
    assert (cls[keep[v]] == (cls[keep[u]] + 1) % p).all()
