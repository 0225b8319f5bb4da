"""The window families' run table against the dense matrix it stands for.

``affine_uniform`` and ``cubic_uniform`` operators act through
``kernels.RunTable`` by prefix sums and build their matrix only when it is
read.  On drawn window specs (a < 0, a = 0, a > 0 and the cubic map; half
widths from 1e-3 to 10 with a few narrower; 2 to 600 nodes; window edges on
the nodes and between them; centers that overflow), the dense build of the
rows is the reference: the matrix the table fills on first read is its
bytes, the actions meet the prefix-sum bound of ``test_actions.py``, the
escape set and the reachability graph are its decisions exactly, and a spec
it refuses the run table refuses with the same error.  One ``analyze``
searches the window runs once, and the bundled systems at their default
grids and at 5 to 80 nodes read no run table's or Toeplitz row's matrix and
solve for no dense eigenvalues.  At 100 001 nodes, where the matrix would
take 80 GB, the build and one action each way stay O(N) in memory.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import kernels
from qsdlab.cli import main
from qsdlab.errors import QsdlabError
from qsdlab.kernels import (
    ESCAPE_TOL_DEFAULT,
    KernelSpec,
    analytic_row_mass,
    build_operator,
    check_h2_reachability,
)
from dense_graph import dense_reachability, expand, operator_graph
from test_actions import prefix_sum_bounds
from test_build_bytes import ref_density


def dense_build(spec):
    """``(matrix, escape)`` as the dense build made them: the checked density, then the row sums.

    The density is the elementwise ``ref_density`` of ``test_build_bytes.py``.
    """
    grid = kernels._quadrature_grid(spec)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        density = ref_density(spec, grid.nodes, grid.nodes)
        kernels._check_density(density)
        matrix = density * grid.weights
    return matrix, kernels._escape_nodes(spec, matrix.sum(axis=1))


@st.composite
def window_specs(draw):
    n = draw(st.integers(2, 600))
    lower = draw(st.sampled_from([-1.0, -2.0, 0.0, -0.3]))
    width = draw(st.sampled_from([1.0, 2.0, 4.0, 0.7]))
    h = width / (n - 1)
    aligned = draw(st.booleans())
    if aligned:
        # centers on nodes and a half width of whole steps: window edges on nodes
        w = draw(st.integers(1, 2 * n)) * h
    else:
        w = draw(st.one_of(st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
                           st.sampled_from([1e-9, 1e-12])))
    family = draw(st.sampled_from(["affine_uniform", "affine_uniform", "cubic_uniform"]))
    if family == "cubic_uniform":
        if draw(st.integers(0, 4)) == 0:     # x**3 overflows beyond |x| = 5.6e102
            lower, width = -1e200, 2e200
        params = {"noise_halfwidth": w}
    else:
        sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        if aligned:
            a = sign * draw(st.sampled_from([1.0, 2.0]))
            b = draw(st.integers(-n, n)) * h
        else:
            a = sign * draw(st.floats(0.1, 4.0))
            b = draw(st.floats(-2.0, 2.0))
        if sign and draw(st.integers(0, 4)) == 0:    # a x + b overflows
            a = sign * 1e308
        params = {"a": a, "b": b, "noise_halfwidth": w}
    return KernelSpec(family=family, domain=(lower, lower + width), grid_size=n,
                      params=params)


def _error(fn, *args):
    try:
        fn(*args)
    except QsdlabError as exc:
        return type(exc), str(exc)
    return None


def _assert_actions_near(op, matrix):
    rng = np.random.default_rng(op.size)
    for v in (np.ones(op.size), rng.standard_normal(op.size), rng.random(op.size)):
        bound_right, bound_left = prefix_sum_bounds(op.form, v)
        right, left = op.right(v), op.left(v)
        assert np.abs(right - matrix @ v).max() <= bound_right
        assert np.abs(left - v @ matrix).max() <= bound_left
        out = np.empty(op.size)
        assert op.right(v, out=out) is out and out.tobytes() == right.tobytes()
        assert op.left(v, out=out) is out and out.tobytes() == left.tobytes()
        z = v + 1j * rng.standard_normal(op.size)
        assert op.right(z).tobytes() == (op.right(z.real) + 1j * op.right(z.imag)).tobytes()
        assert op.left(z).tobytes() == (op.left(z.real) + 1j * op.left(z.imag)).tobytes()


def _report(rep):
    return (rep.strongly_connected, rep.n_components, rep.graph_period,
            rep.node_class.tobytes())


@settings(max_examples=200, deadline=None)
@given(spec=window_specs())
# two nodes and a window as narrow as JUMP_ATOL: no inside run and no edge cell
@example(spec=KernelSpec(family="affine_uniform", domain=(-1.0, 1.0), grid_size=2,
                         params={"a": 1.0, "b": 0.5, "noise_halfwidth": 1e-9}))
# the density 1/(2w) overflows: refused as the dense build refuses it
@example(spec=KernelSpec(family="affine_uniform", domain=(-1.0, 1.0), grid_size=11,
                         params={"a": 2.0, "b": 0.0, "noise_halfwidth": 1e-310}))
# the same window off every node: an all-zero matrix, not a refusal
@example(spec=KernelSpec(family="affine_uniform", domain=(-1.0, 1.0), grid_size=11,
                         params={"a": 2.0, "b": 0.01, "noise_halfwidth": 1e-310}))
# each row's mass is finite (1e307) but the sum of all c_j is not: S is summed scaled
@example(spec=KernelSpec(family="affine_uniform", domain=(-1e301, 1e301), grid_size=100,
                         params={"a": 1.0, "b": 0.0, "noise_halfwidth": 1e-8}))
# the density times the weights overflows
@example(spec=KernelSpec(family="affine_uniform", domain=(0.0, 1e306), grid_size=3,
                         params={"a": 1.0, "b": 0.0, "noise_halfwidth": 1e-8}))
def test_run_table_is_the_dense_operator(spec):
    refusal = _error(dense_build, spec)
    if refusal is not None:
        assert _error(build_operator, spec) == refusal
        assert _error(operator_graph, spec) == refusal
        return
    matrix, escape = dense_build(spec)
    op = build_operator(spec)
    assert isinstance(op.form, kernels.RunTable) and op.escape == escape
    edges = matrix > ESCAPE_TOL_DEFAULT
    assert np.array_equal(expand(op.form.graph()), edges)
    escape_graph, runs_graph = operator_graph(spec)
    assert escape_graph == escape and np.array_equal(expand(runs_graph), edges)
    want = _error(dense_reachability, escape, edges) or dense_reachability(escape, edges)
    assert (_error(check_h2_reachability, op) or _report(check_h2_reachability(op))) == want
    _assert_actions_near(op, matrix)
    assert op.matrix.tobytes() == matrix.tobytes()


def test_row_runs_at_100001_nodes_take_linear_memory():
    # the dense matrix would be 80 GB
    n = 100_001
    spec = q.get_spec("example21", grid_size=n)
    tracemalloc.start()
    try:
        op = build_operator(spec)
        masses = op.right(np.ones(n))
        op.left(np.full(n, 1.0 / n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * n, peak / (8 * n)
    # the prefix sums drift with N: 2.3e-12 here
    assert np.abs(masses - analytic_row_mass(spec, op.grid.nodes)).max() <= 1e-11
    assert op.escape == {0, n - 1}
    assert "matrix" not in vars(op)


def test_arnoldi_route_readers_leave_the_matrix_unbuilt(monkeypatch):
    op = build_operator(q.get_spec("example21", grid_size=1601))

    def no_matrix(*args):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(kernels.RunTable, "matrix", no_matrix)
    sd = q.peripheral_spectrum(op)
    nu0 = np.zeros(op.size)
    nu0[op.size // 4] = 1.0
    assert q.fit_yaglom_rate(op, nu0, sd=sd).passed
    assert q.mass_decay_check(op).n0 == 2
    assert math.isclose(sd.lam, 0.5, abs_tol=1e-12)
    assert "matrix" not in vars(op)


def test_analyze_searches_the_window_runs_once(monkeypatch, tmp_path):
    # at 401 nodes the Arnoldi route acts through the table and fills no matrix
    searches, fills = [], []
    search, fill = kernels._window_runs, kernels.RunTable.matrix
    monkeypatch.setattr(kernels, "_window_runs", lambda *a: searches.append(a) or search(*a))
    monkeypatch.setattr(kernels.RunTable, "matrix", lambda self: fills.append(self) or fill(self))
    assert q.get_spec("example21").grid_size == 401
    assert main(["analyze", "--spec", "example21", "--out", str(tmp_path), "--canonical"]) == 0
    assert len(searches) == 1 and len(fills) == 0


def test_default_grids_fill_no_matrix(monkeypatch, tmp_path):
    # analyze on the three continuous systems at their default grids and at
    # small ones, and the default simulate, act through the run table or the
    # Toeplitz row alone, with no dense eigenvalue solve at any size
    def refuse(name):
        def read(*args):
            raise AssertionError(f"{name} called")
        return read

    monkeypatch.setattr(kernels.RunTable, "matrix", refuse("RunTable.matrix"))
    monkeypatch.setattr(kernels.ToeplitzRow, "matrix", refuse("ToeplitzRow.matrix"))
    monkeypatch.setattr(np.linalg, "eigvals", refuse("np.linalg.eigvals"))
    for name in ("example21", "example22cubic", "example23gauss"):
        for n in (q.get_spec(name).grid_size, 5, 11, 41, 80):
            assert main(["analyze", "--spec", name, "--grid-size", str(n),
                         "--out", str(tmp_path / f"{name}_{n}"), "--canonical"]) == 0
    assert main(["simulate", "--spec", "example21", "--out", str(tmp_path / "mc")]) == 0
