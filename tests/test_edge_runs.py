"""The reachability audit over row runs, against the dense graph it stands for.

Every operator gives its edges ``matrix > ESCAPE_TOL_DEFAULT`` as
``kernels.EdgeRuns``: column runs per row, an optional column mask and
signed single-cell corrections.  On drawn documents of all five families
(the sweep's strategies), the runs, expanded cell by cell by ``expand``,
are that boolean matrix exactly; so are those of the run table and the
Toeplitz row behind a spec that the build refuses.  The H2 report, or the
error, equals that of ``dense_graph.dense_reachability``, the
breadth-first search over the N x N boolean matrix.  At 8001 nodes the
audit holds no N x N array.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import kernels
from qsdlab.errors import QsdlabError, ValidationError
from qsdlab.kernels import (
    ESCAPE_TOL_DEFAULT,
    KernelSpec,
    build_operator,
    check_h2_reachability,
    reachability,
)
from dense_graph import dense_reachability, expand, operator_graph
from test_explicit_sweep import density_documents, explicit_documents


def _report(rep):
    return (rep.strongly_connected, rep.n_components, rep.graph_period,
            rep.node_class.tobytes())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QsdlabError as exc:
        return type(exc), str(exc)


def _table(spec):
    """The run table or Toeplitz row of a window or Gaussian spec, or None (other family, refused)."""
    kind = {"affine_uniform": kernels.RunTable, "cubic_uniform": kernels.RunTable,
            "gaussian_shift": kernels.ToeplitzRow}.get(spec.family)
    try:
        return kind(spec, kernels._quadrature_grid(spec)) if kind else None
    except QsdlabError:
        return None


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(density_documents(), explicit_documents()))
# a window so wide that every inside value c_j = h / 2w is at the tolerance:
# three non-escape nodes (row mass 2e-12) and no edge
@example(doc={"family": "affine_uniform", "domain": [-1, 1], "grid_size": 3,
              "params": {"a": 1.0, "b": 0.0, "noise_halfwidth": 5e11}})
# row 1's window ends on the lower endpoint: an edge cell of value 0
@example(doc={"family": "affine_uniform", "domain": [-1, 1], "grid_size": 11,
              "params": {"a": 1.0, "b": -0.4, "noise_halfwidth": 0.2}})
# one non-escape state, with a self-loop and without
@example(doc={"family": "explicit_matrix", "params": {"matrix": [[0.5, 0.0], [0.0, 0.0]]}})
@example(doc={"family": "explicit_matrix", "params": {"matrix": [[0.0, 0.5], [0.0, 0.0]]}})
# a Gaussian row that passes only at k = 0 (its mass 5 is then refused)
@example(doc={"family": "gaussian_shift", "domain": [0, 1], "grid_size": 5,
              "params": {"sigma": 0.02}})
# T(35) h = 1.8e-12 passes, but at the end columns' half weight it does not
@example(doc={"family": "gaussian_shift", "domain": [-1, 1], "grid_size": 201,
              "params": {"sigma": 0.05}})
def test_edge_runs_are_the_operators_graph(doc):
    try:
        spec = KernelSpec(**doc)
    except ValidationError:
        return
    table = _table(spec)
    if table is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(expand(table.graph()), table.matrix() > ESCAPE_TOL_DEFAULT)
    try:
        op = build_operator(spec)
    except QsdlabError as exc:
        assert _outcome(operator_graph, spec) == (type(exc), str(exc))
        return
    escape, runs = operator_graph(spec)
    assert escape == op.escape
    want = _outcome(dense_reachability, escape, op.matrix > ESCAPE_TOL_DEFAULT)
    assert np.array_equal(expand(runs), op.matrix > ESCAPE_TOL_DEFAULT)
    assert _outcome(lambda: _report(reachability(escape, runs))) == want


def test_gaussian_end_columns_drop_out_at_half_weight():
    spec = KernelSpec(family="gaussian_shift", domain=(-1.0, 1.0), grid_size=201,
                      params={"sigma": 0.05})
    runs = build_operator(spec).graph()
    assert (runs.fix_rows.tolist(), runs.fix_cols.tolist(), runs.fix_sign.tolist()) == (
        [35, 165], [0, 200], [-1, -1])


@pytest.mark.parametrize("name", ["example21", "example23gauss"])
def test_audit_at_8001_nodes_takes_linear_memory(name):
    # the boolean graph alone would take N^2 bytes, 64 MB
    n = 8001
    spec = q.get_spec(name, grid_size=n)
    tracemalloc.start()
    try:
        escape, runs = operator_graph(spec)
        rep = reachability(escape, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * 8, peak / (8 * n)
    assert rep.strongly_connected and rep.graph_period == 1


def test_gaussian_audit_fills_no_matrix():
    op = build_operator(q.get_spec("example23gauss", grid_size=1601))
    assert check_h2_reachability(op).strongly_connected
    assert "matrix" not in vars(op) and "dense" not in vars(op.form)
