"""Window rows read from their index runs give the bytes of the elementwise reference.

``kernels._window_runs`` finds, per row, the column runs where the window
tests hold and the edge cells with their values; ``ref_window_values`` in
``test_build_bytes.py`` evaluates every test at every entry.  The runs,
expanded here cell by cell, must agree with it bit for bit on any
nondecreasing node array.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import cli
from qsdlab.errors import InvalidDomain
from qsdlab.kernels import H1_PROBES, JUMP_ATOL, _check_density, _window_runs
from test_build_bytes import ref_window_values

NONFINITE = (math.nan, math.inf, -math.inf)


def _window_values(centers, nodes, lower, upper, halfwidth):
    """Every row of the window indicator, expanded from its runs cell by cell."""
    start, stop, (i, j, side) = _window_runs(centers, nodes, lower, upper, halfwidth)
    n = np.size(nodes)
    assert np.unique(i * n + j).size == i.size      # each edge cell once
    cols = np.arange(n)
    val = ((start[:, None] <= cols) & (cols < stop[:, None])).astype(float)
    val[i, j] = side
    return val


@st.composite
def window_cases(draw):
    n = draw(st.integers(2, 300))
    lo = draw(st.floats(-3.0, 3.0))
    width = draw(st.floats(1e-3, 8.0))
    hi = lo + width
    if draw(st.booleans()):
        nodes = np.linspace(lo, hi, n)
    else:   # any nondecreasing nodes, repeats included
        nodes = np.sort(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    step = width / (n - 1)
    halfwidth = draw(st.one_of(
        st.floats(1e-3, 0.999).map(lambda u: u * step),      # below one grid step
        st.floats(1.001, 4.0).map(lambda u: u * width),      # wider than the domain
        st.floats(0.01, 1.0).map(lambda u: u * width),
        st.floats(0.1, 2.0).map(lambda u: u * JUMP_ATOL),    # no inside run at all
    ))
    # the rows: the grid itself, or one of check_h1_modulus's probe grids
    k = draw(st.integers(-1, 5))
    xs = np.linspace(lo, hi, H1_PROBES)
    xs = nodes if k < 0 else np.clip(xs + width / 8 / 2 ** k, lo, hi)
    kind = draw(st.sampled_from(["affine", "cubic", "aligned"]))
    if kind == "affine":
        a = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
        centers = a * xs + draw(st.floats(-2.0, 2.0))
    elif kind == "cubic":
        centers = xs ** 3
    else:
        # a window edge exactly on a node, or within JUMP_ATOL of it
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
        sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                      min_size=len(picks), max_size=len(picks))))
        nudge = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]),
            min_size=len(picks), max_size=len(picks))))
        centers = nodes[picks] + sign * halfwidth + nudge * JUMP_ATOL
    centers = np.array(centers, dtype=float)
    holes = draw(st.lists(st.tuples(st.integers(0, centers.size - 1),
                                    st.sampled_from(NONFINITE)), max_size=3))
    for i, v in holes:
        centers[i] = v
    return centers, nodes, lo, hi, halfwidth


@settings(max_examples=300, deadline=None)
@given(case=window_cases())
def test_window_rows_match_elementwise_reference(case):
    got = _window_values(*case)
    want = ref_window_values(*case)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("w", [2.0 ** -31, JUMP_ATOL, 0.25, 6.0])
def test_window_rows_on_exact_ties(w):
    # center 0, so t is the node itself: nodes a few ulps either side of each
    # value where a test's comparison turns (the edge ones are hit exactly
    # only at the two small halfwidths)
    def walk(v, k):
        for _ in range(abs(k)):
            v = np.nextafter(v, math.copysign(math.inf, k))
        return v

    inner = w - JUMP_ATOL
    turns = [-inner, inner] + [e - s for s in (w, -w) for e in (-JUMP_ATOL, JUMP_ATOL)]
    nodes = np.unique([walk(v, k) for v in turns for k in range(-6, 7)])
    case = (np.array([0.0]), nodes, nodes[1], nodes[-2], w)
    assert _window_values(*case).tobytes() == ref_window_values(*case).tobytes()


def test_nonfinite_centers_give_zero_rows():
    nodes = np.linspace(-1.0, 1.0, 11)
    val = _window_values(np.array([0.0, *NONFINITE]), nodes, -1.0, 1.0, 0.5)
    assert val[0].any() and not val[1:].any()


@pytest.mark.parametrize("table,message", [
    ([[1.0, math.nan], [1.0, 1.0]], "density evaluated to a non-finite value"),
    ([[1.0, math.inf], [1.0, 1.0]], "density evaluated to a non-finite value"),
    ([[1.0, -math.inf], [1.0, 1.0]], "density evaluated to a non-finite value"),
    ([[-1.0, math.nan], [1.0, 1.0]], "density evaluated to a non-finite value"),
])
def test_bad_table_raises_in_order(table, message):
    # the one range check of every computed density block; a value that is
    # not finite is an invalid input, a negative one beside it included (a
    # negative table is refused by KernelSpec, see test_kernels)
    with pytest.raises(InvalidDomain) as err:
        _check_density(np.array(table))
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["example21", "example22cubic"])
def test_window_build_peak_memory(name):
    # the matrix plus O(N log N) for the row runs: no N x N scratch array
    spec = q.get_spec(name, grid_size=1601)
    tracemalloc.start()
    try:
        op = q.build_operator(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * op.matrix.nbytes, peak / op.matrix.nbytes


@pytest.mark.parametrize("name", ["example21", "example22cubic", "example23gauss"])
def test_verify_hypothesis_peak_memory(name, tmp_path):
    # the audit holds the N^2 bytes of the edges, not the 8 N^2 bytes of the operator
    n = 1601
    tracemalloc.start()
    try:
        code = cli.main(["verify-hypothesis", "--spec", name, "--grid-size", str(n),
                         "--out", str(tmp_path), "--canonical"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 0.5 * n * n * 8, peak / (n * n * 8)
