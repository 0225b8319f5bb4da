import hashlib
import importlib.util
import math
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from conftest import delta_at
from qsdlab import kernels, simulate
from qsdlab.cli import main
from qsdlab.errors import (
    InvalidDomain,
    NegativeDensity,
    RowSumExceedsOne,
    SizeLimitExceeded,
    TooFewSurvivors,
    ValidationError,
)
from qsdlab.kernels import KernelSpec, build_operator
from qsdlab.oracle import FiniteChain, lobo_sum
from qsdlab.simulate import CHUNK_SIZE, simulate_batch


def _move(spec, x, u):
    """One move of ``_mover(spec)`` from x driven by the draw u: the next state, or None."""
    dtype, move = simulate._mover(spec)
    y, live = move(np.array([x], dtype=dtype), np.array([u], dtype=float))
    return y[0].item() if live[0] else None


def test_window_move_arithmetic():
    spec = q.get_spec("example21")
    # u = 0.75 maps to noise +0.5 around the centre 2x
    assert _move(spec, 0.9, 0.75) is None
    assert _move(spec, 0.0, 0.75) == pytest.approx(0.5)
    cubic = q.get_spec("example22cubic")
    # centre x**3, noise 6 (2u - 1)
    assert _move(cubic, 0.5, 0.5) == 0.125
    assert _move(cubic, 0.5, 0.625) == 1.625
    assert _move(cubic, 1.0, 0.75) is None


def test_explicit_move_cdf_layout():
    spec = q.get_spec("sym2")
    # row 0 CDF: [0.5, 0.75], absorption bucket to 1.0
    assert _move(spec, 0, 0.9) is None
    assert _move(spec, 0, 0.6) == 1
    assert _move(spec, 0, 0.2) == 0


def test_gaussian_move_stays_or_leaves():
    spec = q.get_spec("example23gauss")
    assert _move(spec, 0.0, 0.5) == pytest.approx(0.0)  # median move
    assert _move(spec, 0.9, 0.999) is None


def test_seed_determinism():
    spec = q.get_spec("ds3")
    h = lambda s: (s == 1).astype(float)
    b1 = simulate_batch(spec, 1, 15, 50_000, seed=42, h=h)
    b2 = simulate_batch(spec, 1, 15, 50_000, seed=42, h=h)
    assert b1.survivor_count == b2.survivor_count
    assert np.array_equal(b1.terminal_states, b2.terminal_states)
    assert np.array_equal(b1.running_sums, b2.running_sums)
    assert np.array_equal(b1.tau_histogram, b2.tau_histogram)
    b3 = simulate_batch(spec, 1, 15, 50_000, seed=43, h=h)
    assert b3.survivor_count != b1.survivor_count or not np.array_equal(
        b1.terminal_states, b3.terminal_states)


def test_tau_histogram_accounts_for_every_path():
    spec = q.get_spec("sym2")
    b = simulate_batch(spec, 0, 12, 30_000, seed=5)
    assert b.tau_histogram[0] == 0
    assert b.tau_histogram.sum() + b.survivor_count == b.n_paths
    bc = simulate_batch(q.get_spec("example21"), 0.3, 6, 30_000, seed=5)
    assert bc.terminal_states.min() >= -1.0 and bc.terminal_states.max() <= 1.0


def test_survivor_fraction_matches_matrix_powers():
    # binomial agreement with the exact n-step survival probability
    for name, x0, n in (("sym2", 0, 12), ("ds3", 1, 10)):
        spec = q.get_spec(name)
        qm = np.asarray(spec.params["matrix"])
        p = float((np.linalg.matrix_power(qm, n) @ np.ones(len(qm)))[x0])
        npaths = 200_000
        b = simulate_batch(spec, x0, n, npaths, seed=9)
        se = math.sqrt(p * (1 - p) / npaths)
        assert abs(b.survivor_count / npaths - p) <= 4 * se, name


def test_survivor_fraction_continuous_kernel(sds):
    # continuous case checked against the discretized operator's prediction
    sd = sds["example21_201"]
    op = sd.op
    nu0 = delta_at(op, 0.3)
    n = 8
    pred = float(nu0 @ np.linalg.matrix_power(op.matrix, n) @ np.ones(op.size))
    npaths = 400_000
    b = simulate_batch(q.get_spec("example21"), 0.3, n, npaths, seed=13)
    se = math.sqrt(pred * (1 - pred) / npaths)
    assert abs(b.survivor_count / npaths - pred) <= 4 * se + 2e-3


def test_estimate_yaglom_sym2_matches_exact_law():
    spec = q.get_spec("sym2")
    qm = np.asarray(spec.params["matrix"])
    n = 20
    law = np.array([1.0, 0.0]) @ np.linalg.matrix_power(qm, n)
    law = law / law.sum()
    est = q.estimate_yaglom(spec, 0, n, 3_000_000, seed=21, lam_hint=0.75)
    assert est.effective_samples >= 1000
    for k in range(2):
        p = law[k]
        se = math.sqrt(p * (1 - p) / est.effective_samples)
        assert abs(est.value[k] - p) <= 4 * se
    assert est.stderr == pytest.approx(1 / math.sqrt(est.effective_samples))


def test_estimate_yaglom_bins_to_grid(sds):
    sd = sds["example21_201"]
    mu, _ = q.quasi_stationary_measure(sd)
    est = q.estimate_yaglom(q.get_spec("example21"), 0.3, 8, 2_000_000, seed=3,
                            lam_hint=0.5, grid=sd.op.grid)
    assert est.value.shape == mu.shape
    assert est.value.sum() == pytest.approx(1.0, abs=1e-12)
    assert q.tv_distance(est.value, mu) < 0.08


def test_bin_edges_are_node_midpoints(sds):
    grid = sds["example21_201"].op.grid
    edges = grid.cell_edges()
    assert edges[0] == grid.lower and edges[-1] == grid.upper
    assert np.allclose(edges[1:-1], 0.5 * (grid.nodes[1:] + grid.nodes[:-1]))
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    simulate._bin_counts(np.array([grid.nodes[5], grid.nodes[5] + 1e-6]), edges, counts)
    assert counts[5] == 2 and counts.sum() == 2


def test_birkhoff_constant_function_is_exact():
    est = q.estimate_birkhoff(q.get_spec("sym2"), 0, 10, lambda s: np.ones(len(s)),
                              50_000, seed=2, lam_hint=0.75)
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)


def test_birkhoff_unbiased_for_exact_finite_horizon_mean():
    spec = q.get_spec("ds3")
    chain = FiniteChain(Q=np.asarray(spec.params["matrix"]))
    n, x0 = 20, 1
    h = np.array([0.0, 1.0, 0.0])
    surv = float((np.linalg.matrix_power(chain.Q, n) @ np.ones(3))[x0])
    exact = lobo_sum(chain, h, x0, n) / (n * surv)
    est = q.estimate_birkhoff(spec, x0, n, lambda s: (s == 1).astype(float),
                              2_000_000, seed=7, lam_hint=0.75)
    assert abs(est.value - exact) <= 3 * est.stderr


def _birkhoff_by_np_std(sums, n):
    """The Birkhoff mean and stderr as ``np.mean`` and ``np.std(ddof=1)`` give them."""
    vals = np.asarray(sums, dtype=float) / n
    e = math.frexp(max(vals.max(), -vals.min()))[1]
    np.ldexp(vals, -e, out=vals)
    sd = float(np.ldexp(vals.std(ddof=1), e))
    return float(np.ldexp(vals.mean(), e)), sd / math.sqrt(len(vals))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=100, max_size=400),
       st.integers(1, 10 ** 6))
def test_birkhoff_summary_is_np_std_bitwise(sums, n):
    est = simulate._birkhoff(np.asarray(sums, dtype=float) / n, len(sums))
    assert (est.value, est.stderr) == _birkhoff_by_np_std(sums, n)


def test_birkhoff_summary_holds_one_survivor_array():
    # the scaled sums are the one survivor-sized array: the deviations are
    # taken in place
    sums = np.random.default_rng(5).random(200_000) * 10
    tracemalloc.start()
    try:
        est = simulate._birkhoff(sums / 10, sums.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sums.nbytes, peak / sums.nbytes
    assert (est.value, est.stderr) == _birkhoff_by_np_std(sums, 10)


def test_yaglom_from_escape_point_refuses():
    # from an escape point every path is absorbed at step one
    with pytest.raises(TooFewSurvivors), pytest.warns(UserWarning):
        q.estimate_yaglom(q.get_spec("example21"), 1.0, 5, 20_000, seed=4,
                          lam_hint=0.5, grid=None)


def test_birkhoff_second_moment_cubic_kernel(sds):
    # horizon 40 is out of reach of rejection sampling here (survival ~ 0.3^40),
    # so the MC is checked unbiased at a feasible horizon against the exact
    # finite-horizon mean on the grid, and the exact means are checked to
    # approach the ergodic integral of y^2 as the horizon grows
    sd = sds["example22_201"]
    op = sd.op
    eta = q.quasi_ergodic_measure(sd)
    y2 = op.grid.nodes ** 2
    eta_int = float(eta @ y2)
    one = np.ones(op.size)
    i0 = int(np.argmin(np.abs(op.grid.nodes - 0.3)))

    def exact_mean(n):
        suffix = [one.copy()]
        for _ in range(n):
            suffix.append(op.matrix @ suffix[-1])
        acc = y2 * suffix[1]
        for k in range(n - 2, -1, -1):
            acc = y2 * suffix[n - k] + op.matrix @ acc
        return float(acc[i0] / (n * suffix[n][i0]))

    n = 6
    est = q.estimate_birkhoff(q.get_spec("example22cubic"), 0.3, n,
                              lambda y: y ** 2, 2_000_000, seed=11,
                              lam_hint=sd.lam)
    # 0.02 allowance for the grid-vs-continuum offset of the exact mean
    assert abs(est.value - exact_mean(n)) <= 3 * est.stderr + 0.02
    biases = [abs(exact_mean(k) - eta_int) for k in (6, 8, 40)]
    assert biases[0] > biases[1] > biases[2]
    assert biases[2] <= 0.03


def test_estimate_yaglom_bins_to_the_spec_grid_by_default():
    # no grid given: the grid build_operator realizes the spec on; an explicit
    # chain's states fall one to a cell, as a bincount would count them
    for name, x0 in (("example21", 0.3), ("sym2", 0), ("ds3", 1)):
        spec = q.get_spec(name)
        est = q.estimate_yaglom(spec, x0, 3, 200_000, seed=4)
        ref = q.estimate_yaglom(spec, x0, 3, 200_000, seed=4, grid=build_operator(spec).grid)
        assert est.value.tobytes() == ref.value.tobytes()
        if spec.is_explicit:
            batch = simulate_batch(spec, x0, 3, 200_000, seed=4)
            counts = np.bincount(batch.terminal_states, minlength=spec.grid_size)
            assert est.value.tobytes() == (counts / counts.sum()).tobytes()


def test_estimators_match_the_batch_reference():
    # on every seeded simulate case of scripts/run_pipeline.py, with the
    # command's h: the estimators bin and average as np.histogram of the
    # batch's terminal states and np.mean / np.std(ddof=1) of its running sums
    # would, bitwise, at a batch that keeps at least 1000 survivors
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"
    loader = importlib.util.spec_from_file_location("run_pipeline", script)
    run_pipeline = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run_pipeline)
    for name, n, start in run_pipeline.SIMULATE:
        spec = q.get_spec(name)
        if start is not None:
            x0 = float(start)
        else:
            x0 = 0 if spec.is_explicit else float(np.mean(spec.domain))
        k = min(1, spec.grid_size - 1)
        h = (lambda s: s == k) if spec.is_explicit else (lambda y: y)
        n_paths = 2000
        while (b := simulate_batch(spec, x0, n, n_paths, seed=7, h=h)).survivor_count < 1000:
            n_paths *= 2
        est = q.estimate_yaglom(spec, x0, n, n_paths, seed=7)
        counts, _ = np.histogram(b.terminal_states, bins=build_operator(spec).grid.cell_edges())
        counts = counts.astype(float)
        assert est.value.tobytes() == (counts / counts.sum()).tobytes(), (name, n, start)
        assert (est.stderr, est.effective_samples) == (1 / math.sqrt(b.survivor_count),
                                                       b.survivor_count)
        est_b = q.estimate_birkhoff(spec, x0, n, h, n_paths, seed=7)
        assert ((est_b.value, est_b.stderr, est_b.effective_samples)
                == (*_birkhoff_by_np_std(b.running_sums, n), b.survivor_count)), (name, n, start)


def test_estimate_yaglom_keeps_no_state_per_survivor():
    # a chunk of 10**6 paths: the chunk's 8 MB state buffer and block-sized
    # buffers, no terminal state kept per survivor (about 43% survive); a
    # small run first, so that the imports of a first run are not traced
    q.estimate_yaglom(q.get_spec("example21"), 0.0, 1, 1000, seed=1)
    tracemalloc.start()
    try:
        q.estimate_yaglom(q.get_spec("example21"), 0.0, 1, 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 1_000_000, peak


def test_estimate_yaglom_refuses_a_grid_narrower_than_the_domain(monkeypatch):
    # binning puts every survivor in a cell, so the cells must cover the domain
    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(simulate, "_chunk_generator", no_draw)
    narrow = q.StateGrid(-0.5, 0.5, np.linspace(-0.5, 0.5, 101), np.full(101, 0.01))
    with pytest.raises(InvalidDomain, match="do not cover the domain"):
        q.estimate_yaglom(q.get_spec("example21"), 0.3, 3, 200_000, seed=1, grid=narrow)


def test_too_many_steps_are_refused_before_any_allocation():
    # 10**12 steps would need a 7.28 TiB absorption-time histogram
    spec = q.get_spec("sym2")
    with pytest.raises(SizeLimitExceeded, match="needs 1000000000001 absorption-time counts"):
        simulate_batch(spec, 0, 10 ** 12, 1000)
    with pytest.raises(SizeLimitExceeded):
        q.estimate_birkhoff(spec, 0, 10 ** 12, lambda s: s, 1000)


def test_running_sums_past_the_float_range_are_refused():
    # points near 8e307: a draw past the float range is absorbed silently, and
    # the sums of three survivors' points overflow to inf
    spec = KernelSpec(family="gaussian_shift", domain=[-8e307, 8e307], grid_size=11,
                      params={"sigma": 3e307})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidDomain, match="^the running sums of h are not finite$"):
            q.estimate_birkhoff(spec, 7e307, 3, lambda y: y, 100_000, seed=0)


def test_too_few_survivors():
    with pytest.raises(TooFewSurvivors), pytest.warns(UserWarning):
        q.estimate_yaglom(q.get_spec("sym2"), 0, 200, 10_000, seed=1, lam_hint=0.75)


def test_chunk_boundary_crossing_is_deterministic():
    spec = q.get_spec("sym2")
    npaths = CHUNK_SIZE + 12_345
    b1 = simulate_batch(spec, 0, 3, npaths, seed=8)
    b2 = simulate_batch(spec, 0, 3, npaths, seed=8)
    assert b1.survivor_count == b2.survivor_count
    assert np.array_equal(b1.tau_histogram, b2.tau_histogram)


# Digests of simulate_batch output recorded before the step loop kept only
# the live paths: the compacted loop must reproduce every byte, so a seeded
# batch never changes with the loop's layout.  Two chunks of paths each.
_GOLDEN = {
    ("example21", 0.3, 6): (28992, "9d4b6a10dc2e63aa", "133276d6459550d8", "dd24ebd24efaa104"),
    ("example22cubic", 0.3, 4): (9687, "d0250dae7e0ed69a", "f1cccc2c0ffe581d", "3eb54c17b247e6c9"),
    ("example23gauss", 0.0, 5): (104236, "a422a01d2942f1a1", "e5f6791f9908f734", "7a6b31844645b847"),
    ("ds3", 1, 10): (61129, "35e9aef57dd45264", "020e24b5b2861972", "eb197f83a2653a5b"),
    ("cycle3", 0, 6): (564043, "212b4166e88f1aa0", "f8e6c3e63bb9745e", "1db2ef6fec6faf1b"),
}


def _digest(a):
    return hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_simulate_batch_golden_bytes(key):
    name, x0, n = key
    survivors, terminal, tau, sums = _GOLDEN[key]
    spec = q.get_spec(name)
    h = (lambda s: (s == 1).astype(float)) if spec.is_explicit else (lambda y: y * y)
    plain = simulate_batch(spec, x0, n, CHUNK_SIZE + 12_345, seed=2024)
    with_h = simulate_batch(spec, x0, n, CHUNK_SIZE + 12_345, seed=2024, h=h)
    for b in (plain, with_h):
        assert b.survivor_count == survivors
        assert b.terminal_states.dtype == (np.int64 if spec.is_explicit else np.float64)
        assert _digest(b.terminal_states) == terminal
        assert _digest(b.tau_histogram) == tau
    assert plain.running_sums is None
    assert _digest(with_h.running_sums) == sums


class _SlowDraws:
    """A chunk generator that sleeps before each fill and records each fill's size.

    A fill that starts while another is under way fails the test: the
    generator must see one call at a time.
    """

    def __init__(self, gen, sizes, pause):
        self.gen, self.sizes, self.pause, self.busy = gen, sizes, pause, False

    def random(self, m, out=None):
        assert not self.busy, "two fills at once"
        self.busy = True
        time.sleep(self.pause)
        self.sizes.append(m)
        u = self.gen.random(m, out=out)
        self.busy = False
        return u


def _serial_sizes(spec, x0, n, n_paths, seed):
    """Per chunk, per step: the ``random`` sizes of the step loop run serially on one stream."""
    chunks, (dtype, move) = [], simulate._mover(spec)
    for c in range(-(-n_paths // CHUNK_SIZE)):
        gen = simulate._chunk_generator(seed, c)
        state = np.full(min(CHUNK_SIZE, n_paths - c * CHUNK_SIZE), x0, dtype=dtype)
        chunks.append([])
        for _ in range(n):
            kept, sizes = [], []
            for a in range(0, state.size, simulate.BLOCK_SIZE):
                s = state[a:a + simulate.BLOCK_SIZE]
                sizes.append(s.size)
                y, live = move(s, gen.random(s.size))
                kept.append(y[live])
            chunks[-1].append(sizes)
            state = np.concatenate(kept)
    return chunks


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_slow_draws_keep_the_golden_bytes(key, monkeypatch):
    # the worker that makes the next block's draws lags behind the step loop
    name, x0, n = key
    survivors, terminal, tau, sums = _GOLDEN[key]
    spec = q.get_spec(name)
    h = (lambda s: (s == 1).astype(float)) if spec.is_explicit else (lambda y: y * y)
    real, streams = simulate._chunk_generator, []

    def slow(seed, c, skip=0):
        streams.append((c, skip, []))
        return _SlowDraws(real(seed, c, skip), streams[-1][2], 2e-3)

    monkeypatch.setattr(simulate, "_chunk_generator", slow)
    b = simulate_batch(spec, x0, n, CHUNK_SIZE + 12_345, seed=2024, h=h)
    assert b.survivor_count == survivors
    assert (_digest(b.terminal_states), _digest(b.tau_histogram),
            _digest(b.running_sums)) == (terminal, tau, sums)
    monkeypatch.setattr(simulate, "_chunk_generator", real)
    # per chunk, stream A (from draw 0) makes the serial step 0's fills, and
    # stream B (from draw k, the chunk's path count) every later draw of the
    # serial loop, in order: the serial positions k, k + 1, ...
    serial = _serial_sizes(spec, x0, n, CHUNK_SIZE + 12_345, 2024)
    assert [(c, skip) for c, skip, _ in streams] == [
        (c, skip) for c, steps in enumerate(serial) for skip in (0, sum(steps[0]))]
    for c, steps in enumerate(serial):
        (_, _, a), (_, _, b) = streams[2 * c], streams[2 * c + 1]
        assert a == steps[0]
        assert sum(b) == sum(map(sum, steps[1:])) and min(b) > 0


def test_concurrent_batches_keep_the_golden_bytes():
    # more batches than cores, each with its own draw-ahead worker, and a
    # short switch interval: every batch still gives the serial loop's bytes
    key = ("example21", 0.3, 6)
    name, x0, n = key
    survivors, terminal, tau, _ = _GOLDEN[key]
    digests = []

    def run():
        b = simulate_batch(q.get_spec(name), x0, n, CHUNK_SIZE + 12_345, seed=2024)
        digests.append((b.survivor_count, _digest(b.terminal_states), _digest(b.tau_histogram)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert digests == [(survivors, terminal, tau)] * 4


class _FixedDraws:
    """Stands in for a chunk generator: every draw is the same u."""

    def __init__(self, u):
        self.u = u

    def random(self, m, out=None):
        out = np.empty(m) if out is None else out
        out.fill(self.u)
        return out


@pytest.mark.parametrize("name", ["sym2", "ds3", "cycle3"])
def test_one_path_batch_follows_the_row_cdf(name, monkeypatch):
    spec = q.get_spec(name)
    cdf = np.cumsum(np.asarray(spec.params["matrix"]), axis=1)
    for x in range(len(cdf)):
        # every CDF value exactly, the row total, past it, between values and 1.0
        us = set(cdf[x]) | {0.0, 0.3, cdf[x, -1], np.nextafter(cdf[x, -1], 2.0), 0.999999, 1.0}
        for u in sorted(us):
            monkeypatch.setattr(simulate, "_chunk_generator", lambda seed, c, u=u: _FixedDraws(u))
            b = simulate_batch(spec, x, 1, 1)
            step = _move(spec, x, u)
            if step is None:
                assert b.survivor_count == 0 and b.tau_histogram[1] == 1, (x, u)
                assert u >= cdf[x, -1]
            else:
                assert b.survivor_count == 1 and b.terminal_states[0] == step, (x, u)
                assert int(np.sum(cdf[x] <= u)) == step


# (start, draw) pairs whose move lands exactly on the lower and the upper end
# of the domain: the window centre 2x (u = 0.5), x**3 -+ 3 (u = 0.25, 0.75),
# the Gaussian median (u = 0.5)
_EDGE_MOVES = {
    "example21": [(-0.5, 0.5), (0.5, 0.5)],
    "example22cubic": [(1.0, 0.25), (-1.0, 0.75)],
    "example23gauss": [(-1.0, 0.5), (1.0, 0.5)],
}


@pytest.mark.parametrize("name", sorted(_EDGE_MOVES))
def test_one_path_batch_moves_onto_either_domain_end(name, monkeypatch):
    spec = q.get_spec(name)
    lo, hi = spec.domain
    grid = [(x, u) for x in (lo, -0.3, 0.0, 0.7, hi)
            for u in (0.0, 1e-9, 0.25, 0.5, 0.75, 0.999999)]
    landed = set()
    for x, u in _EDGE_MOVES[name] + grid:
        monkeypatch.setattr(simulate, "_chunk_generator", lambda seed, c, u=u: _FixedDraws(u))
        b = simulate_batch(spec, x, 1, 1)
        step = _move(spec, x, u)
        if step is None:
            assert b.survivor_count == 0 and b.tau_histogram[1] == 1, (x, u)
        else:
            assert b.survivor_count == 1 and b.terminal_states[0] == step, (x, u)
            assert lo <= step <= hi
            landed.add(step)
    assert {lo, hi} <= landed   # the closed domain keeps a move onto either end


class _Draws:
    """Stands in for a chunk generator: hands out the given draws in order."""

    def __init__(self, u):
        self.u, self.i = np.asarray(u, dtype=float), 0

    def random(self, m, out=None):
        self.i += m
        out = np.empty(m) if out is None else out
        out[:] = self.u[self.i - m:self.i]
        return out


def test_wide_chain_counts_past_255_columns(monkeypatch):
    # 300 columns: the inverse-CDF count no longer fits in one byte
    rng = np.random.default_rng(300)
    matrix = rng.dirichlet(np.ones(300), size=300) * 0.9
    spec = KernelSpec(domain=(0, 299), family="explicit_matrix", params={"matrix": matrix})
    cdf = np.cumsum(matrix, axis=1)
    for x in (0, 123, 299):
        # every CDF value exactly, the points between them, the row total and past it
        us = np.concatenate([[0.0], cdf[x], (cdf[x, :-1] + cdf[x, 1:]) / 2,
                             [np.nextafter(cdf[x, -1], 2.0), 0.999999]])
        want = np.array([int(np.sum(cdf[x] <= u)) for u in us])
        monkeypatch.setattr(simulate, "_chunk_generator", lambda seed, c, us=us: _Draws(us))
        b = simulate_batch(spec, x, 1, us.size)
        assert b.terminal_states.dtype == np.int64
        assert np.array_equal(b.terminal_states, want[want < 300])
        assert b.tau_histogram[1] == np.count_nonzero(want == 300)
        assert {299, 300} <= set(want.tolist())  # the last column and absorption
        # one path at a time: the whole row in one strip of comparisons
        dtype, move = simulate._mover(spec)
        for u, j in zip(us, want):
            y, live = move(np.array([x], dtype=dtype), np.array([u]))
            assert y[0] == j and live[0] == (j < 300), (x, u)


def _chunk_peak(name, x0, n, h):
    """The traced peak of one chunk's batch, in chunk units (8 bytes a path)."""
    tracemalloc.start()
    try:
        simulate_batch(q.get_spec(name), x0, n, CHUNK_SIZE, seed=3, h=h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * CHUNK_SIZE)


@pytest.mark.parametrize("name,x0,n", [("ds3", 0, 20), ("sym2", 0, 4), ("example21", 0.5, 10)])
def test_step_loop_peak_memory(name, x0, n):
    # one chunk with running sums: the state and sum arrays (two chunk-sized
    # arrays of 8-byte values) plus per-block temporaries and the survivors' copies
    h = (lambda s: (s == 1).astype(float)) if q.get_spec(name).is_explicit else (lambda y: y)
    assert _chunk_peak(name, x0, n, h) <= 3


@pytest.mark.parametrize("name,x0,n", [("ds3", 0, 20), ("sym2", 0, 4)])
def test_explicit_chunk_holds_its_states_in_one_byte(name, x0, n):
    # the one-byte states (1/8 unit), the sums (1 unit), the fixed block
    # buffers and the survivors' int64 states and sums; without h, no sums
    assert _chunk_peak(name, x0, n, lambda s: (s == 1).astype(float)) <= 2.0
    assert _chunk_peak(name, x0, n, None) <= 0.75


def test_h_sees_int64_states():
    # s * 1000 overflows a one-byte state; h sees the states as int64
    b = simulate_batch(q.get_spec("ds3"), 1, 10, 200_000, seed=2024, h=lambda s: s * 1000)
    assert b.survivor_count == 11473
    assert _digest(b.running_sums) == "dff6f84d72b45a68"


def test_explicit_move_on_cdf_values():
    spec = q.get_spec("sym2")
    # row 0 CDF: [0.5, 0.75]; a draw on a CDF value falls in the next bucket
    assert _move(spec, 0, 0.5) == 1
    assert _move(spec, 0, 0.75) is None
    assert _move(spec, 0, 1.0) is None


@pytest.mark.parametrize("name,x0", [
    ("sym2", -1), ("sym2", 2), ("sym2", 5), ("sym2", 7), ("sym2", 0.5), ("sym2", 0.7),
    ("ds3", float("nan")), ("example21", 1.5), ("example21", 5.0), ("example21", -1.0000001),
    ("example23gauss", float("nan")),
    # a start that is not a real number, bools included
    ("sym2", True), ("example21", True), pytest.param("sym2", np.True_, id="sym2-np.True_"),
    pytest.param("sym2", "1", id="sym2-str_1"),
    pytest.param("example21", "0.5", id="example21-str_0.5"),
    ("sym2", None), ("example21", None), ("sym2", 1 + 0j), ("example21", 0.5 + 0j),
    # a 401-digit state, which float() overflowed before the range test
    pytest.param("ds3", 10 ** 400, id="ds3-1e400"),
    pytest.param("ds3", -10 ** 400, id="ds3--1e400"),
])
def test_simulate_batch_rejects_bad_start(name, x0):
    with pytest.raises(InvalidDomain):
        simulate_batch(q.get_spec(name), x0, 3, 100, seed=1)


@pytest.mark.parametrize("seed", [1.5, "7", True, -1, 2 ** 64, None])
@pytest.mark.parametrize("run", [
    lambda spec, seed: simulate_batch(spec, 0, 3, 100, seed=seed),
    lambda spec, seed: q.estimate_yaglom(spec, 0, 3, 100, seed=seed),
    lambda spec, seed: q.estimate_birkhoff(spec, 0, 3, lambda s: s, 100, seed=seed),
], ids=["simulate_batch", "estimate_yaglom", "estimate_birkhoff"])
def test_a_bad_seed_is_refused_before_any_draw(run, seed, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(simulate, "_chunk_generator", no_draw)
    with pytest.raises(ValidationError, match="seed must be an integer in 0..2"):
        run(q.get_spec("sym2"), seed)


def test_check_seed_takes_the_whole_key_word():
    assert simulate.check_seed(np.uint64(2 ** 64 - 1)) == 2 ** 64 - 1
    assert type(simulate.check_seed(np.int32(7))) is int
    b = simulate_batch(q.get_spec("ds3"), 0, 5, 1000, seed=np.int64(7))
    assert np.array_equal(b.terminal_states,
                          simulate_batch(q.get_spec("ds3"), 0, 5, 1000, seed=7).terminal_states)


def test_simulate_batch_accepts_integral_float_start():
    spec = q.get_spec("ds3")
    b = simulate_batch(spec, 1.0, 5, 10_000, seed=3)
    ref = simulate_batch(spec, 1, 5, 10_000, seed=3)
    assert b.start == 1 and b.terminal_states.dtype == np.int64
    assert np.array_equal(b.terminal_states, ref.terminal_states)
    # the closed domain includes its endpoints (escape points of example21)
    assert simulate_batch(q.get_spec("example21"), 1.0, 1, 100, seed=3).survivor_count == 0


@pytest.mark.parametrize("matrix,error", [
    ([[0.9, 0.9], [0.3, 0.4]], RowSumExceedsOne),
    ([[-0.1, 0.5], [0.3, 0.4]], NegativeDensity),
    ([[float("nan"), 0.5], [0.3, 0.4]], InvalidDomain),
], ids=["row_sum_1.8", "negative", "nan"])
@pytest.mark.parametrize("read", [
    build_operator,
    lambda spec: simulate_batch(spec, 0, 5, 1000),
], ids=["build_operator", "simulate_batch"])
def test_invalid_explicit_matrix_is_refused_by_every_reader(read, matrix, error):
    # refused where the spec is made, so no reader can be handed it
    with pytest.raises(error):
        KernelSpec(family="explicit_matrix", params={"matrix": matrix})
    # nor later: the spec keeps a validated copy, so writing the invalid rows
    # into the caller's list does not reach the reader
    rows = [[0.5, 0.25], [0.25, 0.5]]
    spec = KernelSpec(family="explicit_matrix", params={"matrix": rows})
    rows[:] = matrix
    read(spec)
    assert spec.matrix.tolist() == [[0.5, 0.25], [0.25, 0.5]]


@pytest.mark.parametrize("call,match", [
    (lambda: simulate_batch(q.get_spec("sym2"), 0, -1, 1000), "need n >= 0 and n_paths >= 1"),
    (lambda: simulate_batch(q.get_spec("sym2"), 0, 3, 0), "need n >= 0 and n_paths >= 1"),
    (lambda: q.estimate_birkhoff(q.get_spec("sym2"), 0, 3, None, 1000),
     "need a batch of n >= 1 steps simulated with h"),
    (lambda: q.estimate_birkhoff(q.get_spec("sym2"), 0, 0, lambda s: s, 1000),
     "need a batch of n >= 1 steps simulated with h"),
    # integers, not bools: NumPy's TypeError before
    (lambda: simulate_batch(q.get_spec("sym2"), 0, 3.0, 1000),
     r"n and n_paths must be integers, got 3\.0 and 1000"),
    (lambda: simulate_batch(q.get_spec("sym2"), 0, 3, True),
     "n and n_paths must be integers, got 3 and True"),
    (lambda: q.estimate_yaglom(q.get_spec("sym2"), 0, 3, 1000.0),
     r"n and n_paths must be integers, got 3 and 1000\.0"),
], ids=["n_negative", "no_paths", "birkhoff_without_h", "birkhoff_at_n_0", "float_n",
        "bool_n_paths", "float_n_paths"])
def test_simulate_refusals(call, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        call()


def test_explicit_matrix_is_validated_once_per_spec(tmp_path, monkeypatch):
    # the spec checks its matrix once; every reader then uses the checked copy
    matrix = q.get_spec("ds3").params["matrix"]
    calls = []
    validate = kernels._table
    monkeypatch.setattr(kernels, "_table",
                        lambda *args: calls.append(args) or validate(*args))
    spec = KernelSpec(family="explicit_matrix", params={"matrix": matrix})
    assert len(calls) == 1
    simulate_batch(spec, 1, 4, 5000, seed=2)
    build_operator(spec)
    q.estimate_yaglom(spec, 1, 4, 5000, seed=2)
    assert len(calls) == 1
    # one simulate run: one spec, one check
    calls.clear()
    assert main(["simulate", "--spec", "ds3", "--n", "4", "--n-paths", "5000",
                 "--out", str(tmp_path / "s")]) == 0
    assert len(calls) == 1
