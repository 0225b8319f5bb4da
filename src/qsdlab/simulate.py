"""Direct simulation of the absorbed chain, conditioned by rejection.

Paths are drawn from the kernel itself (random-map draw for the window and
Gaussian families, inverse-CDF draw for finite chains: ``_mover`` decides)
and every path that leaves the domain before the horizon is discarded;
surviving paths estimate the conditioned law and conditioned time averages
with no bias beyond the finite horizon.

Randomness is counter-based: a Philox generator keyed by (seed, chunk index)
with a fixed chunk size, so the draws of a chunk are a pure function of the
seed and the chunk index.  Results are bit-identical for a given seed no
matter how the chunks would be scheduled, and per-chunk partial sums are
reduced in chunk order.

The step loop keeps only the live paths of a chunk, in path order.  A batch
holds one state buffer and one running-sum buffer of one chunk's size, reused
by every chunk, and one block of the start point, which step 0 reads in place
of a chunk of start states.  Explicit chains hold a state as its inverse-CDF
count, in the smallest unsigned type that holds the state count (one byte up
to 255 states), and find it by binary search over the row's CDF; the test
function and ``terminal_states`` still see int64 states.  Each step walks the
live paths in blocks of ``BLOCK_SIZE``, small enough that a block's
temporaries stay in cache, and every temporary but the survivors' index is a
view of a fixed block-sized buffer.  For each block it adds the test function
to the running sums, draws one variate per path, moves the paths (the density
families in place in the draw buffer), and gathers the survivors' states and
sums into the buffers at a cursor that never passes the block's start.  The
absorbed paths of the step go into the absorption-time histogram.  A step
therefore costs in proportion to the paths still alive, and the draws a path
receives do not depend on the block size.  One worker thread makes the next
block's draws, into the other of two draw buffers, while a block moves
(NumPy's fill releases the GIL), with at most one block in flight; the
generator sees the calls of the serial loop, in the same sizes and order, so
every byte is the serial loop's.  One batch carries both the terminal states
and the running sums of a test function, so the Yaglom and Birkhoff summaries
can share one batch.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidDomain, NotApplicable, TooFewSurvivors, ValidationError
from .kernels import _map_centers, _quadrature_grid

CHUNK_SIZE = 1 << 20  # fixed: changing it changes the stream layout
BLOCK_SIZE = 1 << 16  # live paths per block of the step loop; not part of the stream layout


def _chunk_generator(seed, chunk_index):
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _noise_to_moves(spec, x, u, centers=None):
    """Map uniform draws u in [0,1) to next points from x, in place in u (window or Gaussian).

    A window family's centers go into ``centers`` when it is given.
    """
    p = spec.params
    if spec.family in ("affine_uniform", "cubic_uniform"):
        w = float(p["noise_halfwidth"])
        u *= 2.0
        u -= 1.0
        u *= w
        u += _map_centers(spec, x, out=centers)
        return u
    from scipy.special import ndtri

    sigma = float(p["sigma"])
    ndtri(u, out=u)
    u *= sigma
    u += x
    return u


def _inverse_cdf(cdf, n, state, u, out, at, vals, le, step):
    """Inverse-CDF draw into ``out``: per path, the count of its row's CDF values at or below u.

    ``cdf`` holds the cumulative row sums of the n x n matrix, row after row;
    a count of n is the final bucket, absorption.  A row's CDF never decreases,
    so the values at or below u are a prefix of the row and a binary search
    finds their count in ``n.bit_length()`` rounds of one gather each: while
    the count lies in ``[out, out + r]``, a round compares column
    ``out + ceil(r/2) - 1`` (flat index ``at + ceil(r/2) - 1``) with u and
    leaves floor(r/2) for r.  ``at``, ``vals``, ``le`` and ``step`` are scratch.
    """
    np.multiply(state, n, out=at, dtype=np.intp)
    out.fill(0)
    r = n
    while r:
        half = (r + 1) // 2
        np.take(cdf[half - 1:], at, out=vals, mode="clip")
        np.less_equal(vals, u, out=le)
        np.multiply(le, half, out=step, dtype=step.dtype)
        out += step
        at += step
        r -= half
    return out


def _mover(spec):
    """How the chain moves: the state dtype and ``move(s, u) -> (next, live)``, u in [0, 1].

    ``move`` takes at most ``BLOCK_SIZE`` paths and returns views of its own
    block-sized buffers, valid until its next call.  Explicit chains hold a
    state as its inverse-CDF count, in the smallest unsigned type that holds
    the state count (absorption included), and draw by binary search over the
    matrix's row CDFs.  The window and Gaussian families take their random
    map, in place in u, and live while ``lo <= y <= hi``, which also absorbs
    NaN.  Any other family has no draw: NotApplicable.
    """
    live = np.empty(BLOCK_SIZE, dtype=bool)
    if spec.is_explicit:
        n = spec.grid_size
        cdf = np.cumsum(spec.matrix, axis=1).ravel()
        count, step = np.empty((2, BLOCK_SIZE), dtype=np.min_scalar_type(n))
        at, vals, le = (np.empty(BLOCK_SIZE, dtype=np.intp), np.empty(BLOCK_SIZE),
                        np.empty(BLOCK_SIZE, dtype=bool))

        def move(s, u):
            k = s.size
            y = _inverse_cdf(cdf, n, s, u, count[:k], at[:k], vals[:k], le[:k], step[:k])
            return y, np.less(y, n, out=live[:k])
        return count.dtype, move
    if spec.family not in ("affine_uniform", "cubic_uniform", "gaussian_shift"):
        raise NotApplicable(f"cannot simulate family {spec.family!r}")
    lo, hi = spec.domain
    below = np.empty(BLOCK_SIZE, dtype=bool)
    centers = np.empty(BLOCK_SIZE) if spec.family != "gaussian_shift" else None

    def move(s, u):
        k = s.size
        y = _noise_to_moves(spec, s, u, None if centers is None else centers[:k])
        ok = np.less_equal(lo, y, out=live[:k])
        return y, np.logical_and(ok, np.less_equal(y, hi, out=below[:k]), out=ok)
    return np.dtype(float), move


@dataclass(frozen=True)
class TrajectoryBatch:
    """Sufficient statistics of a rejection-sampled batch of paths.

    ``tau_histogram[k]`` counts paths absorbed at step k (1-based);
    ``survivor_count`` counts paths with tau > n_steps.  Terminal states and
    running test-function sums are kept for survivors only, in path order:
    the states as int64 on an explicit chain (the step loop holds them in
    the smaller type of ``_mover``) and as floats otherwise, the sums as
    floats.  Each array is its own copy, not a view of the step loop's buffers.
    """

    n_steps: int
    start: float
    n_paths: int
    survivor_count: int
    terminal_states: np.ndarray
    running_sums: Optional[np.ndarray]
    tau_histogram: np.ndarray


@dataclass(frozen=True)
class ConditionedEstimate:
    value: object           # histogram array or scalar
    stderr: float
    effective_samples: int


def check_start(spec, x0):
    """Return the start point as a state (int on explicit chains).

    Raises InvalidDomain unless x0 is a real number (not a bool) that is an
    integer state 0..n-1 of an explicit chain, or a point of the closed domain
    of a continuous kernel.
    """
    if isinstance(x0, bool) or not isinstance(x0, numbers.Real):
        raise InvalidDomain(f"start must be a number, got {x0!r}")
    if spec.is_explicit:
        if not (0 <= x0 < spec.grid_size and float(x0).is_integer()):   # range first: no overflow
            raise InvalidDomain(f"{x0!r} is not a state 0..{spec.grid_size - 1}")
        return int(x0)
    lo, hi = spec.domain
    if not lo <= x0 <= hi:
        raise InvalidDomain(f"start {x0!r} lies outside the domain [{lo}, {hi}]")
    return float(x0)


def check_seed(seed):
    """The seed, a Philox key word: an int (not a bool) in 0..2**64-1, else ValidationError."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must be an integer in 0..2**64-1, got {seed!r}")
    return int(seed)


def _step_chunk(move, gen, k, h, n, tau_hist, ahead, start, state, acc, draws, wide, sums):
    """Step the k paths of one chunk n times; return the survivor count m.

    The survivors end in ``state[:m]`` and their running sums in ``acc[:m]``,
    in path order.  Step 0 reads each block's states from ``start``, one block
    of the start point, and adds h to zero sums; later steps read
    ``state[a:b]`` and ``acc[a:b]``.  Survivors are written at the cursor
    ``w``, which never passes the start ``a`` of the block being read, so no
    unread state is overwritten.  ``move(s, u)`` maps states and draws to the
    next states and their live mask.  An explicit chain's states are copied
    into ``wide`` for h, which sees them as int64.

    Every per-block array is a view of a fixed block-sized buffer: those of
    ``move`` and ``draws`` (two rows, used in turn), ``wide`` and ``sums``
    (the block's sums, None without h), all made once per batch.  Only the
    survivors' index from ``np.flatnonzero`` is made per block: NumPy has no
    nonzero into a given buffer.  The draws are made one block ahead on the
    executor ``ahead`` (one worker thread): block i+1's are requested once
    block i's are taken, into the row block i-1 used, and made while block i
    moves, so at most one block is in flight and the generator sees the
    serial loop's calls, ``gen.random(b - a)`` per block in order, one at a
    time.  A step's first block is requested when the step starts, once the
    previous step's survivor count is known.
    """
    if n == 0:   # no step: every path is still at its start
        state[:k] = start[0]
        if acc is not None:
            acc[:k] = 0.0
        return k
    size = start.size
    m = k
    for step in range(n):
        if m == 0:
            break
        w = 0
        c = min(m, size)
        pending = ahead.submit(gen.random, c, out=draws[0, :c])
        for i, a in enumerate(range(0, m, size)):
            b = min(a + size, m)
            u = pending.result()
            if b < m:
                c = min(size, m - b)
                pending = ahead.submit(gen.random, c, out=draws[(i + 1) % 2, :c])
            s = state[a:b] if step else start[:b - a]
            if h is not None:
                if wide is not None:
                    np.copyto(wide[:b - a], s)
                np.add(acc[a:b] if step else 0.0, h(s if wide is None else wide[:b - a]),
                       out=sums[:b - a])
            y, live = move(s, u)
            keep = np.flatnonzero(live)
            np.take(y, keep, out=state[w:w + keep.size], mode="clip")
            if h is not None:
                np.take(sums, keep, out=acc[w:w + keep.size], mode="clip")
            w += keep.size
        tau_hist[step + 1] += m - w
        m = w
    return m


def simulate_batch(spec, x0, n, n_paths, seed=0, h=None):
    """Run n_paths rejection trajectories of length n from x0.

    ``h`` is an optional test function whose running sum over steps 0..n-1 is
    accumulated per path.  It must act elementwise on an array of states /
    points, since it is called on one block of live paths at a time; it sees
    int64 states on an explicit chain and float points otherwise, the dtypes
    of ``terminal_states``, whatever type the step loop holds the states in.
    Raises InvalidDomain (start), ValidationError (seed) or NotApplicable (a
    family with no draw) before any draw.
    """
    from concurrent.futures import ThreadPoolExecutor

    if n < 0 or n_paths < 1:
        raise ValueError("need n >= 0 and n_paths >= 1")
    seed = check_seed(seed)
    dtype, move = _mover(spec)
    x0 = check_start(spec, x0)

    tau_hist = np.zeros(n + 1, dtype=np.int64)
    # one set of buffers for the batch, reused by every chunk
    state = np.empty(min(CHUNK_SIZE, n_paths), dtype=dtype)
    acc = np.empty(state.size) if h is not None else None
    start = np.full(min(BLOCK_SIZE, state.size), x0, dtype=dtype)
    draws = np.empty((2, start.size))
    wide = np.empty(start.size, dtype=np.int64) if h is not None and spec.is_explicit else None
    sums = np.empty(start.size) if h is not None else None
    state_parts, sum_parts = [], []

    n_chunks = (n_paths + CHUNK_SIZE - 1) // CHUNK_SIZE
    with ThreadPoolExecutor(max_workers=1) as ahead:
        for c in range(n_chunks):
            k = min(CHUNK_SIZE, n_paths - c * CHUNK_SIZE)
            m = _step_chunk(move, _chunk_generator(seed, c), k, h, n, tau_hist, ahead,
                            start, state, acc, draws, wide, sums)
            state_parts.append(state[:m].copy())
            if h is not None:
                sum_parts.append(acc[:m].copy())
    del state, acc, draws, wide, sums   # the buffers go before the survivors are joined

    terminal_states = np.concatenate(state_parts, dtype=np.int64 if spec.is_explicit else float)
    return TrajectoryBatch(
        n_steps=n, start=x0, n_paths=n_paths,
        survivor_count=terminal_states.size,
        terminal_states=terminal_states,
        running_sums=np.concatenate(sum_parts) if h is not None else None,
        tau_histogram=tau_hist,
    )


def budget_shortfall(n, n_paths, lam_hint):
    """The notice that fewer than 1000 paths are expected to survive n steps, else None.

    The expectation n_paths * lam_hint**n is compared in log space, so no
    lam_hint > 0 overflows it.
    """
    if lam_hint is not None:
        log_expected = math.log(n_paths) + n * math.log(lam_hint)
        if log_expected < math.log(1000):
            return (f"expected survivors {math.exp(log_expected):.1f} < 1000 at n={n}; "
                    "increase n_paths or lower n")
    return None


def check_budget(n, n_paths, lam_hint):
    """Warn, with a UserWarning, when :func:`budget_shortfall` gives a notice."""
    notice = budget_shortfall(n, n_paths, lam_hint)
    if notice is not None:
        warnings.warn(notice, stacklevel=3)


def bin_to_grid(samples, grid):
    """Histogram samples onto grid cells (edges at node midpoints)."""
    edges = grid.cell_edges()
    counts, _ = np.histogram(samples, bins=edges)
    return counts.astype(float)


def _survivors(batch):
    ns = batch.survivor_count
    if ns < 100:
        raise TooFewSurvivors(
            f"{ns} survivors out of {batch.n_paths} paths at n={batch.n_steps}")
    return ns


def summarize_yaglom(batch, spec, grid=None):
    """Histogram of the chain at time n over the surviving paths of ``batch``.

    The terminal states are binned to the cells of ``grid``, by default the
    spec's own grid, so the result is comparable (in TV) with the
    discretized eigenmeasure.  Raises TooFewSurvivors below 100 surviving
    paths.
    """
    ns = _survivors(batch)
    counts = bin_to_grid(batch.terminal_states, _quadrature_grid(spec) if grid is None else grid)
    hist = counts / counts.sum()
    return ConditionedEstimate(value=hist,
                               stderr=1.0 / math.sqrt(ns), effective_samples=ns)


def summarize_birkhoff(batch):
    """Mean over the surviving paths of ``batch`` of (1/n) sum h(X_i), i < n.

    ``batch`` must carry the running sums of h.  The estimator is unbiased for
    the exact finite-horizon conditional expectation; its distance to the
    quasi-ergodic integral of h shrinks like 1/n.  Raises TooFewSurvivors
    below 100 surviving paths.
    """
    n = batch.n_steps
    if n < 1 or batch.running_sums is None:
        raise ValueError("need a batch of n >= 1 steps simulated with h")
    ns = _survivors(batch)
    vals = batch.running_sums / n       # the one survivor-sized array
    # scaled by a power of two, which is exact, so std's squares do not overflow
    e = math.frexp(max(vals.max(), -vals.min()))[1]
    np.ldexp(vals, -e, out=vals)
    # np.mean and np.std(ddof=1), step for step, with the deviations in place
    mean = np.add.reduce(vals, keepdims=True) / ns
    np.square(np.subtract(vals, mean, out=vals), out=vals)
    sd = float(np.ldexp(np.sqrt(np.add.reduce(vals) / (ns - 1)), e))
    return ConditionedEstimate(value=float(np.ldexp(mean[0], e)),
                               stderr=sd / math.sqrt(ns), effective_samples=ns)


def estimate_yaglom(spec, x0, n, n_paths, seed=0, lam_hint=None, grid=None):
    """Simulate a batch and return its Yaglom histogram (``summarize_yaglom``)."""
    check_budget(n, n_paths, lam_hint)
    return summarize_yaglom(simulate_batch(spec, x0, n, n_paths, seed=seed), spec, grid)


def estimate_birkhoff(spec, x0, n, h, n_paths, seed=0, lam_hint=None):
    """Simulate a batch and return its Birkhoff average (``summarize_birkhoff``)."""
    check_budget(n, n_paths, lam_hint)
    return summarize_birkhoff(simulate_batch(spec, x0, n, n_paths, seed=seed, h=h))
