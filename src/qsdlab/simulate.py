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
by every chunk, and one block of the start point, which the first move reads
in place of a chunk of start states.  Explicit chains hold a state as its
inverse-CDF count, in the smallest unsigned type that holds the state count
(one byte up to 255 states), and find it by binary search over the row's
CDF; the test function and ``terminal_states`` still see int64 states.  Each
move walks the live paths in blocks of ``BLOCK_SIZE``, small enough that a
block's temporaries stay in cache, and every temporary but the survivors'
index is a view of a fixed block-sized buffer.  For each block it adds the
test function to the running sums, draws one variate per path, moves the
paths (the density families in place in the draw buffer), and gathers the
survivors' states and sums into the buffers at a cursor that never passes
the block's start.  The absorbed paths of the move go into the
absorption-time histogram.  A move therefore costs in proportion to the
paths still alive, and the draws a path receives do not depend on the block
size.

The first two moves of a chunk run fused, block by block, so the chunk
buffers only ever hold the second move's survivors.  The second move's draws
start at a position known before the first move runs, draw k of the chunk's
stream for a chunk of k paths, so a second generator on the same key,
advanced to draw k, makes them; later moves continue on it, which then
stands where the serial loop's third move starts.  One worker thread makes
each block's draws one block ahead (NumPy's fill releases the GIL), with at
most one fill in flight per stream, and each stream sees the calls of the
serial loop in order, so every byte is the serial loop's.  The chunk loop
yields each chunk's survivors.  ``_estimates``, which the ``simulate``
command and the two estimators run, bins each chunk's states as the chunk
ends, so no terminal state is kept, and joins only the running sums of a
test function; ``simulate_batch`` joins the states and sums into one batch.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidDomain, NotApplicable, TooFewSurvivors, ValidationError
from .kernels import FAMILIES, _quadrature_grid
from .spectral import check_floats

CHUNK_SIZE = 1 << 20  # fixed: changing it changes the stream layout
BLOCK_SIZE = 1 << 16  # live paths per block of the step loop; not part of the stream layout


def _chunk_generator(seed, chunk_index, skip=0):
    """The chunk's stream of draws, from draw ``skip`` on.

    Philox makes four draws per counter step, so the counter is advanced by
    ``skip // 4`` and the remaining ``skip % 4`` draws are made and dropped.
    """
    bits = np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))
    bits.advance(skip // 4)
    gen = np.random.Generator(bits)
    gen.random(skip % 4)
    return gen


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
    matrix's row CDFs.  Every other family takes its record's ``draw``, in
    place in u, and lives while ``lo <= y <= hi``, which also absorbs NaN; a
    family without one cannot be simulated: NotApplicable.
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
    family = FAMILIES[spec.family]
    if family.draw is None:
        raise NotApplicable(f"cannot simulate family {spec.family!r}")
    lo, hi = spec.domain
    below = np.empty(BLOCK_SIZE, dtype=bool)
    centers = np.empty(BLOCK_SIZE) if family.centers is not None else None

    def move(s, u):
        k = s.size
        y = family.draw(spec, s, u, None if centers is None else centers[:k])
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


class _Workspace:
    """One batch's buffers and draw-ahead worker, reused by every chunk.

    ``state`` and ``acc`` (None without h) are chunk-sized; the rest are
    block-sized: ``start``; ``draws``, two rows (three from n = 2 on: the
    fused moves keep one more fill in flight); ``staged``, two rows of the
    first move's survivors (from n = 2 on); ``wide``, an explicit chain's
    states as int64 for h; ``sums``, a block's running sums.  Every
    per-block array is a view of one of these, or of the buffers of
    ``move``; only the survivors' index from ``np.flatnonzero`` is made per
    block: NumPy has no nonzero into a given buffer.  Draws are made on the
    executor ``ahead`` (one worker thread).
    """

    def __init__(self, spec, mover, x0, n, n_paths, h, ahead):
        dtype, self.move = mover
        self.h, self.ahead = h, ahead
        self.state = np.empty(min(CHUNK_SIZE, n_paths), dtype=dtype)
        self.acc = np.empty(self.state.size) if h is not None else None
        size = min(BLOCK_SIZE, self.state.size)
        self.start = np.full(size, x0, dtype=dtype)
        self.draws = np.empty((3 if n >= 2 else 2, size))
        self.staged = np.empty((2, size), dtype=dtype) if n >= 2 else None
        self.wide = np.empty(size, dtype=np.int64) if h is not None and spec.is_explicit else None
        self.sums = np.empty(size) if h is not None else None
        self.first = None   # every path's sum after the first move: 0.0 + h(x0)
        if h is not None and n >= 2:
            self._add_h(self.start, 0.0)
            self.first = self.sums[:1].copy()

    def chunk(self, seed, c, k, n, tau_hist):
        """Step the k paths of chunk c n times; return the survivor count m.

        The survivors end in ``state[:m]`` and their running sums in
        ``acc[:m]``, in path order.  From n = 2 on, moves 0 and 1 run fused
        on two streams of the chunk's draws: A from draw 0 and B from draw
        k, where the serial loop's move 1 starts.  B then stands at k + L1
        (L1 the survivors of move 0), where move 2's draws start, and steps
        2..n-1 run on it.
        """
        if n == 0:   # no step: every path is still at its start
            self.state[:k] = self.start[0]
            if self.acc is not None:
                self.acc[:k] = 0.0
            return k
        gen = _chunk_generator(seed, c)
        if n == 1:
            return self._steps(gen, k, range(1), tau_hist)
        gen_b = _chunk_generator(seed, c, k)
        return self._steps(gen_b, self._first_two(gen, gen_b, k, tau_hist), range(2, n), tau_hist)

    def _add_h(self, s, base):
        """Write ``base + h(s)`` into ``sums``; h sees an explicit chain's states as int64."""
        if self.wide is not None:
            np.copyto(self.wide[:s.size], s)
            s = self.wide[:s.size]
        np.add(base, self.h(s), out=self.sums[:s.size])

    def _block(self, s, u, base, w):
        """Move the states s with the draws u; gather the survivors at the cursor w.

        With h the running sums ``base + h(s)`` are gathered with them.
        Returns the cursor past the survivors.  ``move`` writes into its own
        buffers, or into u, so s may overlap where the survivors go.
        """
        if self.h is not None:
            self._add_h(s, base)
        y, live = self.move(s, u)
        keep = np.flatnonzero(live)
        np.take(y, keep, out=self.state[w:w + keep.size], mode="clip")
        if self.h is not None:
            np.take(self.sums, keep, out=self.acc[w:w + keep.size], mode="clip")
        return w + keep.size

    def _steps(self, gen, m, steps, tau_hist):
        """Run ``steps`` on the m live paths, drawing from gen; return the survivor count.

        Step 0 reads each block's states from ``start`` and adds h to zero
        sums; a later step reads ``state[a:b]`` and ``acc[a:b]``.  The cursor
        never passes the start ``a`` of the block being read, so no unread
        state is overwritten.  Block i+1's draws are requested once block i's
        are taken, into the row block i-1 used, and made while block i moves,
        so the generator sees the serial loop's calls, ``gen.random(b - a)``
        per block in order, one at a time.  A step's first block is requested
        when the step starts, once the previous step's survivor count is known.
        """
        size, draws = self.start.size, self.draws
        for step in steps:
            if m == 0:
                break
            w = 0
            c = min(m, size)
            pending = self.ahead.submit(gen.random, c, out=draws[0, :c])
            for i, a in enumerate(range(0, m, size)):
                b = min(a + size, m)
                u = pending.result()
                if b < m:
                    c = min(size, m - b)
                    pending = self.ahead.submit(gen.random, c, out=draws[(i + 1) % 2, :c])
                s = self.state[a:b] if step else self.start[:b - a]
                base = self.acc[a:b] if step and self.h is not None else 0.0
                w = self._block(s, u, base, w)
            tau_hist[step + 1] += m - w
            m = w
        return m

    def _first_two(self, gen_a, gen_b, k, tau_hist):
        """Moves 0 and 1 of the chunk's k paths, block by block; return move 1's survivors.

        Block i moves from ``start`` with stream A's draws (in draws row
        i % 3) and gathers its L survivors into ``staged`` row i % 2; then
        stream B's next L draws are requested into the same draws row, and
        block i-1's move 1 runs, from its staged row with its B draws, its
        survivors gathered into ``state``/``acc`` at the cursor.  Block i's
        move 1 thus runs one block later, while its B draws are made; A's
        draws for block i+1 are requested before block i moves, so each
        stream has one fill in flight, the worker makes them one at a time,
        and each stream sees its serial calls in order.  The sums are
        ``first + h(y)``: every path's sum after move 0 is ``0.0 + h(x0)``.
        """
        size, draws, staged = self.start.size, self.draws, self.staged
        w, lag = 0, None   # lag: (staged survivors, B fill) of the block whose move 1 is due
        c = min(k, size)
        pending = self.ahead.submit(gen_a.random, c, out=draws[0, :c])
        for i, a in enumerate(range(0, k, size)):
            b = min(a + size, k)
            u = pending.result()
            if b < k:
                c = min(size, k - b)
                pending = self.ahead.submit(gen_a.random, c, out=draws[(i + 1) % 3, :c])
            y, live = self.move(self.start[:b - a], u)
            keep = np.flatnonzero(live)
            L = keep.size
            np.take(y, keep, out=staged[i % 2, :L], mode="clip")
            tau_hist[1] += b - a - L
            due = (staged[i % 2, :L], self.ahead.submit(gen_b.random, L, out=draws[i % 3, :L])
                   ) if L else None
            if lag is not None:
                w = self._second(lag, w, tau_hist)
            lag = due
        if lag is not None:
            w = self._second(lag, w, tau_hist)
        return w

    def _second(self, lag, w, tau_hist):
        """Move 1 of one block's staged survivors; return the cursor past its survivors."""
        s, pending = lag
        m = self._block(s, pending.result(), self.first, w)
        tau_hist[2] += s.size - (m - w)
        return m


def _chunk_survivors(spec, mover, x0, n, n_paths, seed, h, tau_hist):
    """Run the chunk loop; yield each chunk's survivors as ``(states, sums)``.

    The arrays are views of the batch's buffers, valid until the next chunk:
    the states in the type of ``mover = _mover(spec)``, the running sums of h
    (None without h).  Absorptions are added to ``tau_hist``.  The arguments
    must already be checked (``_check_run``).  A point past the float range
    is drawn as +-inf, silently, and absorbed; a running sum past it is +-inf.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as ahead:
        ws = _Workspace(spec, mover, x0, n, n_paths, h, ahead)
        for c in range(-(-n_paths // CHUNK_SIZE)):
            with np.errstate(over="ignore", invalid="ignore"):   # ~3 us: per chunk, not block
                m = ws.chunk(seed, c, min(CHUNK_SIZE, n_paths - c * CHUNK_SIZE), n, tau_hist)
            yield ws.state[:m], None if h is None else ws.acc[:m]


def _check_run(spec, x0, n, n_paths, seed):
    """The checked ``(seed, _mover(spec), x0)`` of a run of n_paths paths of n steps.

    Raises ValueError unless n >= 0 and n_paths >= 1 are integers (not
    bools), SizeLimitExceeded for more absorption-time counts than the float
    budget, then ValidationError (seed), NotApplicable (a family with no
    draw) or InvalidDomain (start).
    """
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (n, n_paths)):
        raise ValueError(f"n and n_paths must be integers, got {n!r} and {n_paths!r}")
    if n < 0 or n_paths < 1:
        raise ValueError("need n >= 0 and n_paths >= 1")
    check_floats(n + 1, f"n {n} needs {n + 1} absorption-time counts")
    return check_seed(seed), _mover(spec), check_start(spec, x0)   # checked in this order


def simulate_batch(spec, x0, n, n_paths, seed=0, h=None):
    """Run n_paths rejection trajectories of length n from x0.

    ``h`` is an optional test function whose running sum over steps 0..n-1 is
    accumulated per path.  It must act elementwise on an array of states /
    points, since it is called on one block of live paths at a time; it sees
    int64 states on an explicit chain and float points otherwise, the dtypes
    of ``terminal_states``, whatever type the step loop holds the states in.
    The arguments are refused before any draw as ``_check_run`` says.
    """
    seed, mover, x0 = _check_run(spec, x0, n, n_paths, seed)

    tau_hist = np.zeros(n + 1, dtype=np.int64)
    state_parts, sum_parts = [], []
    for states, sums in _chunk_survivors(spec, mover, x0, n, n_paths, seed, h, tau_hist):
        state_parts.append(states.copy())
        if h is not None:
            sum_parts.append(sums.copy())
    del states, sums   # the buffers go before the survivors are joined

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


def _bin_counts(states, edges, counts):
    """Add the histogram of ``states`` over ``edges`` to the integer ``counts``, block by block.

    The counts are np.histogram's for states within ``[edges[0], edges[-1]]``,
    as the survivors are (the closed domain, or an explicit chain's states
    0..n-1): a state falls in the cell of the last inner edge at or below it.
    """
    inner = edges[1:-1]
    for a in range(0, states.size, BLOCK_SIZE):   # one block's cells alive at a time
        counts += np.bincount(np.searchsorted(inner, states[a:a + BLOCK_SIZE], side="right"),
                              minlength=counts.size)


def _survivors(ns, n_paths, n):
    """``ns``, unless it is below 100: TooFewSurvivors."""
    if ns < 100:
        raise TooFewSurvivors(f"{ns} survivors out of {n_paths} paths at n={n}")
    return ns


def _yaglom(counts, ns):
    """The Yaglom estimate of ns survivors from their float cell counts."""
    hist = counts / counts.sum()
    return ConditionedEstimate(value=hist,
                               stderr=1.0 / math.sqrt(ns), effective_samples=ns)


def _birkhoff(vals, ns):
    """The mean of the ns per-path averages ``vals``, and its standard error; overwrites vals.

    Raises InvalidDomain when a value is not finite: a running sum of h
    passed the float range.
    """
    top = max(vals.max(), -vals.min())
    if not math.isfinite(top):
        raise InvalidDomain("the running sums of h are not finite")
    # scaled by a power of two, which is exact, so std's squares do not overflow
    e = math.frexp(top)[1]
    np.ldexp(vals, -e, out=vals)
    # np.mean and np.std(ddof=1), step for step, with the deviations in place
    mean = np.add.reduce(vals, keepdims=True) / ns
    np.square(np.subtract(vals, mean, out=vals), out=vals)
    sd = float(np.ldexp(np.sqrt(np.add.reduce(vals) / (ns - 1)), e))
    return ConditionedEstimate(value=float(np.ldexp(mean[0], e)),
                               stderr=sd / math.sqrt(ns), effective_samples=ns)


def _estimates(spec, mover, x0, n, n_paths, seed, h=None, grid=None):
    """The Yaglom estimate of one batch on ``grid``, and its Birkhoff estimate of h or None.

    For arguments checked as ``_check_run`` checks them and ``mover =
    _mover(spec)``, the bytes of the estimates of ``simulate_batch(spec, x0,
    n, n_paths, seed, h)``, without the batch: each chunk's survivors are
    binned into exact integer counts on the cells of ``grid`` (the spec's own
    grid by default, so the histogram is comparable in TV with the
    discretized eigenmeasure) as the chunk ends, so no state is kept.  With h (and n >= 1) the running
    sums are copied and joined, as ``simulate_batch`` joins them, and averaged
    in place.  A grid whose cells do not cover the domain is refused before
    any draw (InvalidDomain); fewer than 100 survivors raise TooFewSurvivors.
    """
    edges = (_quadrature_grid(spec) if grid is None else grid).cell_edges()
    lo, hi = spec.domain
    if not edges[0] <= lo <= hi <= edges[-1]:
        raise InvalidDomain(f"the grid's cells do not cover the domain [{lo}, {hi}]")
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    tau_hist = np.zeros(n + 1, dtype=np.int64)
    parts = []
    for states, sums in _chunk_survivors(spec, mover, x0, n, n_paths, seed, h, tau_hist):
        _bin_counts(states, edges, counts)
        if h is not None:
            parts.append(sums.copy())
    del states, sums   # the buffers go before the sums are joined
    ns = _survivors(int(counts.sum()), n_paths, n)
    yaglom = _yaglom(counts.astype(float), ns)
    if h is None:
        return yaglom, None
    sums = np.concatenate(parts)
    del parts
    return yaglom, _birkhoff(np.divide(sums, n, out=sums), ns)


def estimate_yaglom(spec, x0, n, n_paths, seed=0, lam_hint=None, grid=None):
    """Histogram of the chain at time n over the surviving paths of one batch.

    The survivors are binned to the cells of ``grid``, by default the spec's
    own grid, which must cover the domain (``_estimates``).  Warns when
    ``lam_hint`` leaves fewer than 1000 expected survivors; raises
    TooFewSurvivors below 100.
    """
    check_budget(n, n_paths, lam_hint)
    seed, mover, x0 = _check_run(spec, x0, n, n_paths, seed)
    return _estimates(spec, mover, x0, n, n_paths, seed, grid=grid)[0]


def estimate_birkhoff(spec, x0, n, h, n_paths, seed=0, lam_hint=None):
    """Mean over the surviving paths of one batch of (1/n) sum h(X_i), i < n.

    ``h`` acts as in ``simulate_batch``, and n >= 1.  The estimator is
    unbiased for the exact finite-horizon conditional expectation; its
    distance to the quasi-ergodic integral of h shrinks like 1/n.  Warns when
    ``lam_hint`` leaves fewer than 1000 expected survivors; raises
    TooFewSurvivors below 100.
    """
    check_budget(n, n_paths, lam_hint)
    seed, mover, x0 = _check_run(spec, x0, n, n_paths, seed)
    if n < 1 or h is None:
        raise ValueError("need a batch of n >= 1 steps simulated with h")
    return _estimates(spec, mover, x0, n, n_paths, seed, h)[1]
