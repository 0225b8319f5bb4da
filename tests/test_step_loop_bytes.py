"""The blocked step loop reproduces the plain step loop byte for byte.

``ref_simulate_batch`` keeps the straightforward loop: each step runs over
all live paths of a chunk at once, counts the inverse-CDF draw in an int64
array, and compresses the states and running sums with one boolean mask into
new arrays.  ``simulate_batch`` walks the live paths in blocks of
``BLOCK_SIZE``, counts in the smallest unsigned type and writes the survivors
back in place; both must give the same bytes for any block size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import simulate
from qsdlab.kernels import FAMILIES, KernelSpec
from qsdlab.simulate import BLOCK_SIZE, CHUNK_SIZE, _chunk_generator, check_start, simulate_batch


def ref_inverse_cdf(cdf, state, u):
    nxt = np.zeros(np.shape(u), dtype=np.int64)
    for col in cdf.T:
        nxt += u >= col[state]
    return nxt


def ref_simulate_batch(spec, x0, n, n_paths, seed=0, h=None):
    explicit = spec.is_explicit
    if explicit:
        cdf = np.cumsum(spec.matrix, axis=1)
        nstates = cdf.shape[0]
    else:
        lo, hi = spec.domain
    x0 = check_start(spec, x0)
    terminals = []
    sums = [] if h is not None else None
    tau_hist = np.zeros(n + 1, dtype=np.int64)
    n_chunks = (n_paths + CHUNK_SIZE - 1) // CHUNK_SIZE
    for c in range(n_chunks):
        k = min(CHUNK_SIZE, n_paths - c * CHUNK_SIZE)
        gen = _chunk_generator(seed, c)
        state = np.full(k, x0, dtype=np.int64 if explicit else float)
        acc = np.zeros(k) if h is not None else None
        for step in range(n):
            if state.size == 0:
                break
            if h is not None:
                acc += h(state)
            u = gen.random(state.size)
            if explicit:
                y = ref_inverse_cdf(cdf, state, u)
                live = y < nstates
            else:
                y = FAMILIES[spec.family].draw(spec, state, u)
                live = ~((y < lo) | (y > hi))
            tau_hist[step + 1] += state.size - int(np.count_nonzero(live))
            state = y[live]
            if h is not None:
                acc = acc[live]
        terminals.append(state)
        if h is not None:
            sums.append(acc)
    terminal = np.concatenate(terminals)
    return terminal.size, terminal, tau_hist, np.concatenate(sums) if sums is not None else None


def assert_same_bytes(spec, x0, n, n_paths, seed, h):
    survivors, terminal, tau, sums = ref_simulate_batch(spec, x0, n, n_paths, seed=seed, h=h)
    b = simulate_batch(spec, x0, n, n_paths, seed=seed, h=h)
    assert b.survivor_count == survivors
    assert b.terminal_states.dtype == terminal.dtype
    assert b.terminal_states.tobytes() == terminal.tobytes()
    assert b.tau_histogram.tobytes() == tau.tobytes()
    if h is None:
        assert b.running_sums is None
    else:
        assert b.running_sums.dtype == sums.dtype
        assert b.running_sums.tobytes() == sums.tobytes()


# (system, start, horizon): one per continuous family
CONTINUOUS = [("example21", 0.3, 6), ("example22cubic", 0.3, 4), ("example23gauss", 0.0, 5)]


@pytest.mark.parametrize("block", [BLOCK_SIZE, 1000, 4099])
@pytest.mark.parametrize("size", ["1", "block-1", "block+1", "two chunks"])
@pytest.mark.parametrize("system", CONTINUOUS, ids=[s for s, _, _ in CONTINUOUS])
def test_continuous_families_match_plain_loop(system, size, block, monkeypatch):
    name, x0, n = system
    monkeypatch.setattr(simulate, "BLOCK_SIZE", block)
    n_paths = {"1": 1, "block-1": block - 1, "block+1": block + 1,
               "two chunks": CHUNK_SIZE + 12_345}[size]
    spec = q.get_spec(name)
    for h in (None, lambda y: y * y):
        assert_same_bytes(spec, x0, n, n_paths, 11, h)


# a row entry: zero, dust (down to the smallest subnormal) or an ordinary weight
_ENTRY = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-17]),
                   st.floats(0.01, 1.0))


@st.composite
def explicit_chains(draw):
    size = draw(st.integers(1, 8))
    rows = []
    for _ in range(size):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([0.0] * size)
            continue
        row = np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size)))
        total = row.sum()
        if total > 1.0:
            row = row / total * draw(st.sampled_from([1.0, 0.999, 0.5]))
        rows.append(row.tolist())
    return KernelSpec(domain=(0, max(size - 1, 1)), family="explicit_matrix",
                      params={"matrix": rows})


@settings(max_examples=60, deadline=None)
@given(spec=explicit_chains(), data=st.data(),
       block=st.sampled_from([BLOCK_SIZE, 1000, 4099]))
def test_explicit_chains_match_plain_loop(spec, data, block):
    size = len(spec.params["matrix"])
    x0 = data.draw(st.integers(0, size - 1))
    n = data.draw(st.integers(0, 8))
    n_paths = data.draw(st.sampled_from([1, block - 1, block + 1, 3 * block + 7]))
    k = data.draw(st.integers(0, size - 1))
    h = data.draw(st.sampled_from([None, lambda s: (s == k).astype(float),
                                   lambda s: np.sqrt(s + 0.5)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK_SIZE", block)
        assert_same_bytes(spec, x0, n, n_paths, 5, h)


def test_wide_chain_draws_by_binary_search():
    # 300 states: the CDF gathers of a block are ceil(log2(301)) = 9 rounds of a
    # binary search, not one per column; without h the only float64 gathers are
    # those of the CDF (the survivors' states are gathered as uint16)
    rng = np.random.default_rng(300)
    matrix = rng.dirichlet(np.ones(300), size=300) * 0.99
    spec = KernelSpec(domain=(0, 299), family="explicit_matrix", params={"matrix": matrix})
    take, gen = np.take, simulate._chunk_generator
    gathers, blocks = [], []

    class Counted:
        def __init__(self, g):
            self.g = g

        def random(self, m, out=None):
            blocks.append(m)
            return self.g.random(m, out=out)

    def counted_take(a, *args, **kwargs):
        gathers.append(np.asarray(a).dtype == np.float64)
        return take(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "take", counted_take)
        mp.setattr(simulate, "_chunk_generator",
                   lambda seed, c, skip=0: Counted(gen(seed, c, skip)))
        simulate_batch(spec, 5, 6, 3 * BLOCK_SIZE + 7, seed=3)
    assert len(blocks) >= 6 and sum(gathers) <= 9 * len(blocks)
    for h in (None, lambda s: (s == 7).astype(float)):
        assert_same_bytes(spec, 5, 6, 3 * BLOCK_SIZE + 7, 3, h)


@pytest.mark.parametrize("skip", [0, 1, 2, 3, 4, 5, 7, 8, "k-1", "k", "k+1"])
@pytest.mark.parametrize("k", [12_345, CHUNK_SIZE])
def test_positioned_stream_starts_at_its_draw(k, skip):
    # the stream from draw skip on is the chunk's stream with skip draws dropped
    skip = {"k-1": k - 1, "k": k, "k+1": k + 1}.get(skip, skip)
    want = _chunk_generator(2024, 1).random(skip + 64)[skip:]
    assert _chunk_generator(2024, 1, skip).random(64).tobytes() == want.tobytes()


# a chain whose first move absorbs every path from state 0: its row is zero
_DEAD_START = KernelSpec(family="explicit_matrix",
                         params={"matrix": [[0.0, 0.0], [0.25, 0.5]]})

# (spec, start, horizon): one move only, the two fused moves only, a first
# move that keeps about 1% of the paths (example21 from 0.99: y <= 1 of
# 1.98 + U[-1, 1]) and one that keeps none
FUSED = [("example21", 0.3, 1), ("example21", 0.3, 2), ("sym2", 0, 1), ("sym2", 0, 2),
         ("ds3", 1, 2), ("example21", 0.99, 3), ("example23gauss", 0.9, 2),
         (_DEAD_START, 0, 3)]


@pytest.mark.parametrize("case", FUSED, ids=["example21-n1", "example21-n2", "sym2-n1", "sym2-n2",
                                             "ds3-n2", "example21-0.99", "gauss-n2", "dead-start"])
def test_fused_first_moves_match_plain_loop(case, monkeypatch):
    # a small block, so a chunk's first move spans hundreds of blocks and its
    # second runs one block behind; the second chunk's k = 12_345 is not a
    # multiple of Philox's four draws per counter step
    spec, x0, n = case
    spec = q.get_spec(spec) if isinstance(spec, str) else spec
    monkeypatch.setattr(simulate, "BLOCK_SIZE", 4099)
    h = (lambda s: (s == 1).astype(float)) if spec.is_explicit else (lambda y: y * y)
    for hh in (None, h):
        assert_same_bytes(spec, x0, n, CHUNK_SIZE + 12_345, 13, hh)
    if spec is _DEAD_START:
        b = simulate_batch(spec, x0, n, CHUNK_SIZE + 12_345, seed=13)
        assert b.tau_histogram[1] == CHUNK_SIZE + 12_345
