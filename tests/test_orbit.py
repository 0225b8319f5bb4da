"""Bitwise equivalence of the forward-orbit code with per-step loops.

The reference functions below are the hand-written power loops that
``spectral._orbit`` replaced, each step one action of the operator
(``op.left`` on measures, ``op.right`` on functions), so every output
derived from powers of A can be checked bit for bit against them: the
conditioned laws and their survivor masses, both rate-fit curves and the
survivor-mass sups.  The orbit reduces its iterates a block at a time, so
the same checks run with blocks of a few rows, and a rate fit over a long
horizon holds no more than its block.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab.errors import MassExtinct, NeverSubunit, QsdlabError
from qsdlab.kernels import KernelSpec, build_operator
from qsdlab.measures import tv_distance


# -- reference loops -----------------------------------------------------------

def ref_yaglom_iterate(op, nu0, n):
    nu = np.asarray(nu0, dtype=float)
    log_mass = 0.0
    for _ in range(n):
        nu = op.left(nu)
        mass = nu.sum()
        if mass <= 0:
            raise MassExtinct("survivor mass vanished")
        log_mass += math.log(mass)
        nu = nu / mass
    normalization = math.exp(log_mass) if n > 0 else 1.0
    return nu, float(normalization)


def ref_yaglom_tvs(op, nu0, n_max, mu):
    nu = np.asarray(nu0, dtype=float)
    tvs = np.empty(n_max)
    for k in range(n_max):
        nu = op.left(nu)
        nu = nu / nu.sum()
        tvs[k] = tv_distance(nu, mu)
    return np.column_stack([np.arange(1, n_max + 1), tvs])


def ref_cesaro_ds(op, nu0, n_max, target):
    nu = np.asarray(nu0, dtype=float)
    running = np.zeros_like(nu)
    ds = np.empty(n_max)
    for k in range(1, n_max + 1):
        nu = op.left(nu)
        nu = nu / nu.sum()
        running += nu
        ds[k - 1] = tv_distance(running / k, target)
    return np.column_stack([np.arange(1, n_max + 1), ds])


def ref_sup_masses(op, n_max=60):
    sups = np.empty(n_max)
    v = np.ones(op.size)
    for k in range(n_max):
        v = op.right(v)
        sups[k] = v.max()
    return sups


# -- comparison ----------------------------------------------------------------

def _outcome(fn, *args, **kw):
    """Return value, or the exception class when fn raises a package error."""
    try:
        return fn(*args, **kw)
    except (QsdlabError, ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    return a == b or (a != a and b != b)


def _start(op):
    keep = op.nonescape_indices()
    nu0 = np.zeros(op.size)
    nu0[keep[len(keep) // 4]] = 1.0
    return nu0


def check_loops(op, nu0, n=40):
    """Orbit-based outputs that need no spectrum, against the references."""
    law = _outcome(q.yaglom_iterate, op, nu0, n)
    if not isinstance(law, type):
        law = (law.masses, law.normalization)
    assert _same(law, _outcome(ref_yaglom_iterate, op, nu0, n))
    decay = _outcome(q.mass_decay_check, op, n_max=60)
    ref = ref_sup_masses(op, 60)
    below = np.flatnonzero(ref < 1 - 1e-12)
    if decay is NeverSubunit:
        assert below.size == 0
    else:
        assert decay.n0 == below[0] + 1
        assert _same(decay.sup_masses, ref[:decay.n0])


def check_spectral_loops(sd, nu0):
    """Rate-fit curves against the references."""
    op = sd.op
    if sd.period_m == 1:
        fit = _outcome(q.fit_yaglom_rate, op, nu0, n_max=120, sd=sd)
        if not isinstance(fit, type):
            mu, _ = q.quasi_stationary_measure(sd)
            assert _same(fit.data, ref_yaglom_tvs(op, nu0, 120, mu))
    else:
        part = _outcome(q.cyclic_components, sd, op)
        if not isinstance(part, type):
            fit = _outcome(q.cesaro_fit, op, nu0, n_max=120, sd=sd, partition=part)
            if not isinstance(fit, type):
                target = part.cyclic_mean_measure()
                assert _same(fit.data, ref_cesaro_ds(op, nu0, 120, target))


SESSION_OPS = ["sym2", "cycle2", "cycle3", "ds3",
               "example21_201", "example22_201", "example23_101"]


@pytest.mark.parametrize("name", SESSION_OPS)
def test_orbit_in_small_blocks_matches_loops(sds, monkeypatch, name):
    # blocks of 3 rows: every reducer, the Cesaro running sum among them,
    # carries its state across many blocks
    sd = sds[name]
    monkeypatch.setattr(q.spectral, "_ORBIT_BLOCK", 3 * sd.op.size)
    nu0 = _start(sd.op)
    check_loops(sd.op, nu0)
    check_spectral_loops(sd, nu0)


@pytest.mark.parametrize("name", SESSION_OPS)
def test_orbit_matches_loops_on_bundled(sds, name):
    sd = sds[name]
    nu0 = _start(sd.op)
    check_loops(sd.op, nu0)
    rng = np.random.default_rng(len(name))
    spread = rng.random(sd.op.size)
    check_loops(sd.op, spread / spread.sum(), n=75)
    check_spectral_loops(sd, nu0)


def test_vanishing_mass_is_mass_extinct():
    # nilpotent chain: the survivor mass is exactly zero after two steps
    op = build_operator(KernelSpec(domain=(0.0, 2.0), family="explicit_matrix",
                                   params={"matrix": [[0, 0.5, 0], [0, 0, 0.5], [0, 0, 0]]}))
    nu0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(MassExtinct):
        ref_yaglom_iterate(op, nu0, 5)
    with pytest.raises(MassExtinct):
        q.yaglom_iterate(op, nu0, 5)


@st.composite
def substochastic_chains(draw):
    size = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    period = draw(st.sampled_from([1, 1, 2, 3]))
    density = draw(st.sampled_from([1.0, 0.6, 0.3]))
    a = rng.random((size, size)) * (rng.random((size, size)) < density)
    if period > 1:
        cls = np.arange(size) % period
        a *= (cls[None, :] == (cls[:, None] + 1) % period)
    rows = a.sum(axis=1, keepdims=True)
    mass = rng.uniform(0.3, 1.0, size=(size, 1))
    a = np.divide(a * mass, rows, out=np.zeros_like(a), where=rows > 0)
    return a


@settings(max_examples=60, deadline=None)
@given(substochastic_chains())
def test_orbit_matches_loops_on_random_chains(a):
    size = a.shape[0]
    op = build_operator(KernelSpec(domain=(0.0, float(size - 1)), family="explicit_matrix",
                                   params={"matrix": a.tolist()}))
    nu0 = np.zeros(size)
    nu0[size // 4] = 1.0
    check_loops(op, nu0)
    check_loops(op, np.full(size, 1.0 / size), n=25)
    try:
        sd = q.peripheral_spectrum(op)
    except QsdlabError:
        return
    check_spectral_loops(sd, _start(op))


# -- replayed repeats and the stop at n0 -----------------------------------------

def ref_conditioned_rows(act, nu0, n):
    """The plain loop of every step: conditioned laws as rows and their step masses."""
    nu = np.asarray(nu0, dtype=float)
    rows, masses = np.empty((n, len(nu))), np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            nu = act(nu)
            masses[k] = nu.sum()
            nu = nu / masses[k]
            rows[k] = nu
    return rows, masses


def first_repeat(rows):
    """(j, k) for the first row k whose bytes equal those of an earlier row j, or None."""
    seen = {}
    for k, row in enumerate(rows):
        j = seen.setdefault(row.tobytes(), k)
        if j < k:
            return j, k
    return None


def counted_orbit(op, nu0, n):
    """spectral._orbit of measures with the step-mass scale: its iterates, gathered by a
    reducer that copies each block, the divisors and the number of products it computed."""
    products = []

    def scale(w):
        products.append(1)
        return np.add.reduce(w)

    rows, divisors, _ = q.spectral._orbit(op.left, np.asarray(nu0, dtype=float), n,
                                          lambda block, k: block.copy(), scale)
    return rows, divisors, len(products)


def _bytes_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,size,most", [("example22cubic", 801, 12),
                                            ("example21", 1601, 56)])
def test_fit_orbit_stops_computing_at_the_first_repeat(name, size, most):
    op = build_operator(q.get_spec(name, grid_size=size))
    nu0 = _start(op)
    rows, divisors, products = counted_orbit(op, nu0, 120)
    ref_rows, ref_masses = ref_conditioned_rows(op.left, nu0, 120)
    assert _bytes_equal(rows, ref_rows) and _bytes_equal(divisors, ref_masses)
    assert products == first_repeat(ref_rows)[1] + 1 <= most


@pytest.mark.parametrize("name,size,cycle", [("example21", 551, 2), ("example23gauss", 201, None)])
def test_fit_data_on_a_replayed_orbit_matches_the_loop(name, size, cycle):
    op = build_operator(q.get_spec(name, grid_size=size))
    sd = q.peripheral_spectrum(op)
    nu0 = _start(op)
    fit = q.fit_yaglom_rate(op, nu0, n_max=120, sd=sd)
    assert _same(fit.data, ref_yaglom_tvs(op, nu0, 120, sd.mu0))
    _, _, products = counted_orbit(op, nu0, 120)
    j, k = first_repeat(ref_conditioned_rows(op.left, nu0, 120)[0])
    assert cycle in (None, k - j) and products == k + 1 < 120


@pytest.mark.parametrize("rows,products", [(2, 120), (3, None)])
def test_a_cycle_longer_than_the_block_is_computed(monkeypatch, rows, products):
    # example21 at 551 nodes repeats with period 2: a block of 2 rows no
    # longer holds the repeated row, so the orbit computes every step; one of
    # 3 rows replays from the first repeat.  The bytes are the loop's either way.
    op = build_operator(q.get_spec("example21", grid_size=551))
    monkeypatch.setattr(q.spectral, "_ORBIT_BLOCK", rows * op.size)
    nu0 = _start(op)
    got_rows, divisors, computed = counted_orbit(op, nu0, 120)
    ref_rows, ref_masses = ref_conditioned_rows(op.left, nu0, 120)
    assert _bytes_equal(got_rows, ref_rows) and _bytes_equal(divisors, ref_masses)
    assert computed == (products or first_repeat(ref_rows)[1] + 1)


def test_rate_fit_holds_one_block_of_its_orbit():
    # 2000 steps on 1601 nodes is within check_n_max's budget; the rows
    # alone would take 25.6 MB
    op = build_operator(q.get_spec("example21", grid_size=1601))
    sd = q.peripheral_spectrum(op)
    nu0 = _start(op)
    q.qsd.check_n_max(2000, op.size)
    tracemalloc.start()
    try:
        fit = q.fit_yaglom_rate(op, nu0, n_max=2000, sd=sd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert _same(fit.data, ref_yaglom_tvs(op, nu0, 2000, sd.mu0))


def test_zero_divisor_replays_nan_as_the_loop_does():
    # nilpotent chain: the mass is 0 at step 3, so rows 3.. are NaN and the
    # step masses read 0.5, 1, 0, NaN, NaN, ...: the replayed divisors start
    # after the repeated row's own divisor
    op = build_operator(KernelSpec(family="explicit_matrix",
                                   params={"matrix": [[0, 0.5, 0], [0, 0, 0.5], [0, 0, 0]]}))
    nu0 = np.array([1.0, 0.0, 0.0])
    rows, divisors, products = counted_orbit(op, nu0, 10)
    ref_rows, ref_masses = ref_conditioned_rows(op.left, nu0, 10)
    assert _bytes_equal(rows, ref_rows) and _bytes_equal(divisors, ref_masses)
    assert ref_masses[2] == 0 and np.isnan(ref_masses[3:]).all()
    assert products == 4


@pytest.fixture
def decay_orbit(monkeypatch):
    """Spy on the mass-decay orbit: products computed and rows returned, per call."""
    real, calls = q.qsd._orbit, []

    def orbit(act, v, n, reduce=None, scale=None, stop=None):
        products = []

        def counted(row):
            products.append(1)
            return stop(row)

        values, divisors, last = real(act, v, n, reduce, scale, counted)
        calls.append((len(products), len(values)))
        return values, divisors, last

    monkeypatch.setattr(q.qsd, "_orbit", orbit)
    return calls


@pytest.mark.parametrize("name", SESSION_OPS)
def test_mass_decay_computes_exactly_n0_steps(ops, decay_orbit, name):
    decay = q.mass_decay_check(ops[name], n_max=60)
    assert decay_orbit == [(decay.n0, decay.n0)] and len(decay.sup_masses) == decay.n0


def test_never_subunit_comes_at_the_full_horizon(decay_orbit):
    op = build_operator(KernelSpec(family="explicit_matrix",
                                   params={"matrix": [[0.3, 0.7], [0.6, 0.4]]}))
    with pytest.raises(NeverSubunit):
        q.mass_decay_check(op, n_max=30)
    (products, horizon), = decay_orbit
    assert horizon == 30 and products <= 30
    assert (ref_sup_masses(op, 30) >= 1 - 1e-12).all()
