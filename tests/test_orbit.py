"""Bitwise equivalence of the forward-orbit code with per-step loops.

The reference functions below are the hand-written power loops that
``spectral._orbit`` replaced, kept verbatim so every output derived from
powers of A can be checked bit for bit against them: the conditioned laws
and their survivor masses, both rate-fit curves and the survivor-mass
sups.
"""

import math

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
        nu = nu @ op.matrix
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
        nu = nu @ op.matrix
        nu = nu / nu.sum()
        tvs[k] = tv_distance(nu, mu)
    return np.column_stack([np.arange(1, n_max + 1), tvs])


def ref_cesaro_ds(op, nu0, n_max, target):
    nu = np.asarray(nu0, dtype=float)
    running = np.zeros_like(nu)
    ds = np.empty(n_max)
    for k in range(1, n_max + 1):
        nu = nu @ op.matrix
        nu = nu / nu.sum()
        running += nu
        ds[k - 1] = tv_distance(running / k, target)
    return np.column_stack([np.arange(1, n_max + 1), ds])


def ref_sup_masses(op, n_max=60):
    sups = np.empty(n_max)
    v = np.ones(op.size)
    for k in range(n_max):
        v = op.matrix @ v
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
    if decay is NeverSubunit:
        assert (ref >= 1 - 1e-12).all()
    else:
        assert _same(decay.sup_masses, ref)


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
