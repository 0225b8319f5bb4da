import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from conftest import delta_at
from qsdlab.errors import (
    NeverSubunit,
    NotAperiodic,
    NotCyclic,
    NotPeriodic,
    SizeLimitExceeded,
    ValidationError,
    ZeroEigenfunctionMass,
)
from qsdlab.kernels import ESCAPE_TOL_DEFAULT, KernelSpec, build_operator
from qsdlab.measures import tv_distance


SQ3 = math.sqrt(3)


# -- quasi-stationary measure -------------------------------------------------

def test_qsd_sym2(sds):
    mu, lam = q.quasi_stationary_measure(sds["sym2"])
    assert np.allclose(mu, [0.5, 0.5], atol=1e-12)
    assert lam == pytest.approx(0.75, abs=1e-12)


def test_qsd_row_stochastic_is_stationary():
    op = build_operator(KernelSpec(family="explicit_matrix",
                                   params={"matrix": [[0.3, 0.7], [0.6, 0.4]]}))
    sd = q.peripheral_spectrum(op)
    mu, lam = q.quasi_stationary_measure(sd)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mu @ op.matrix, mu, atol=1e-12)


def test_qsd_example21_uniform_reference(sds):
    # the survival measure of the doubling kernel is the reference measure
    sd = sds["example21_201"]
    mu, lam = q.quasi_stationary_measure(sd)
    w = sd.op.grid.weights
    assert lam == pytest.approx(0.5, abs=1e-10)
    assert tv_distance(mu, w / w.sum()) < 1e-10
    assert mu[1:-1].min() > 0


def test_survival_rate_identity(sds):
    for name in ("sym2", "cycle2", "ds3", "example22_201"):
        sd = sds[name]
        mu, lam = q.quasi_stationary_measure(sd)
        assert abs(lam - float(mu @ sd.op.matrix.sum(axis=1))) <= 1e-10


# -- quasi-ergodic measure ----------------------------------------------------

def test_qed_sym2(sds):
    assert np.allclose(q.quasi_ergodic_measure(sds["sym2"]), [0.5, 0.5], atol=1e-12)


def test_qed_ds3_differs_from_qsd(sds):
    sd = sds["ds3"]
    mu, _ = q.quasi_stationary_measure(sd)
    eta = q.quasi_ergodic_measure(sd)
    assert np.allclose(eta, [0.25, 0.5, 0.25], atol=1e-12)
    assert np.allclose(mu, np.array([1, SQ3, 1]) / (2 + SQ3), atol=1e-12)
    assert tv_distance(eta, mu) > 0.03


def test_qed_vanishes_at_escape_nodes(sds):
    sd = sds["example22_201"]
    eta = q.quasi_ergodic_measure(sd)
    assert eta[0] == 0.0 and eta[-1] == 0.0
    assert eta[1:-1].min() > 0
    assert eta.sum() == pytest.approx(1.0, abs=1e-12)


# -- conditioned evolution ----------------------------------------------------

def test_yaglom_iterate_identity_at_zero(sds):
    op = sds["sym2"].op
    nu0 = np.array([1.0, 0.0])
    law = q.yaglom_iterate(op, nu0, 0)
    assert np.array_equal(law.masses, nu0)
    assert law.normalization == 1.0


def test_yaglom_sym2_converges(sds):
    op = sds["sym2"].op
    law = q.yaglom_iterate(op, np.array([1.0, 0.0]), 50)
    assert np.allclose(law.masses, [0.5, 0.5], atol=1e-12)
    # the two eigenmodes cancel in the row sum: survivor mass is exactly lam^n
    assert law.normalization == pytest.approx(0.75 ** 50, rel=1e-11)


def test_yaglom_raw_mode_matches_renormalized(sds):
    op = sds["ds3"].op
    nu0 = np.array([0.0, 1.0, 0.0])
    # the unrenormalized law nu0 A^30 carries the survivor mass
    raw = nu0 @ np.linalg.matrix_power(op.matrix, 30)
    ren = q.yaglom_iterate(op, nu0, 30)
    assert np.allclose(raw / raw.sum(), ren.masses, atol=1e-12)
    assert raw.sum() == pytest.approx(ren.normalization, rel=1e-9)


def test_conditioned_law_mass_at_escape_nodes_is_grid_small(sds):
    # the escape set here is two boundary points of reference measure zero:
    # the law charges them only through their O(h) quadrature cells, with a
    # bounded density, so the total escape mass vanishes under refinement
    sd = sds["example21_201"]
    op = sd.op
    law = q.yaglom_iterate(op, delta_at(op, 0.3), 5)
    h = op.grid.step
    dens_sup = (law.masses / op.grid.weights).max()
    escape_mass = sum(law.masses[z] for z in op.escape)
    assert escape_mass <= 1.1 * h * dens_sup


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.integers(1, 25))
def test_yaglom_law_is_probability_on_random_chains(size, seed, n):
    rng = np.random.default_rng(seed)
    a = rng.random((size, size)) + 0.05
    a = 0.9 * a / a.sum(axis=1, keepdims=True)
    op = build_operator(KernelSpec(domain=(0, size - 1), family="explicit_matrix",
                                   params={"matrix": a.tolist()}))
    nu0 = rng.random(size)
    nu0 = nu0 / nu0.sum()
    law = q.yaglom_iterate(op, nu0, n)
    assert law.masses.min() >= 0
    assert law.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.normalization == pytest.approx(
        float(nu0 @ np.linalg.matrix_power(a, n) @ np.ones(size)), rel=1e-9)


# -- rate fits ----------------------------------------------------------------

def test_fit_yaglom_sym2_log3(sds):
    fit = q.fit_yaglom_rate(sds["sym2"].op, np.array([1.0, 0.0]), sd=sds["sym2"])
    assert fit.model == "exponential"
    assert fit.fitted_rate == pytest.approx(math.log(3), rel=0.02)
    assert fit.r_squared >= 0.98
    assert fit.passed


def test_fit_yaglom_example21_log2(sds):
    sd = sds["example21_201"]
    fit = q.fit_yaglom_rate(sd.op, delta_at(sd.op, 0.3), n_max=120, sd=sd)
    alpha = q.subdominant_rate(sd)
    assert alpha == pytest.approx(math.log(2), abs=1e-9)
    assert fit.fitted_rate == pytest.approx(alpha, rel=0.10)
    assert fit.r_squared >= 0.98


def test_monotone_rate_sandwich(sds):
    # tail TV ratios hug the subdominant ratio
    for name, nu0 in (("sym2", np.array([1.0, 0.0])), ("example21_201", None)):
        sd = sds[name]
        nu0 = delta_at(sd.op, 0.3) if nu0 is None else nu0
        fit = q.fit_yaglom_rate(sd.op, nu0, sd=sd)
        ratio = sd.subdominant_radius / sd.lam
        tvs = fit.data[:, 1]
        valid = np.flatnonzero(tvs > 1e-12)
        tail = valid[len(valid) // 2:]
        measured = tvs[tail[1:]] / tvs[tail[:-1]]
        assert np.all(measured >= ratio - 0.05)
        assert np.all(measured <= ratio + 0.05)


def test_fit_refuses_periodic(sds):
    with pytest.raises(NotAperiodic):
        q.fit_yaglom_rate(sds["cycle2"].op, np.array([1.0, 0.0]), sd=sds["cycle2"])


def test_fit_refuses_escape_start(sds):
    sd = sds["example21_201"]
    nu0 = np.zeros(sd.op.size)
    nu0[0] = 1.0  # escape node: no overlap with the eigenfunction
    with pytest.raises(ZeroEigenfunctionMass):
        q.fit_yaglom_rate(sd.op, nu0, sd=sd)


@pytest.mark.parametrize("nu0", [[2.0, -0.5], [float("nan"), 1.0], [1.0, 0.0, 0.0], [1.0]],
                         ids=["signed", "nan", "too_long", "too_short"])
@pytest.mark.parametrize("fit,name", [(q.fit_yaglom_rate, "sym2"), (q.cesaro_fit, "cycle2")])
def test_fits_refuse_a_start_that_is_not_a_probability_vector(fit, name, nu0, monkeypatch):
    def no_eigensolve(op, reach=None):
        raise AssertionError("the start was checked after the eigensolve")

    monkeypatch.setattr(q.qsd, "peripheral_spectrum", no_eigensolve)
    with pytest.raises(ValueError, match="nu0 must be a probability vector on the 2 nodes"):
        fit(build_operator(q.get_spec(name)), np.array(nu0))


@pytest.mark.parametrize("n_max", [0, 2, -3, q.qsd.MIN_N_MAX - 1])
def test_fit_yaglom_short_horizon_is_validation_error(sds, n_max):
    with pytest.raises(ValidationError, match="n_max must be at least"):
        q.fit_yaglom_rate(sds["sym2"].op, np.array([1.0, 0.0]), n_max=n_max, sd=sds["sym2"])


@pytest.mark.parametrize("fit", [q.fit_yaglom_rate, q.cesaro_fit])
def test_rate_fit_horizon_over_the_orbit_budget_is_refused(sds, fit):
    # 2 nodes x 2000001 steps: one float over DENSE_SIZE_LIMIT**2, refused before the orbit
    name = "sym2" if fit is q.fit_yaglom_rate else "cycle2"
    with pytest.raises(SizeLimitExceeded, match="n_max 2000001 on 2 nodes"):
        fit(sds[name].op, np.array([1.0, 0.0]), n_max=2_000_001, sd=sds[name])


# -- cyclic structure ---------------------------------------------------------

def test_cyclic_components_cycle3(sds):
    sd = sds["cycle3"]
    part = q.cyclic_components(sd, sd.op)
    assert part.classes == ((0, 1), (2, 3), (4, 5))
    assert part.permutation == (1, 2, 0)
    assert np.allclose(part.scalings, 0.9, atol=1e-12)
    for j, cls in enumerate(part.classes):
        assert part.class_measures[j][list(cls)].sum() == pytest.approx(1.0, abs=1e-12)
        off = [i for i in range(6) if i not in cls]
        assert part.class_measures[j][off].max() == 0.0


def test_cyclic_components_cycle2(sds):
    sd = sds["cycle2"]
    part = q.cyclic_components(sd, sd.op)
    assert part.classes == ((0,), (1,))
    assert part.permutation == (1, 0)
    assert np.allclose(sorted(part.scalings), [0.4, 0.6], atol=1e-12)
    assert np.prod(part.scalings) == pytest.approx(sd.lam ** 2, abs=1e-12)


def test_cyclic_one_step_support_pattern(sds):
    sd = sds["cycle3"]
    part = q.cyclic_components(sd, sd.op)
    a = sd.op.matrix
    for i in range(3):
        src = part.classes[part.permutation.index(i)]
        into = a[:, list(part.classes[i])].sum(axis=1)
        for x in range(6):
            if x in src:
                assert into[x] > 0
            else:
                assert into[x] <= ESCAPE_TOL_DEFAULT


def test_fourier_reconstruction_identities(sds):
    # mu_j = (1/m) sum_k w^{-kj} nu_k and f_j = sum_k w^{kj} g_k, exact on the
    # uniformly scaled cycle
    sd = sds["cycle3"]
    part = q.cyclic_components(sd, sd.op)
    m = 3
    w = np.exp(2j * math.pi / m)
    for j in range(m):
        mu_rec = sum(w ** (-k * j) * part.class_measures[k] for k in range(m)) / m
        f_rec = sum(w ** (k * j) * part.generators[k] for k in range(m))
        assert np.abs(mu_rec - sd.left_eigs[j]).max() < 1e-8
        assert np.abs(f_rec - sd.right_eigs[j]).max() < 1e-8


def test_f_side_reconstruction_holds_even_for_uneven_scalings(sds):
    sd = sds["cycle2"]
    part = q.cyclic_components(sd, sd.op)
    w = -1.0
    for j in range(2):
        f_rec = part.generators[0] + w ** j * part.generators[1]
        assert np.abs(f_rec - sd.right_eigs[j]).max() < 1e-10
    # generator cycling under the function action: P g_i = lam g_{sigma^-1(i)}
    a = sd.op.matrix
    assert np.allclose(a @ part.generators[0], sd.lam * part.generators[1], atol=1e-12)
    assert np.allclose(a @ part.generators[1], sd.lam * part.generators[0], atol=1e-12)


def test_eta_j_independent_of_j(sds):
    for name in ("cycle2", "cycle3"):
        sd = sds[name]
        base = sd.right_eigs[0] * sd.left_eigs[0]
        for j in range(1, sd.period_m):
            prod = sd.right_eigs[j] * sd.left_eigs[j]
            assert np.abs(prod - base).max() < 1e-8, name


def _leaking_cyclic_chain(rng):
    """Block-cyclic chain of period 2-4, equal blocks of 1-3 states, relabelled.

    One extra state has a zero row; every state of 1..m of the classes sends
    part of its mass there.  Equal blocks keep the matrix diagonalizable, as
    the eigenvector-based oracle needs.
    """
    m, b = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    n = m * b
    a = np.zeros((n + 1, n + 1))
    for k in range(m):
        nxt = (k + 1) % m
        rows = rng.uniform(0.05, 1.0, (b, b))
        rows *= rng.uniform(0.4, 0.8, (b, 1)) / rows.sum(axis=1, keepdims=True)
        a[k * b:(k + 1) * b, nxt * b:(nxt + 1) * b] = rows
    for k in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False):
        a[k * b:(k + 1) * b, n] = rng.uniform(0.05, 0.2, b)
    perm = rng.permutation(n + 1)
    return a[np.ix_(perm, perm)], m


def test_leaking_cyclic_chains_match_the_oracle():
    # mass that a class sends into the dying state is death, not a broken
    # cycle: every chain is answered, as the oracle answers it
    rng = np.random.default_rng(2024)
    for trial in range(50):
        matrix, m = _leaking_cyclic_chain(rng)
        mu, eta, lam, m_exact = q.exact_qsd_qed(q.FiniteChain(Q=matrix))
        op = build_operator(KernelSpec(family="explicit_matrix",
                                       params={"matrix": matrix.tolist()}))
        sd = q.peripheral_spectrum(op)
        qsd, rate = q.quasi_stationary_measure(sd)
        assert sd.period_m == m_exact == m and abs(rate - lam) <= 1e-10, trial
        assert np.abs(qsd - mu).max() <= 1e-10, trial
        assert np.abs(q.quasi_ergodic_measure(sd) - eta).max() <= 1e-10, trial
        part = q.cyclic_components(sd, op)
        assert np.abs(part.class_measures.sum(axis=1) - 1).max() <= 1e-12, trial
        nu0 = np.zeros(op.size)
        nu0[part.classes[0][0]] = 1.0
        assert q.cesaro_fit(op, nu0, n_max=200, sd=sd, partition=part).passed, trial


def test_cyclic_refused_for_aperiodic(sds):
    # a usage error, as cesaro_fit's on the same chain
    with pytest.raises(NotPeriodic, match=r"^chain is aperiodic \(m = 1\)$"):
        q.cyclic_components(sds["sym2"], sds["sym2"].op)


def _skewed_left(sd):
    # twice the left Perron vector's mass on state 0: class 0 of cycle3 is no
    # longer the image of class 2, which is uniform
    left = sd.left_eigs.copy()
    left[0, 0] *= 2
    return dataclasses.replace(sd, left_eigs=left)


@pytest.mark.parametrize("call,error,match", [
    (lambda sds: q.yaglom_iterate(sds["sym2"].op, np.array([1.0, 0.0]), -1), ValueError,
     r"n must be >= 0"),
    (lambda sds: q.cyclic_components(_skewed_left(sds["cycle3"]), sds["cycle3"].op),
     NotCyclic, r"image of class 2 is not the class measure of 0"),
    (lambda sds: q.cyclic_components(dataclasses.replace(sds["cycle3"], lam=1.8),
                                     sds["cycle3"].op),
     NotCyclic, r"class scalings do not multiply to lam\*\*m"),
], ids=["yaglom_n_negative", "image_off_class", "wrong_lam"])
def test_qsd_refusals(sds, call, error, match):
    with pytest.raises(error, match=f"^{match}$"):
        call(sds)


def test_tv_distance_refuses_a_shape_mismatch():
    with pytest.raises(ValueError, match=r"^shape mismatch \(2,\) vs \(3,\)$"):
        tv_distance([0.5, 0.5], [1.0, 0.0, 0.0])


# -- Cesaro averages ----------------------------------------------------------

def test_cesaro_cycle2_closed_form(sds):
    # from delta_0 the conditioned laws alternate point masses, so the
    # Cesaro average deviates from its limit by exactly 1/(2n) at odd n
    sd = sds["cycle2"]
    fit = q.cesaro_fit(sd.op, np.array([1.0, 0.0]), n_max=200, sd=sd)
    ns, ds = fit.data[:, 0], fit.data[:, 1]
    expect = np.where(ns % 2 == 1, 1.0 / (2 * ns), 0.0)
    assert np.abs(ds - expect).max() < 1e-12
    assert (ns * ds).max() <= 0.5 + 1e-12
    assert fit.passed and fit.model == "one_over_n"


def test_cesaro_cycle3_bounded(sds):
    sd = sds["cycle3"]
    nu0 = np.zeros(6)
    nu0[0] = 1.0
    fit = q.cesaro_fit(sd.op, nu0, n_max=200, sd=sd)
    nd = fit.data[:, 0] * fit.data[:, 1]
    assert nd.max() <= 2.0
    assert fit.passed


def test_cesaro_refuses_aperiodic(sds):
    with pytest.raises(NotPeriodic):
        q.cesaro_fit(sds["sym2"].op, np.array([1.0, 0.0]), sd=sds["sym2"])


def test_cesaro_horizon_defaults_to_the_rate_fit_horizon():
    # one default horizon, that of fit_yaglom_rate and analyze: 120 steps on a
    # density family and 200 on an explicit chain
    table = KernelSpec(domain=(0, 1), family="tabulated", grid_size=2,
                       params={"values": [[0, 1], [1, 0]]})
    for spec, n_max in ((table, 120), (q.get_spec("cycle2"), 200)):
        op = build_operator(spec)
        fit = q.cesaro_fit(op, np.array([1.0, 0.0]))
        assert len(fit.data) == n_max


@pytest.mark.parametrize("n_max", [0, 1, q.qsd.MIN_N_MAX - 1])
def test_cesaro_short_horizon_is_validation_error(sds, n_max):
    with pytest.raises(ValidationError, match="n_max must be at least"):
        q.cesaro_fit(sds["cycle2"].op, np.array([1.0, 0.0]), n_max=n_max, sd=sds["cycle2"])


# -- survival mass decay ------------------------------------------------------

def test_mass_decay_sym2(sds):
    rep = q.mass_decay_check(sds["sym2"].op, n_max=40)
    assert rep.n0 == 1
    assert rep.alpha == pytest.approx(0.75, abs=1e-12)


def test_mass_decay_example22_exact_third(sds):
    rep = q.mass_decay_check(sds["example22_201"].op, n_max=30)
    assert rep.n0 == 1
    assert rep.alpha == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_mass_decay_row_stochastic_never_subunit():
    op = build_operator(KernelSpec(family="explicit_matrix",
                                   params={"matrix": [[0.3, 0.7], [0.6, 0.4]]}))
    with pytest.raises(NeverSubunit):
        q.mass_decay_check(op, n_max=30)
