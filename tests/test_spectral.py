import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qsdlab as q
from conftest import perron_values
from qsdlab import spectral
from qsdlab.errors import (
    IllConditionedEigenbasis,
    NonConvergent,
    NoSpectralGapWithinTol,
    NumericalError,
    PeriodMismatch,
    Reducible,
)
from qsdlab.kernels import KernelSpec, build_operator
from qsdlab.oracle import FiniteChain, exact_qsd_qed


def explicit(matrix):
    return build_operator(KernelSpec(family="explicit_matrix",
                                     params={"matrix": matrix}))


# -- spectral_radius ----------------------------------------------------------

def test_sym2_perron_pair(sds):
    sd = sds["sym2"]
    assert sd.lam == pytest.approx(0.75, abs=1e-12)
    lam, f0, mu0 = q.spectral_radius(sds["sym2"].op)
    assert lam == pytest.approx(0.75, abs=1e-12)
    assert np.allclose(f0, [1.0, 1.0], atol=1e-12)
    assert np.allclose(mu0, [0.5, 0.5], atol=1e-12)


def test_antidiagonal_lambda():
    lam, _, _ = q.spectral_radius(explicit([[0.0, 0.6], [0.4, 0.0]]))
    assert lam == pytest.approx(math.sqrt(0.24), abs=1e-12)


def test_grid_refinement_self_consistency():
    lam401 = q.spectral_radius(build_operator(q.get_spec("example21", grid_size=401)))[0]
    lam801 = q.spectral_radius(build_operator(q.get_spec("example21", grid_size=801)))[0]
    assert abs(lam401 - lam801) <= 1e-3


def test_one_eigvals_and_no_eig_per_call(sds, monkeypatch):
    calls = []
    for name in ("eig", "eigvals"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, name=name, solve=solve: calls.append(name) or solve(a))
    q.peripheral_spectrum(sds["ds3"].op)
    assert calls == ["eigvals"]
    q.spectral_radius(sds["ds3"].op)
    assert calls == ["eigvals", "eigvals"]


def test_reducible_refused():
    with pytest.raises(Reducible):
        q.spectral_radius(explicit([[0.5, 0.0], [0.0, 0.5]]))


# -- peripheral_spectrum ------------------------------------------------------

def test_periods_of_builtin_chains(sds):
    assert sds["sym2"].period_m == 1
    assert sds["cycle2"].period_m == 2
    assert sds["cycle3"].period_m == 3
    assert sds["ds3"].period_m == 1
    assert sds["example21_201"].period_m == 1


def test_cycle2_peripheral_eigenvalues(sds):
    sd = sds["cycle2"]
    assert np.allclose(sorted(sd.eigenvalues.real), [-math.sqrt(0.24), math.sqrt(0.24)],
                       atol=1e-12)
    assert np.abs(sd.eigenvalues.imag).max() < 1e-12


def test_cycle3_peripheral_roots_of_unity(sds):
    sd = sds["cycle3"]
    expected = 0.9 * np.exp(2j * math.pi * np.arange(3) / 3)
    assert np.allclose(sd.eigenvalues, expected, atol=1e-12)
    assert sd.subdominant_radius <= 1e-12


def test_biorthogonality(sds):
    for name in ("sym2", "cycle2", "cycle3", "ds3", "example21_201"):
        sd = sds[name]
        m = sd.period_m
        gram = np.array([[sd.left_eigs[j] @ sd.right_eigs[k] for k in range(m)]
                         for j in range(m)])
        assert np.abs(gram - np.eye(m)).max() < 1e-8, name


def test_eigen_residuals(sds):
    for name, sd in sds.items():
        supf = max(np.abs(sd.right_eigs[j]).max() for j in range(sd.period_m))
        assert sd.residuals_right.max() <= 1e-9 * supf, name
        assert sd.residuals_left.max() <= 1e-9, name


def test_leading_pair_in_cone_and_support(sds):
    sd = sds["example21_201"]
    op = sd.op
    keep = op.nonescape_indices()
    assert sd.f0.min() >= 0
    assert sd.f0[keep].min() > 0
    for z in op.escape:
        assert abs(sd.f0[z]) <= 1e-12
    assert sd.mu0.min() >= 0
    assert sd.mu0.sum() == pytest.approx(1.0, abs=1e-12)


def test_conjugate_pair_storage(sds):
    sd = sds["cycle3"]
    assert np.allclose(sd.right_eigs[2], np.conj(sd.right_eigs[1]), atol=1e-12)
    assert np.allclose(sd.left_eigs[2], np.conj(sd.left_eigs[1]), atol=1e-12)
    i0 = sd.op.nonescape_indices()[0]
    z = sd.right_eigs[1][i0]
    assert z.imag == pytest.approx(0.0, abs=1e-12) and z.real > 0


def test_cyclic_pairs_twist_the_perron_pair_by_the_audit_classes(sds, monkeypatch):
    # f_j = D^j f_0 and mu_j = mu_0 D^-j with D = diag(w^class): one solve, for slot 0
    real, values = spectral._inverse_iteration, []
    monkeypatch.setattr(spectral, "_inverse_iteration",
                        lambda a, beta: values.append(complex(beta)) or real(a, beta))
    perron = perron_values(monkeypatch)
    ring = np.roll(np.eye(4), 1, axis=1) * np.array([[0.5], [0.7], [0.6], [0.9]])
    for op in (sds["cycle2"].op, sds["cycle3"].op, explicit(ring.tolist())):
        values.clear()
        perron.clear()
        sd = q.peripheral_spectrum(op)
        m = sd.period_m
        assert values == perron and len(values) == 1 and m == sd.reach.graph_period
        twist = np.exp(2j * math.pi * sd.reach.node_class / m)
        for j in range(m):
            assert np.abs(sd.right_eigs[j] - twist ** j * sd.f0).max() <= 1e-12 * sd.f0.max()
            assert np.abs(sd.left_eigs[j] - sd.mu0 / twist ** j).max() <= 1e-12


def test_near_degenerate_gap_refused():
    eps = 1e-6
    with pytest.raises(NoSpectralGapWithinTol):
        q.peripheral_spectrum(explicit([[0.5, eps], [eps, 0.5]]))


def test_loose_band_angle_check(monkeypatch):
    # widening the band on an aperiodic chain pulls in the real subdominant
    # eigenvalue: two band values for graph period 1
    monkeypatch.setattr(spectral, "PERIPHERAL_TOL_DEFAULT", 0.7)
    with pytest.raises(NoSpectralGapWithinTol, match="more than the graph period 1"):
        q.peripheral_spectrum(explicit([[0.5, 0.25], [0.25, 0.5]]))


def test_loose_band_period_mismatch(monkeypatch):
    # the band takes in -(1 - 2e) too, yet the holding makes the chain aperiodic
    e = 0.01
    monkeypatch.setattr(spectral, "PERIPHERAL_TOL_DEFAULT", 3 * e)
    with pytest.raises(NoSpectralGapWithinTol, match="more than the graph period 1"):
        q.peripheral_spectrum(explicit([[e, 1 - e], [1 - e, e]]))


def test_band_off_the_root_angles_is_a_period_mismatch(monkeypatch):
    # cycle2's -lam turned by 0.01 rad: two band values, but not on the
    # square roots of unity of graph period 2
    real = spectral._eigenvalues

    def eigenvalues(op, period):
        ev, ritz = real(op, period)
        ev = ev.astype(complex)
        ev[np.argmin(ev.real)] *= np.exp(0.01j)
        return ev, ritz

    monkeypatch.setattr(spectral, "_eigenvalues", eigenvalues)
    with pytest.raises(PeriodMismatch, match="of graph period 2"):
        q.peripheral_spectrum(q.build_operator(q.get_spec("cycle2")))


def test_perron_pair_off_the_cone_is_ill_conditioned(monkeypatch):
    monkeypatch.setattr(spectral, "_inverse_iteration",
                        lambda matrix, beta: (np.array([1.0, -1.0]), np.array([1.0, 1.0])))
    with pytest.raises(IllConditionedEigenbasis,
                       match="Perron vector leaves the cone: most negative entry -1 of its sup"):
        q.peripheral_spectrum(q.build_operator(q.get_spec("sym2")))


def test_pairs_not_biorthonormal_are_ill_conditioned(monkeypatch):
    # the second forward step finishes pair 1 of cycle2: doubling f_1 makes
    # <mu_1, f_1> = 2
    real, calls = spectral._forward_step, []

    def forward_step(op, f, mu, beta):
        calls.append(beta)
        f, mu = real(op, f, mu, beta)
        return (2 * f if len(calls) == 2 else f), mu

    monkeypatch.setattr(spectral, "_forward_step", forward_step)
    with pytest.raises(IllConditionedEigenbasis,
                       match="biorthonormality error 1 of the peripheral pairs exceeds 1e-8"):
        q.peripheral_spectrum(q.build_operator(q.get_spec("cycle2")))


def test_jordan_block_refused():
    # upper-triangular double eigenvalue: typed refusal, never a silent answer
    with pytest.raises(NumericalError):
        q.peripheral_spectrum(explicit([[0.5, 0.25], [0.0, 0.5]]))


# -- Perron pair against the exact oracle -------------------------------------

def _rows(rng, n_rows, n_cols, lo, hi, mask=None):
    """Positive random rows (zero off ``mask``) with row sums drawn from [lo, hi]."""
    a = rng.uniform(0.05, 1.0, (n_rows, n_cols))
    if mask is not None:
        a *= mask
    return a / a.sum(axis=1, keepdims=True) * rng.uniform(lo, hi, (n_rows, 1))


def _weakly_coupled(rng, na, nb, gap):
    """Two dense blocks with equal Perron roots, coupled so sub/lam is near 1 - gap."""
    eps = gap / 2
    rho = rng.uniform(0.5, 0.8)
    a, b = (_rows(rng, k, k, 0.8, 0.95) for k in (na, nb))
    a *= rho / np.abs(np.linalg.eigvals(a)).max()
    b *= rho / np.abs(np.linalg.eigvals(b)).max()
    qm = np.zeros((na + nb, na + nb))
    qm[:na, :na] = (1 - eps) * a
    qm[:na, na:] = eps * a.sum(axis=1)[:, None] * rng.dirichlet(np.ones(nb))[None, :]
    qm[na:, na:] = (1 - eps) * b
    qm[na:, :na] = eps * b.sum(axis=1)[:, None] * rng.dirichlet(np.ones(na))[None, :]
    return qm


@st.composite
def irreducible_chains(draw):
    """Irreducible aperiodic substochastic chains of 2-50 states.

    dense: every entry positive; sparse: a random Hamiltonian cycle, the
    diagonal and random extra edges; weak: two blocks of 1-25 states whose
    coupling sets sub/lam near 1 - gap, gap log-uniform in [1e-4, 1e-1].
    """
    kind = draw(st.sampled_from(["dense", "sparse", "weak"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "weak":
        gap = 10 ** draw(st.floats(-4, -1))
        return _weakly_coupled(rng, draw(st.integers(1, 25)), draw(st.integers(1, 25)), gap)
    n = draw(st.integers(2, 50))
    if kind == "dense":
        return _rows(rng, n, n, 0.1, 1.0)
    mask = rng.random((n, n)) < draw(st.floats(0.02, 0.5))
    cycle = rng.permutation(n)
    mask[cycle, np.roll(cycle, 1)] = True
    mask[np.arange(n), np.arange(n)] = True
    return _rows(rng, n, n, 0.1, 1.0, mask)


def assert_matches_oracle(a, exact):
    mu, eta, lam, m = exact
    sd = q.peripheral_spectrum(explicit(a.tolist()))
    mu_s, lam_s = q.quasi_stationary_measure(sd)
    assert sd.period_m == m
    assert abs(lam_s - lam) <= 1e-9
    assert np.abs(mu_s - mu).max() <= 1e-9
    assert np.abs(q.quasi_ergodic_measure(sd) - eta).max() <= 1e-9


def test_weakly_coupled_repro_matches_oracle():
    # sub/lam = 0.967: a 3% gap, far outside the 1e-4 gap floor, where a
    # 200-step power iteration still misses lam by 1.1e-6
    a = np.array([[0.6, 0.01], [0.01, 0.598]])
    sd = q.peripheral_spectrum(explicit(a.tolist()))
    assert sd.subdominant_radius / sd.lam == pytest.approx(0.967, abs=1e-3)
    assert_matches_oracle(a, exact_qsd_qed(FiniteChain(Q=a)))


@settings(max_examples=60, deadline=None)
@given(irreducible_chains())
def test_random_chains_match_oracle(a):
    mods = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    assume(mods[1] < (1 - spectral.GAP_FLOOR_DEFAULT) * mods[0])
    try:
        exact = exact_qsd_qed(FiniteChain(Q=a))
    except IllConditionedEigenbasis:
        assume(False)
    assert_matches_oracle(a, exact)


def test_bundled_systems_need_no_power_iteration(ops, monkeypatch):
    def no_power(*args, **kwargs):
        raise AssertionError("power iteration ran inside peripheral_spectrum")

    monkeypatch.setattr(spectral, "_orbit", no_power)
    for name, op in ops.items():
        sd = q.peripheral_spectrum(op)
        assert sd.residuals_right[0] <= 1e-10 * np.abs(sd.right_eigs[0]).max(), name


@pytest.mark.parametrize("side", [1, 3])
def test_unresolved_perron_pair_is_nonconvergent(sds, monkeypatch, side):
    # a Perron vector off by 1e-7 relative stays in the cone but misses the
    # 1e-10 residual gate, on the right (side 1, f) or the left (side 3, mu)
    inverse_iteration = spectral._inverse_iteration

    def perturbed(matrix, beta):
        out = list(inverse_iteration(matrix, beta))
        vec = out[side // 2]
        out[side // 2] = vec * (1 + 1e-7 * np.arange(len(vec)))
        return tuple(out)

    monkeypatch.setattr(spectral, "_inverse_iteration", perturbed)
    with pytest.raises(NonConvergent):
        q.peripheral_spectrum(sds["ds3"].op)


# -- adjoint pairing ----------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
def test_adjoint_consistency(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a = a / (a.sum(axis=1).max() * 1.1)
    phi = rng.standard_normal(n)
    nu = rng.standard_normal(n)
    lhs = (nu @ a) @ phi
    rhs = nu @ (a @ phi)
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


# -- subdominant rate ---------------------------------------------------------

def test_subdominant_rates(sds):
    assert q.subdominant_rate(sds["sym2"]) == pytest.approx(math.log(3), abs=1e-12)
    assert q.subdominant_rate(sds["cycle3"]) == math.inf
    assert q.subdominant_rate(sds["example22_201"]) > 0


def test_spectral_serialization_shape(sds):
    doc = sds["cycle2"].to_json_dict()
    assert set(doc) == {"lambda", "m", "subdominant_radius", "eigvals", "f", "mu",
                        "residuals"}
    assert len(doc["eigvals"]) == 2 and len(doc["eigvals"][0]) == 2
    assert len(doc["f"]) == 2 and len(doc["f"][0]) == 2
