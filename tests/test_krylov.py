"""The Krylov path of ``peripheral_spectrum`` against its dense path.

A window's run table or the Gaussian's Toeplitz row at every size, and
dense rows from ``KRYLOV_MIN_SIZE`` nodes on, take the top eigenvalues and
the right Ritz vector from a NumPy Arnoldi run on ``A`` in
``_eigenvalues``, and a second run on ``op.left`` gives the Perron left
one.  The reference is the dense path on the same matrix held as dense
rows (a ``DenseTwin``) with ``KRYLOV_MIN_SIZE`` raised past its size: one
``np.linalg.eigvals`` and ``np.linalg.solve`` steps.  Where the Krylov
values show a gap below the subdominant modulus the two paths differ in
rounding only, so lam, m, the subdominant modulus and every f_j and mu_j
must agree to 1e-12 relative (times each eigenvalue's condition number on
drawn small grids, where a drifting window makes it large).  A compact
form's runs restart until they converge, or refuse over their product
budget, and never read the matrix.
An explicit or tabulated chain's run is one cycle: where its values do not
show a gap (a cloud of equal moduli below the peripheral band, or a right
run that does not converge) the dense eigenvalues are used, bit for bit,
and a left run that does not converge, or whose band fills other slots,
keeps the Arnoldi values and takes inverse iteration at the Perron value.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdlab as q
from conftest import perron_values
from qsdlab import spectral
from qsdlab.errors import (
    IllConditionedEigenbasis,
    NonConvergent,
    NoSpectralGapWithinTol,
    QsdlabError,
)
from qsdlab.kernels import (
    DenseRows,
    KernelSpec,
    ToeplitzRow,
    build_operator,
    check_h2_reachability,
)

REL_TOL = 1e-12


def explicit(matrix):
    return build_operator(KernelSpec(family="explicit_matrix",
                                     params={"matrix": matrix}))


def _rows(rng, n_rows, n_cols):
    """Positive random rows with row sums drawn from [0.5, 0.99]."""
    a = rng.uniform(0.05, 1.0, (n_rows, n_cols))
    return a / a.sum(axis=1, keepdims=True) * rng.uniform(0.5, 0.99, (n_rows, 1))


def weak_chain(rng, na, nb, eps):
    """Two dense blocks of row sum 0.7, coupled by eps: sub/lam = 1 - 2 eps."""
    a, b = (_rows(rng, k, k) for k in (na, nb))
    a *= 0.7 / a.sum(axis=1, keepdims=True)
    b *= 0.7 / b.sum(axis=1, keepdims=True)
    out = np.zeros((na + nb, na + nb))
    out[:na, :na] = (1 - eps) * a
    out[:na, na:] = eps * a.sum(axis=1)[:, None] * rng.dirichlet(np.ones(nb))[None, :]
    out[na:, na:] = (1 - eps) * b
    out[na:, :na] = eps * b.sum(axis=1)[:, None] * rng.dirichlet(np.ones(na))[None, :]
    return out


def smooth_cyclic_chain(sizes):
    """Period len(sizes) through smooth Gaussian blocks: a separated, compact-like spectrum."""
    starts = np.concatenate([[0], np.cumsum(sizes)])
    out = np.zeros((starts[-1], starts[-1]))
    for c, n in enumerate(sizes):
        d = (c + 1) % len(sizes)
        x, y = np.linspace(0, 1, n), np.linspace(0, 1, sizes[d])
        block = np.exp(-(x[:, None] - y[None, :]) ** 2 / (0.02 + 0.03 * c))
        block *= (0.6 + 0.3 * x[:, None] ** (c + 1)) / block.sum(axis=1, keepdims=True)
        out[starts[c]:starts[c + 1], starts[d]:starts[d + 1]] = block
    return out


def cyclic_chain(rng, m, b):
    """Period m through m random positive blocks: a cloud below the band."""
    out = np.zeros((m * b, m * b))
    for k in range(m):
        nxt = (k + 1) % m
        out[k * b:(k + 1) * b, nxt * b:(nxt + 1) * b] = _rows(rng, b, b)
    return out


def _spy(monkeypatch, module, name, calls=None):
    """Record each call of ``module.name`` in ``calls`` (a new list by default)."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class DenseTwin(DenseRows):
    """A matrix held as dense rows, whatever form it was filled from."""

    def __init__(self, matrix):
        self.size, self.dense = len(matrix), matrix


def dense_path(op):
    """The dense route on op's matrix: its :class:`DenseTwin` below ``KRYLOV_MIN_SIZE``."""
    twin = dataclasses.replace(op, form=DenseTwin(op.form.matrix()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "KRYLOV_MIN_SIZE", op.size + 1)
        return q.peripheral_spectrum(twin)


def assert_matches_dense(op, monkeypatch, krylov=True):
    """Krylov run against the dense run; ``krylov``: the Arnoldi values were kept."""
    dense_calls = _spy(monkeypatch, np.linalg, "eigvals")
    sd = q.peripheral_spectrum(op)
    if krylov:
        assert dense_calls == []
    assert_close(sd, dense_path(op))
    return sd


def assert_close(sd, ref, tol=REL_TOL, sub_tol=REL_TOL, floor=0.0):
    """lam, m, every f_j and mu_j agree to tol, relative, and the subdominant modulus to sub_tol.

    Two subdominant moduli below ``floor`` agree.
    """
    assert sd.period_m == ref.period_m
    assert abs(sd.lam - ref.lam) <= tol * ref.lam
    if not sd.subdominant_radius < floor > ref.subdominant_radius:
        assert abs(sd.subdominant_radius - ref.subdominant_radius) <= sub_tol * max(
            ref.subdominant_radius, 1e-2 * ref.lam)
    for new, old in ((sd.right_eigs, ref.right_eigs), (sd.left_eigs, ref.left_eigs)):
        for j in range(sd.period_m):
            assert np.abs(new[j] - old[j]).max() <= tol * np.abs(old[j]).max(), j


@pytest.mark.parametrize("n", [513, 801])
@pytest.mark.parametrize("name", ["example21", "example22cubic", "example23gauss"])
def test_bundled_systems_match_dense_path(name, n, monkeypatch):
    assert_matches_dense(build_operator(q.get_spec(name, grid_size=n)), monkeypatch)


@pytest.mark.parametrize("at", ["small", "default"])
@pytest.mark.parametrize("name", ["example21", "example22cubic", "example23gauss"])
def test_default_grids_match_dense_path(name, at, monkeypatch):
    # the compact forms take Arnoldi below KRYLOV_MIN_SIZE too, at every size
    spec = q.get_spec(name, grid_size=41 if at == "small" else None)
    assert spec.grid_size < spectral.KRYLOV_MIN_SIZE
    assert_matches_dense(build_operator(spec), monkeypatch)


@st.composite
def compact_specs(draw):
    """An affine or cubic window, or a Gaussian, on [-1, 1] at 5-80 nodes."""
    family = draw(st.sampled_from(["affine_uniform", "cubic_uniform", "gaussian_shift"]))
    if family == "affine_uniform":
        params = {"a": draw(st.floats(-3.0, 3.0)), "b": draw(st.floats(-1.0, 1.0)),
                  "noise_halfwidth": draw(st.floats(0.05, 2.0))}
    elif family == "cubic_uniform":
        params = {"noise_halfwidth": draw(st.floats(0.05, 3.0))}
    else:
        params = {"sigma": draw(st.floats(0.05, 2.0))}
    return KernelSpec(domain=(-1.0, 1.0), family=family, params=params,
                      grid_size=draw(st.integers(5, 80)))


def _answer(solve):
    """``solve()``, or the class of the QsdlabError it raises."""
    try:
        return solve()
    except QsdlabError as exc:
        return type(exc)


def _drift(b, n):
    return KernelSpec(domain=(-1.0, 1.0), family="affine_uniform",
                      params={"a": 1.0, "b": b, "noise_halfwidth": 1.0}, grid_size=n)


def _conditions(matrix):
    """The eigenvalues' moduli and each one's condition number ``1 / |y^H x|`` (inf: defective)."""
    values, left, right = scipy.linalg.eig(matrix, left=True)
    with np.errstate(divide="ignore"):
        return np.abs(values), 1 / np.abs(np.sum(left.conj() * right, axis=0))


@settings(max_examples=40, deadline=None)
@given(spec=compact_specs())
@example(spec=q.get_spec("example22cubic", grid_size=11))   # a zero in Jordan blocks of size 2
@example(spec=_drift(0.875, 17))     # kappa 3.5e3: the answers agree to 7.8e-13 in lam
@example(spec=_drift(0.9375, 33))    # kappa 7.4e8: NonConvergent on the restarted run
@example(spec=_drift(0.95, 60))      # a Perron pairing of 1.2e-14: a ring of Ritz values
def test_small_compact_grids_match_dense_path(spec):
    # the restarted run at every size: the twin's refusal, or its numbers to
    # REL_TOL times kappa, the condition number of the eigenvalue, as the
    # runs stop on a residual of 1e-14 lam (a drift, a = 1, can have kappa
    # 1e3-1e9).  Past kappa = 1e-10 / KRYLOV_RESIDUAL at lam a Ritz vector
    # may miss the 1e-10 residual gates that inverse iteration meets
    # (NonConvergent), and where the twin finds the Perron pairing
    # ill-conditioned the Ritz values may blur into a ring (another
    # refusal); the drifts refuse so from 81 nodes on too.  A zero
    # eigenvalue in a Jordan block of size 2 moves by up to sqrt(eps) lam in
    # rounding, so two subdominant moduli below that agree
    op = _answer(lambda: build_operator(spec))
    if isinstance(op, type):
        return     # refused before any eigensolve: a Gaussian row sum past one
    reach = _answer(lambda: check_h2_reachability(op))
    sd = reach if isinstance(reach, type) else _answer(lambda: q.peripheral_spectrum(op, reach))
    ref = _answer(lambda: dense_path(op))
    if isinstance(ref, type):
        assert sd is ref or (ref is IllConditionedEigenbasis and isinstance(sd, type)), sd
    else:
        moduli, kappa = _conditions(op.form.matrix())
        at = lambda modulus: kappa[np.argmin(np.abs(moduli - modulus))]
        if not (sd is NonConvergent and at(ref.lam) > 1e-10 / spectral.KRYLOV_RESIDUAL):
            assert not isinstance(sd, type), sd
            assert_close(sd, ref, REL_TOL * at(ref.lam), REL_TOL * at(ref.subdominant_radius),
                         np.sqrt(np.finfo(float).eps) * ref.lam)
    if not isinstance(reach, type) and 2 * reach.graph_period + 2 < spectral.KRYLOV_STEPS:
        assert "matrix" not in vars(op)


def test_explicit_chain_below_krylov_min_size_stays_dense(monkeypatch):
    # the same 401 x 401 matrix held as DenseRows keeps the dense route
    a = build_operator(q.get_spec("example21")).matrix.copy()
    calls = _spy(monkeypatch, np.linalg, "eigvals", _spy(monkeypatch, spectral, "_arnoldi"))
    q.peripheral_spectrum(explicit(a))
    assert calls == ["eigvals"]


@pytest.mark.parametrize("na,nb,eps", [(260, 270, 6e-5), (300, 250, 5e-3)])
def test_weakly_coupled_chains_match_dense_path(na, nb, eps, monkeypatch):
    sd = assert_matches_dense(explicit(weak_chain(np.random.default_rng(na), na, nb, eps)),
                              monkeypatch)
    assert 1 - 2.5 * eps < sd.subdominant_radius / sd.lam < 1 - 1.5 * eps


@pytest.mark.parametrize("make,calls", [
    (lambda: explicit(weak_chain(np.random.default_rng(260), 260, 270, 6e-5)),
     ["_arnoldi", "_inverse_iteration"]),
    (lambda: build_operator(q.get_spec("example21", grid_size=513)), ["_arnoldi", "_arnoldi"]),
], ids=["weak", "example21"])
def test_ritz_vectors_only_past_the_ritz_gap(make, calls, monkeypatch):
    # a Ritz vector is off by about 1e-16 lam / (lam - sub): with sub/lam
    # = 0.99988 that is 1e-12, so inverse iteration at the Arnoldi values
    # gives the vectors, and the left run is skipped
    op = make()
    seen = _spy(monkeypatch, spectral, "_inverse_iteration", _spy(monkeypatch, spectral, "_arnoldi"))
    q.peripheral_spectrum(op)
    assert seen == calls


@pytest.mark.parametrize("sizes,krylov", [((260, 270), True), ((170, 171, 172), True),
                                          ((130, 128, 129, 131), True)])
def test_separated_block_cyclic_chain_matches_dense_path(sizes, krylov, monkeypatch):
    # with period m every modulus comes m times; the 2m + 2 Ritz values let
    # the gap test see the orbit after the subdominant one
    sd = assert_matches_dense(explicit(smooth_cyclic_chain(sizes)), monkeypatch, krylov)
    assert sd.period_m == len(sizes)


def test_rank_one_chain_matches_dense_path(monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.uniform(0.3, 0.9, 600)[:, None] * rng.dirichlet(np.ones(600))[None, :]
    # the Arnoldi run breaks down after two steps: the values it lacks are
    # zero, and the Krylov values are kept
    sd = assert_matches_dense(explicit(a), monkeypatch)
    assert spectral.subdominant_rate(sd) == float("inf")


def test_rank_one_breakdown_pads_zeros():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.3, 0.9, 600)[:, None] * rng.dirichlet(np.ones(600))[None, :]
    values, (y, basis) = spectral._arnoldi(explicit(a).right, len(a), 4, 2)
    assert len(values) == 4 and y.shape == (2, 2) and basis.shape == (2, 600)
    assert not values[2:].any()
    # the Perron Ritz vector is the chain's rank-one column, up to scale
    f = spectral._ritz_vector(values, (y, basis), 0)
    col = a[:, 0] / a[:, 0].max()
    assert np.abs(f * np.sign(f[0]) - col).max() <= 1e-14


def test_unseparated_values_fall_back(monkeypatch):
    # moduli past the band all within 0.9 of each other: no clear gap.  Dense
    # rows fall back to eigvals; a compact form's restarted values are kept
    real = spectral._arnoldi

    def arnoldi(*args):
        values, ritz = real(*args)
        return np.concatenate([values[:2], values[1] * np.array([0.98, 0.95])]), ritz

    monkeypatch.setattr(spectral, "_arnoldi", arnoldi)
    window = build_operator(q.get_spec("example21", grid_size=513))
    for op, seen in ((explicit(window.form.matrix()), ["_arnoldi", "eigvals"]),
                     (window, ["_arnoldi", "_arnoldi"])):
        with monkeypatch.context() as mp:
            calls = _spy(mp, np.linalg, "eigvals", _spy(mp, spectral, "_arnoldi"))
            q.peripheral_spectrum(op)
        assert calls == seen
    assert "matrix" not in vars(window)


def _bitwise_equal(a, b):
    for field in ("lam", "period_m", "subdominant_radius"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("eigenvalues", "right_eigs", "left_eigs",
                  "residuals_right", "residuals_left"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.mark.parametrize("make", [
    lambda rng: _rows(rng, 512, 512),
    lambda rng: cyclic_chain(rng, 2, 256),
], ids=["dense", "cyclic2"])
def test_cloud_spectrum_falls_back_to_dense_eigenvalues(make, monkeypatch):
    op = explicit(make(np.random.default_rng(11)))
    with monkeypatch.context() as mp:
        calls = _spy(mp, np.linalg, "eigvals", _spy(mp, spectral, "_arnoldi"))
        sd = q.peripheral_spectrum(op)
        assert calls == ["_arnoldi", "eigvals"]
    monkeypatch.setattr(spectral, "_arnoldi", lambda *args: None)
    _bitwise_equal(sd, q.peripheral_spectrum(op))


def _recording_arnoldi(monkeypatch, edit):
    """Patch ``_arnoldi`` to return ``edit(run index, result)``; returns the list of results."""
    real, runs = spectral._arnoldi, []

    def arnoldi(*args):
        runs.append(edit(len(runs), real(*args)))
        return runs[-1]

    monkeypatch.setattr(spectral, "_arnoldi", arnoldi)
    return runs


def _inverse_iteration_values(monkeypatch):
    """Record the eigenvalue of each ``_inverse_iteration`` call."""
    real, values = spectral._inverse_iteration, []

    def inverse_iteration(matrix, beta):
        values.append(complex(beta))
        return real(matrix, beta)

    monkeypatch.setattr(spectral, "_inverse_iteration", inverse_iteration)
    return values


def assert_inverse_iteration_at_arnoldi_values(op, edit, monkeypatch):
    """A left run edited by ``edit`` gives way to inverse iteration at the right run's values."""
    ref = dense_path(op)
    runs = _recording_arnoldi(monkeypatch, edit)
    calls = _spy(monkeypatch, np.linalg, "eigvals")
    values = _inverse_iteration_values(monkeypatch)
    perron = perron_values(monkeypatch)
    sd = q.peripheral_spectrum(op)
    assert len(runs) == 2 and calls == []
    assert values == perron     # the Perron slot alone
    assert set(values) <= set(map(complex, runs[0][0]))
    assert_close(sd, ref)
    return sd


@pytest.mark.parametrize("failing", [0, 1], ids=["right", "left"])
def test_nonconverged_arnoldi_falls_back_to_dense_eigenvalues(failing, monkeypatch):
    # dense rows fall back when a run ends unconverged: the right one to
    # eigvals, the left one to inverse iteration at the Arnoldi values
    window = build_operator(q.get_spec("example21", grid_size=513))
    krylov = q.peripheral_spectrum(window)
    op = explicit(window.form.matrix())
    with monkeypatch.context() as mp:
        if failing:
            assert_inverse_iteration_at_arnoldi_values(
                op, lambda run, result: None if run == 1 else result, mp)
        else:
            runs = _recording_arnoldi(mp, lambda run, result: None)
            calls = _spy(mp, np.linalg, "eigvals")
            sd = q.peripheral_spectrum(op)
            assert len(runs) == 1 and calls == ["eigvals"]
            assert abs(sd.lam - krylov.lam) <= REL_TOL * krylov.lam
            assert np.abs(sd.left_eigs[0] - krylov.left_eigs[0]).max() <= REL_TOL * sd.mu0.max()
    # a compact form's run restarts instead: with cycles of 6 steps, the
    # failing side alone restarts, and neither eigvals nor the matrix is read
    real, cycles = spectral._arnoldi, []

    def arnoldi(act, n, k, need, restart=True):
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "KRYLOV_STEPS", 6 if len(cycles) == failing else 60)
            short = real(act, n, k, need, False)
            cycles.append(short is None)
            return real(act, n, k, need, restart)

    monkeypatch.setattr(spectral, "_arnoldi", arnoldi)
    calls = _spy(monkeypatch, np.linalg, "eigvals")
    _spy(monkeypatch, spectral, "_inverse_iteration", calls)
    sd = q.peripheral_spectrum(window)
    assert cycles == [failing == 0, failing == 1] and calls == []
    assert_close(sd, dense_path(build_operator(window.spec)))
    assert "matrix" not in vars(window)


def test_arnoldi_out_of_steps_returns_none(monkeypatch):
    # one cycle (the dense rows' run) returns None when it runs out of steps;
    # a restarted run goes on to the same values
    op = build_operator(q.get_spec("example21", grid_size=513))
    values = spectral._arnoldi(op.right, op.size, 4, 2, False)[0]
    monkeypatch.setattr(spectral, "KRYLOV_STEPS", 6)
    assert spectral._arnoldi(op.right, op.size, 4, 2, False) is None
    restarted = spectral._arnoldi(op.right, op.size, 4, 2)[0]
    assert np.abs(restarted[:2] - values[:2]).max() <= REL_TOL * abs(values[0])


def test_left_band_on_other_slots_falls_back(monkeypatch):
    def edit(run, result):
        if run == 0:
            return result
        # the left band shrinks to lam alone: one slot instead of two
        values, vectors = result
        return values * np.where(values.real < 0, 0.5, 1), vectors

    op = explicit(smooth_cyclic_chain((260, 270)))
    sd = assert_inverse_iteration_at_arnoldi_values(op, edit, monkeypatch)
    assert sd.period_m == 2


def narrow_gaussian(sigma, n=801):
    return build_operator(KernelSpec(domain=(-1.0, 1.0), family="gaussian_shift",
                                     params={"sigma": sigma}, grid_size=n))


@pytest.mark.parametrize("sigma,ratio", [(0.05, 0.9913), (0.02, 0.9986)])
def test_slowly_mixing_gaussian_restarts_without_a_matrix(sigma, ratio, monkeypatch):
    # sub/lam past 1 - RITZ_GAP: the restarted runs give both vectors, with
    # no eigvals, inverse iteration or matrix fill
    op = narrow_gaussian(sigma)
    assert isinstance(op.form, ToeplitzRow)
    with monkeypatch.context() as mp:
        calls = _spy(mp, np.linalg, "eigvals", _spy(mp, spectral, "_inverse_iteration"))
        sd = q.peripheral_spectrum(op)
    assert calls == [] and "matrix" not in vars(op)
    assert abs(sd.subdominant_radius / sd.lam - ratio) < 1e-4
    ref = dense_path(narrow_gaussian(sigma))
    assert abs(sd.lam - ref.lam) <= REL_TOL * ref.lam
    assert np.abs(sd.f0 - ref.f0).max() <= REL_TOL * ref.f0.max()
    assert np.abs(sd.mu0 - ref.mu0).max() <= REL_TOL * ref.mu0.max()


def test_restarted_run_over_its_budget_is_nonconvergent(monkeypatch):
    # a 200-node size limit leaves 200**2 / 801 = 49 products, fewer than
    # one cycle: the run refuses at its first restart
    op = narrow_gaussian(0.02)
    monkeypatch.setattr(spectral, "DENSE_SIZE_LIMIT", 200)
    with pytest.raises(NonConvergent, match=r"after 60 products; the next cycle passes its "
                                            r"49-product budget, sub/lambda 0\.998"):
        spectral._arnoldi(op.right, op.size, 4, 2)
    # the budget of the measured gap, log(1e-14) / log(0.5) = 47 products: a
    # subdominant value in a cluster 5e-7 wide does not converge in one cycle
    d = np.concatenate([[1.0], 0.5 - 1e-9 * np.arange(499)])
    monkeypatch.setattr(spectral, "DENSE_SIZE_LIMIT", 2000)
    with pytest.raises(NonConvergent, match=r"after 60 products; the next cycle passes its "
                                            r"47-product budget, sub/lambda 0\.5\b"):
        spectral._arnoldi(lambda v: d * v, len(d), 4, 2)


def test_perron_ritz_vector_makes_no_complex_array():
    # all Ritz vectors as one complex product cast the basis to complex; the
    # Perron value is real, so its vector is one real product: no 16 N bytes
    op = build_operator(q.get_spec("example21", grid_size=1601))
    values, ritz = spectral._arnoldi(op.right, op.size, 4, 2)
    assert values[0].imag == 0 and ritz[1].dtype == np.float64
    tracemalloc.start()
    try:
        f = spectral._ritz_vector(values, ritz, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.dtype == np.float64 and peak < 16 * op.size, peak / op.size
    assert np.abs(op.right(f) - values[0].real * f).max() <= 1e-13


def test_compact_left_band_on_other_slots_is_nonconvergent(monkeypatch):
    # a compact form has no matrix to fall back on: a left band of two values
    # for graph period 1 refuses
    def edit(run, result):
        values, ritz = result
        return result if run == 0 else (np.concatenate([values[:1], values[:3]]), ritz)

    op = build_operator(q.get_spec("example21", grid_size=513))
    _recording_arnoldi(monkeypatch, edit)
    with pytest.raises(NonConvergent, match="left Arnoldi run's band misses the 1-th root"):
        q.peripheral_spectrum(op)
    assert "matrix" not in vars(op)


def test_krylov_refusal_skips_the_left_run(monkeypatch):
    # example21 has sub/lam = 1/2: a gap floor of 0.6 refuses it on the
    # Krylov values, before any vector is computed
    op = build_operator(q.get_spec("example21", grid_size=513))
    calls = _spy(monkeypatch, np.linalg, "eigvals", _spy(monkeypatch, spectral, "_arnoldi"))
    monkeypatch.setattr(spectral, "GAP_FLOOR_DEFAULT", 0.6)
    with pytest.raises(NoSpectralGapWithinTol, match="inside the gap floor"):
        q.peripheral_spectrum(op)
    assert calls == ["_arnoldi"]


def test_zero_row_chain_has_exact_zeros_on_krylov_path(monkeypatch):
    a = build_operator(q.get_spec("example21", grid_size=600)).matrix.copy()
    a[[17, 421]] = 0.0
    sd = assert_matches_dense(explicit(a), monkeypatch)
    assert not np.any(sd.right_eigs[:, [17, 421]])
    assert q.quasi_ergodic_measure(sd)[[17, 421]].tolist() == [0.0, 0.0]


def test_period_near_size_takes_dense_eigenvalues(monkeypatch):
    # 2 period + 2 Ritz values would not fit in KRYLOV_STEPS (an n-cycle has period n)
    calls = _spy(monkeypatch, spectral, "_arnoldi")
    n = spectral.KRYLOV_MIN_SIZE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev, ritz = spectral._eigenvalues(explicit(np.diag(np.linspace(0.1, 0.9, n))), n - 4)
    assert len(ev) == n and ritz is None and calls == []


def test_exactly_singular_shift_is_nonconvergent():
    # the 1e-12 offset makes this shifted matrix exactly zero
    beta = 0.5
    matrix = np.eye(spectral.KRYLOV_MIN_SIZE) * (beta * (1 + 1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="singular"):
            spectral._inverse_iteration(matrix, np.complex128(beta))


def test_small_analyze_leaves_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(q.__file__))
    code = (
        "import sys\n"
        "from qsdlab.cli import main\n"
        f"assert main(['analyze', '--spec', 'sym2', '--out', {str(tmp_path / 'a')!r}]) == 0\n"
        "assert main(['analyze', '--spec', 'example21', '--grid-size', '401',\n"
        f"             '--out', {str(tmp_path / 'b')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_krylov_analyze_leaves_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(q.__file__))
    code = (
        "import sys\n"
        "from qsdlab.cli import main\n"
        "assert main(['analyze', '--spec', 'example21', '--grid-size', '1601',\n"
        f"             '--out', {str(tmp_path / 'a')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
