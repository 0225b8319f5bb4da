"""Peripheral eigenpairs from inverse iteration against the two-``eig`` extraction.

``ref_peripheral_pairs`` keeps the extraction that shifted inverse iteration
replaced: full right and left eigendecompositions, each left eigenvalue
matched to its right one by nearest distance, then the same cone check, phase
alignment and biorthonormalization as ``peripheral_spectrum``.  The two
routes differ in rounding only, so lam, every f_j and every mu_j must agree
to 1e-12 relative to the reference vector's sup, and the right eigenvectors
must be exactly zero on zero rows, as ``eig`` leaves them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import spectral
from qsdlab.errors import NonConvergent
from qsdlab.kernels import KernelSpec, build_operator

REL_TOL = 1e-12


def ref_peripheral_pairs(op, peripheral_tol=spectral.PERIPHERAL_TOL_DEFAULT):
    ev, vr = np.linalg.eig(op.matrix)
    evl, vl = np.linalg.eig(op.matrix.T)
    lam = float(np.abs(ev).max())
    per = np.flatnonzero(np.abs(ev) >= lam * (1 - peripheral_tol))
    m = len(per)
    slots, _ = spectral.snap_phases(ev[per], m)
    at_slot = np.empty(m, dtype=int)
    at_slot[slots] = per
    i0 = int(op.nonescape_indices()[0])
    right = np.zeros((m, op.size), dtype=complex)
    left = np.zeros((m, op.size), dtype=complex)
    for j in range(m // 2 + 1):
        k = at_slot[j]
        f = vr[:, k].astype(complex)
        kl = int(np.argmin(np.abs(evl - ev[k])))
        assert abs(evl[kl] - ev[k]) <= lam * 1e-6, "left spectrum does not match right"
        mu = vl[:, kl].astype(complex)
        if j == 0:
            f = spectral._nonnegative_real(f, tol=1e-8).astype(complex)
            mu0 = spectral._nonnegative_real(mu, tol=1e-8)
            mu = mu0.astype(complex) / mu0.sum()
        else:
            f = f * (right[0][i0] / f[i0])
        pairing = mu @ f
        if j == 0:
            f = f / pairing
        else:
            mu = mu / pairing
        right[j] = f
        left[j] = mu
        if j != 0 and (m - j) != j:
            right[m - j] = np.conj(f)
            left[m - j] = np.conj(mu)
    return lam, right, left


def explicit(matrix):
    return build_operator(KernelSpec(family="explicit_matrix",
                                     params={"matrix": np.asarray(matrix).tolist()}))


def assert_matches_reference(op, sd=None):
    sd = sd or q.peripheral_spectrum(op)
    lam, right, left = ref_peripheral_pairs(op)
    assert abs(sd.lam - lam) <= REL_TOL * lam
    assert sd.period_m == len(right)
    for new, ref in ((sd.right_eigs, right), (sd.left_eigs, left)):
        for j in range(sd.period_m):
            assert np.abs(new[j] - ref[j]).max() <= REL_TOL * np.abs(ref[j]).max(), j
    escape = sorted(op.escape)
    assert not np.any(sd.right_eigs[:, escape])
    return sd


def test_session_operators_match_reference(ops, sds):
    for name, op in ops.items():
        assert_matches_reference(op, sds[name])


# -- generated chains ------------------------------------------------------------

@st.composite
def dense_chains(draw):
    """Entrywise positive substochastic chains of 2-30 states."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 30))
    a = rng.uniform(0.05, 1.0, (n, n))
    return a / a.sum(axis=1, keepdims=True) * rng.uniform(0.1, 1.0, (n, 1))


@st.composite
def block_cyclic_chains(draw):
    """Period-m chains (m = 2, 3) of positive blocks C_c -> C_{c+1}.

    Classes have 1-8 states, all of one size or each its own.  With every row
    summing to the same value the classes carry equal mass under mu_0, where
    a constant start vector has no component along f_j for j >= 1; otherwise
    the row sums are drawn independently.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 8))] * m
    else:
        sizes = [draw(st.integers(1, 8)) for _ in range(m)]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    a = np.zeros((n, n))
    for c in range(m):
        d = (c + 1) % m
        a[starts[c]:starts[c + 1], starts[d]:starts[d + 1]] = rng.uniform(
            0.05, 1.0, (sizes[c], sizes[d]))
    if draw(st.booleans()):
        sums = np.full((n, 1), rng.uniform(0.2, 1.0))
    else:
        sums = rng.uniform(0.2, 1.0, (n, 1))
    a = a / a.sum(axis=1, keepdims=True) * sums
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], m


@settings(max_examples=60, deadline=None)
@given(dense_chains())
def test_dense_chains_match_reference(a):
    assert_matches_reference(explicit(a))


@settings(max_examples=60, deadline=None)
@given(block_cyclic_chains())
def test_block_cyclic_chains_match_reference(chain):
    a, m = chain
    assert assert_matches_reference(explicit(a)).period_m == m


# -- zero rows -----------------------------------------------------------------

def test_zero_row_escape_chains_have_exact_zeros():
    # state 3 dies at once; the live states form one class, aperiodic in the
    # first chain and of period 2 in the second
    aperiodic = [[0.2, 0.3, 0.1, 0.2],
                 [0.3, 0.1, 0.3, 0.1],
                 [0.1, 0.4, 0.2, 0.2],
                 [0.0, 0.0, 0.0, 0.0]]
    cyclic = [[0.0, 0.5, 0.0, 0.3],
              [0.6, 0.0, 0.2, 0.1],
              [0.0, 0.7, 0.0, 0.2],
              [0.0, 0.0, 0.0, 0.0]]
    for matrix, m in ((aperiodic, 1), (cyclic, 2)):
        op = explicit(matrix)
        sd = assert_matches_reference(op)
        assert sd.period_m == m
        assert q.quasi_ergodic_measure(sd)[3] == 0.0
        assert sd.left_eigs[0, 3].real > 0


def test_singular_shift_is_nonconvergent(ops, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NonConvergent, match="singular"):
        q.peripheral_spectrum(ops["sym2"])
