"""Exact dense computations on small finite chains.

This module is the independent cross-check for the spectral pipeline: plain
dense eigendecomposition, direct matrix-power identities, and nothing shared
with :mod:`qsdlab.spectral` beyond the LAPACK backend.  Single-threaded,
capped at 50 states, determinism over speed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedEigenbasis, Reducible

SIZE_CAP = 50
ORACLE_VERSION = "oracle_finite@0.1.0"


@dataclass(frozen=True)
class FiniteChain:
    """Substochastic matrix of a small finite chain."""

    Q: np.ndarray

    def __post_init__(self):
        q = np.array(self.Q, dtype=float)   # a copy: the caller's array stays writable
        q.setflags(write=False)
        object.__setattr__(self, "Q", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be square")
        if q.shape[0] > SIZE_CAP:
            raise ValueError(f"oracle capped at {SIZE_CAP} states")
        if q.min() < 0:
            raise ValueError("Q must be entrywise nonnegative")
        if q.sum(axis=1).max() > 1 + 1e-12:
            raise ValueError("rows must sum to at most one")

    @property
    def size(self):
        return self.Q.shape[0]


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition, biorthonormalized, sorted by modulus."""

    values: np.ndarray
    right: np.ndarray   # columns
    left: np.ndarray    # columns, <left_k, right_j> = delta_kj


def exact_spectrum(chain):
    """Dense eigendecomposition with left/right vectors paired and normalized."""
    q = chain.Q
    ev, vr = np.linalg.eig(q)
    if np.linalg.cond(vr) > 1e8:
        raise IllConditionedEigenbasis(
            f"eigenvector condition number {np.linalg.cond(vr):.2e}")
    order = np.lexsort((np.angle(ev), -np.abs(ev)))
    # the Perron root leads: it is the eigenvalue of largest real part, while
    # ties in modulus (periodic chains) would otherwise be broken by rounding
    perron = int(np.argmax(ev.real))
    order = np.concatenate([[perron], order[order != perron]])
    ev = ev[order]
    vr = vr[:, order].astype(complex)
    # left vectors from the inverse: rows of vr^-1 are automatically
    # biorthogonal to the columns of vr
    vl = np.linalg.inv(vr).conj().T
    for k in range(len(ev)):
        c = np.vdot(vl[:, k], vr[:, k])
        vl[:, k] = vl[:, k] / np.conj(c)
    return EigenSystem(values=ev, right=vr, left=vl)


def lobo_sum(chain, h, x, n):
    """Exact value of E_x[ sum_{k<n} h(X_k) * 1(chain alive at n) ].

    Computed by direct matrix algebra: with s_j = Q^j 1 the survivor masses,
    the sum equals ( sum_{k<n} Q^k (h .* s_{n-k}) )(x), accumulated by a
    Horner-style recurrence that steps s_j along with it, so one survivor
    vector is kept, not n.  No asymptotic shortcut is taken; this is the
    quantity the asymptotic ratio tests divide by their predicted leading
    term.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = chain.Q
    h = np.asarray(h, dtype=float)
    s = q @ np.ones(chain.size)
    acc = h * s                  # k = n-1 term: h .* Q^1 1
    for _ in range(n - 1):
        s = q @ s                # s_j for j = 2..n, the term k = n-j
        acc = h * s + q @ acc
    return float(acc[int(x)])


def lobo_leading_term(chain, h, x, n):
    """Predicted leading term n lam^n sum_l w^(nl) f_l(x) <mu_l, h f_l> mu_l(M).

    Built from the exact eigensystem; the peripheral set is taken at relative
    tolerance 1e-9.
    """
    sys = exact_spectrum(chain)
    lam = float(np.abs(sys.values[0]))
    per = np.flatnonzero(np.abs(sys.values) >= lam * (1 - 1e-9))
    h = np.asarray(h, dtype=float)
    total = 0.0 + 0.0j
    for k in per:
        beta = sys.values[k]
        f = sys.right[:, k]
        mu = sys.left[:, k].conj()  # acts as the measure row vector
        phase = (beta / abs(beta)) ** n
        total += phase * f[int(x)] * (mu @ (h * f)) * mu.sum()
    return float((n * lam ** n * total).real)


def _communicating_ok(q):
    alive = np.flatnonzero(q.sum(axis=1) > 0)
    if alive.size == 0:
        return False
    adj = (q > 0)[alive][:, alive]
    reach = adj.astype(np.float32)
    k = 1
    while k < alive.size:
        reach = np.minimum(reach + reach @ reach, 1.0)
        k *= 2
    return bool((reach > 0).all())


def exact_qsd_qed(chain):
    """Exact (mu, eta, lam, m) for a finite chain.

    mu is the normalized nonnegative left eigenvector at the spectral radius,
    eta the normalized entrywise product of the right eigenvector with mu,
    and m the number of eigenvalues on the peripheral circle.
    """
    if not _communicating_ok(chain.Q):
        raise Reducible("non-dying states do not form one communicating class")
    sys = exact_spectrum(chain)
    lam = float(np.abs(sys.values[0]))
    m = int(np.sum(np.abs(sys.values) >= lam * (1 - 1e-9)))
    f = sys.right[:, 0].real
    if f[np.argmax(np.abs(f))] < 0:
        f = -f
    mu = sys.left[:, 0].real
    if mu[np.argmax(np.abs(mu))] < 0:
        mu = -mu
    if f.min() < -1e-10 or mu.min() < -1e-10:
        raise IllConditionedEigenbasis("leading eigenpair leaves the cone")
    f = np.maximum(f, 0.0)
    mu = np.maximum(mu, 0.0)
    mu = mu / mu.sum()
    eta = f * mu
    eta = eta / eta.sum()
    return mu, eta, lam, m


def fixture_dict(name, chain):
    """JSON-ready fixture with the oracle's exact answers for a chain."""
    mu, eta, lam, m = exact_qsd_qed(chain)
    return {
        "name": name,
        "Q": [[float(v) for v in row] for row in chain.Q],
        "labels": [str(i) for i in range(chain.size)],
        "mu": [float(v) for v in mu],
        "eta": [float(v) for v in eta],
        "lambda": lam,
        "m": m,
        "provenance": ORACLE_VERSION,
    }
