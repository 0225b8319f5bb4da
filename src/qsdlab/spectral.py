"""Peripheral spectrum of the discretized operator.

Everything here applies the operator A through its two actions:
``op.right(f)`` = ``A f`` evolves grid functions, ``op.left(nu)`` = ``nu A``
evolves grid measures, and the pairing ``<nu, f> = sum_i nu_i f_i`` makes
the two exactly adjoint.  Only ``eigvals`` and inverse iteration read A itself.

The headline object is :class:`SpectralData`: the spectral radius ``lam``,
the graph period ``m`` of the chain (its m eigenvalues of modulus ``lam``
are ``lam`` times the m-th roots of unity for an irreducible nonnegative
matrix), and the biorthonormalized left/right peripheral eigenpairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedEigenbasis,
    NonConvergent,
    NoSpectralGapWithinTol,
    PeriodMismatch,
    Reducible,
    SizeLimitExceeded,
)
from .kernels import DenseRows, check_h2_reachability
from .measures import variation_norm

PERIPHERAL_TOL_DEFAULT = 1e-6
GAP_FLOOR_DEFAULT = 1e-4
ANGLE_SNAP_TOL = 1e-3
DENSE_SIZE_LIMIT = 2000
KRYLOV_MIN_SIZE = 512
KRYLOV_SEPARATION = 0.9
KRYLOV_STEPS = 60
KRYLOV_RESIDUAL = 1e-14
RITZ_GAP = 1e-2
# the floats of _orbit's block of iterates, each full block reduced at once
_ORBIT_BLOCK = 2 ** 14


@dataclass(frozen=True)
class SpectralData:
    """Peripheral eigenstructure of a discretized kernel.

    ``right_eigs[j]`` and ``left_eigs[j]`` satisfy (up to the recorded
    residuals) ``A f_j = lam w^j f_j`` and ``mu_j A = lam w^j mu_j`` with
    ``w = exp(2 pi i / m)``, normalized so that mu_0 is a probability vector
    and ``<mu_j, f_k> = delta_jk``; ``f_j = D^j f_0`` and ``mu_j = mu_0 D^-j``
    on the non-escape nodes, ``D = diag(w^class)`` with the classes of
    ``reach.node_class``.  Pairs j and m - j are complex conjugates.
    """

    lam: float
    period_m: int
    eigenvalues: np.ndarray        # snapped peripheral eigenvalues, j = 0..m-1
    right_eigs: np.ndarray         # shape (m, n) complex
    left_eigs: np.ndarray          # shape (m, n) complex
    subdominant_radius: float
    residuals_right: np.ndarray
    residuals_left: np.ndarray
    reach: object                  # the ReachabilityReport: graph period and node classes
    op: object                     # the DiscreteOperator this was computed from

    @property
    def f0(self):
        return self.right_eigs[0].real

    @property
    def mu0(self):
        return self.left_eigs[0].real

    def to_json_dict(self):
        """JSON document with complex numbers as [re, im] pairs."""
        pairs = lambda z: np.stack([z.real, z.imag], -1).tolist()
        return {
            "lambda": self.lam,
            "m": self.period_m,
            "subdominant_radius": self.subdominant_radius,
            "eigvals": pairs(self.eigenvalues),
            "f": pairs(self.right_eigs),
            "mu": pairs(self.left_eigs),
            "residuals": {
                "right_sup": self.residuals_right.tolist(),
                "left_tv": self.residuals_left.tolist(),
            },
        }


def _arnoldi(act, n, k, need, restart=True):
    """The ``k`` largest-modulus Ritz values of the action on n nodes, and their Ritz pieces.

    Arnoldi (Saad, *Numerical Methods for Large Eigenvalue Problems*, 2nd
    ed. 2011, ch. 6) from the fixed-seed random start, each new direction
    orthogonalized twice by classical Gram-Schmidt, in cycles of
    ``KRYLOV_STEPS`` steps.  After each step from the k-th on (in a later
    cycle, at its end) the run stops when the residual estimate
    ``|h_{j+1,j} y_j|`` of the ``need`` largest Ritz pairs is at most
    ``KRYLOV_RESIDUAL`` times the largest modulus.  A breakdown
    (``h_{j+1,j}`` that small) leaves an invariant subspace whose Ritz
    values are exact; a random start reaches every eigenvalue, so the values
    it lacks are zero and are padded as such.  Returns the values in
    decreasing modulus and the Ritz pieces ``(y, basis)``, or None after an
    unconverged cycle unless ``restart``: a thick restart (Wu & Simon, SIAM
    J. Matrix Anal. Appl. 22, 2000) keeps the QR basis of the real and
    imaginary parts of the larger half's Ritz vectors, the projection and
    residual row.  A cycle past DENSE_SIZE_LIMIT**2 / n products or power
    iteration's ``log(KRYLOV_RESIDUAL) / log(|theta_{need-1}| / lam)`` raises NonConvergent.
    """
    basis = np.empty((KRYLOV_STEPS + 1, n))
    hess = np.zeros((KRYLOV_STEPS + 1, KRYLOV_STEPS))
    v = np.random.default_rng(0).random(n)
    basis[0] = v / np.linalg.norm(v)
    kept = products = 0
    while True:
        for j in range(kept, KRYLOV_STEPS):
            w = act(basis[j])
            for _ in range(2):
                h = basis[:j + 1] @ w
                w -= h @ basis[:j + 1]
                hess[:j + 1, j] += h
            e = np.frexp(np.abs(w).max())[1]     # unscaled, squares past 1e154 overflow
            hess[j + 1, j] = norm = np.ldexp(np.linalg.norm(np.ldexp(w, -e)), e)
            if not kept or j + 1 == KRYLOV_STEPS or norm <= tol:
                theta, y = np.linalg.eig(hess[:j + 1, :j + 1])
                order = np.argsort(-np.abs(theta), kind="stable")
                tol = KRYLOV_RESIDUAL * abs(theta[order[0]])
                if norm <= tol or (j + 1 >= k and norm * np.abs(y[j, order[:need]]).max() <= tol):
                    order = order[:k]
                    return (np.concatenate([theta[order], np.zeros(k - len(order))]),
                            (y[:, order], basis[:j + 1]))
            basis[j + 1] = w / norm
        products += KRYLOV_STEPS - kept
        if not restart:
            return None
        ratio = abs(theta[order[need - 1]] / theta[order[0]])
        budget = DENSE_SIZE_LIMIT ** 2 // n
        if 0 < ratio < 1:
            budget = min(budget, math.ceil(math.log(KRYLOV_RESIDUAL) / math.log(ratio)))
        kept = min(max(k, KRYLOV_STEPS // 2), KRYLOV_STEPS - 2)
        kept += bool(theta[order[kept - 1]].imag > 0)     # a conjugate pair whole
        if products + KRYLOV_STEPS - kept > budget:
            raise NonConvergent(f"Arnoldi run unconverged after {products} products; the next "
                                f"cycle passes its {budget}-product budget, sub/lambda {ratio:.6g}")
        wanted, im = y[:, order[:kept]], theta[order[:kept]].imag
        q = np.linalg.qr(np.concatenate([wanted.real[:, im >= 0], wanted.imag[:, im > 0]], 1))[0]
        basis[:kept] = [c @ basis[:-1] for c in q.T]    # vector products: no threaded gemm
        basis[kept] = basis[-1]
        hess[:kept + 1, :kept] = np.vstack([q.T @ hess[:-1] @ q, norm * q[-1]])
        hess[kept + 1:], hess[:, kept:] = 0.0, 0.0


def _ritz_vector(values, ritz, i):
    """Ritz vector i of an :func:`_arnoldi` run, sup-normalized, by real products alone."""
    y, basis = ritz
    vec = y[:, i].real @ basis
    if values[i].imag:
        vec = vec + 1j * (y[:, i].imag @ basis)
    vec /= np.abs(vec).max() if values[i].imag else max(vec.max(), -vec.min())
    return vec


def _root_slots(ev, m):
    """Indices of the peripheral band of ev, and of its value at each m-th root slot.

    The band is ``|beta| >= lam * (1 - PERIPHERAL_TOL_DEFAULT)``; the slot
    indices are None unless the band is m values on distinct m-th root
    angles, each within ``ANGLE_SNAP_TOL``.
    """
    mods = np.abs(ev)
    band = np.flatnonzero(mods >= mods.max() * (1 - PERIPHERAL_TOL_DEFAULT))
    slots, err = snap_phases(ev[band], m)
    if len(band) != m or err.max() > ANGLE_SNAP_TOL or len(set(slots.tolist())) < m:
        return band, None
    at_slot = np.empty(m, dtype=int)
    at_slot[slots] = band
    return band, at_slot


def check_floats(count, reason):
    """Refuse, with SizeLimitExceeded, more than DENSE_SIZE_LIMIT**2 floats; ``reason`` leads."""
    if count > DENSE_SIZE_LIMIT ** 2:
        raise SizeLimitExceeded(f"{reason}, over the budget of {DENSE_SIZE_LIMIT ** 2} floats")


def check_size(n):
    """Refuse, with SizeLimitExceeded, an eigensolve on more than DENSE_SIZE_LIMIT nodes."""
    check_floats(n * n, f"dense eigensolve limited to {DENSE_SIZE_LIMIT} nodes, got {n}: "
                        f"a {n} x {n} matrix")


def _eigenvalues(op, period):
    """Eigenvalues of the operator, and their Ritz pieces or None.

    The top ``2 period + 2`` (for a block-cyclic chain the gap test then
    sees the orbit after the subdominant one) from :func:`_arnoldi`, else
    every one from one eigenvector-free dense solve.  The route is chosen by
    form: any operator but a :class:`DenseRows` (a window's run table, the
    Gaussian's Toeplitz row, an operator seen through its actions alone)
    takes a restarted run at every size.  A :class:`DenseRows` (an explicit
    or tabulated chain, whose spectrum may cloud) tries one cycle from
    ``KRYLOV_MIN_SIZE`` nodes on, kept when it converges with the smallest
    modulus outside the peripheral band at most ``KRYLOV_SEPARATION`` times
    the largest.  Any form whose ``2 period + 2`` values would not fit in
    ``KRYLOV_STEPS`` takes the dense solve.
    """
    n = op.size
    check_size(n)
    compact = not isinstance(getattr(op, "form", None), DenseRows)
    if (compact or n >= KRYLOV_MIN_SIZE) and 2 * period + 2 < KRYLOV_STEPS:
        run = _arnoldi(op.right, n, 2 * period + 2, period + 1, compact)
        if run is not None:
            mods = np.abs(run[0])
            rest = mods[mods < mods.max() * (1 - PERIPHERAL_TOL_DEFAULT)]
            if compact or (rest.size and rest.min() <= KRYLOV_SEPARATION * rest.max()):
                return run
    return np.linalg.eigvals(op.matrix), None


def _forward_step(op, f, mu, beta):
    """``(A f / beta, mu A / beta)`` from sup-normalized vectors near the eigenvalue beta.

    The step puts exact zeros on zero rows (in f) and zero columns (in mu).
    Arithmetic is real when beta is real.
    """
    if beta.imag == 0:
        beta, f, mu = beta.real, f.real, mu.real
    return op.right(f) / beta, op.left(mu) / beta


def _inverse_iteration(matrix, beta):
    """Right and left eigenvectors ``(f, mu)`` of the matrix at its eigenvalue beta.

    Shifted inverse iteration (Ipsen, SIAM Review 39, 1997): three
    ``np.linalg.solve`` with ``A - beta (1 + 1e-12) I`` for f and three with
    its transpose for mu, each normalized by sup; the caller finishes them
    with :func:`_forward_step`.  The offset keeps the shift off beta itself,
    where the matrix of an exact chain is singular; each step still damps
    the rest of the spectrum by 1e-12 lam / gap.  The start is a fixed-seed
    random vector: a constant one has no component along f_j, j >= 1, on a
    block-cyclic chain whose classes carry equal mass.  Arithmetic is real
    when beta is real.  A singular shifted matrix raises NonConvergent.
    """
    if beta.imag == 0:
        beta = beta.real
    n = len(matrix)
    shifted = matrix.astype(np.result_type(matrix, beta))
    shifted.flat[::n + 1] -= beta * (1 + 1e-12)
    f = mu = np.random.default_rng(0).random(n)
    try:
        for _ in range(3):
            f = np.linalg.solve(shifted, f)
            f /= np.abs(f).max()
            mu = np.linalg.solve(shifted.T, mu)
            mu /= np.abs(mu).max()
    except np.linalg.LinAlgError:
        raise NonConvergent(f"shifted matrix is singular at eigenvalue {beta:.6g}") from None
    return f, mu


def _nonnegative_real(vec, tol):
    """Sign-fix an eigenvector that should live in the nonnegative cone, to tol of its sup."""
    v = vec.real.copy()
    pivot = np.argmax(np.abs(v))
    if v[pivot] < 0:
        v = -v
    sup = max(v.max(), 1e-300)
    if v.min() < -tol * sup:
        raise IllConditionedEigenbasis(
            f"Perron vector leaves the cone: most negative entry {v.min() / sup:.3g} of its sup")
    return np.maximum(v, 0.0)


def _orbit(act, v, n, reduce=None, scale=None, stop=None):
    """Forward orbit ``v_k = act(v_{k-1}) / s_k`` for k = 1..n of a real v, reduced as it goes.

    Returns the values of ``reduce``, the divisors s_k and the last iterate
    (v itself when n is 0), where ``scale(w)`` gives s_k from the unscaled
    image w (``None``: no division, every s_k is 1).  Pass ``op.left`` to
    evolve measures and ``op.right`` to evolve functions; each step is one
    ``act(v, out=row)``.  The iterates are written into one block of
    ``_ORBIT_BLOCK`` floats (two rows when a row is larger), and each full
    block, and the last part of one, is handed to ``reduce(rows, k)``, k
    being the index of its first row, in order; the values it returns, one
    per row, are concatenated (an empty array when ``reduce`` is None).
    No n x size array is made.  A zero divisor turns its iterate and every
    later one into NaN, and an overflow leaves inf; callers check the
    divisors.  ``stop(v_k)`` true ends the orbit at v_k: only the values and
    divisors up to k are returned.

    Each step is a deterministic function of the bytes of the previous
    iterate (the same action: a window operator's prefix sums, the
    Gaussian's FFT, or one BLAS call at a fixed thread count), so once v_k
    repeats an earlier v_j byte for byte the plain loop would go on through
    v_{j+1}..v_k forever.  The orbit replays that cycle into the remaining
    iterates and divisors instead of computing them; s_j is not part of it,
    as it came from v_{j-1}.  Every iterate's hash is kept, and a repeat is
    confirmed by exact byte equality against the block, which holds the
    last rows computed: a cycle longer than the block is computed, not
    replayed.
    """
    size = len(v)
    block = np.empty((max(2, min(n, _ORBIT_BLOCK // size)), size))
    b = len(block)
    divisors = np.ones(n)
    values, seen, cycle = [], {}, None

    def done(k, last):
        """Iterate k is in the block: reduce the block when it is full or k is the last."""
        if reduce is not None and (k % b == b - 1 or k == last):
            values.append(reduce(block[:k % b + 1], k - k % b))

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(n):
            v = act(v, out=block[k % b])
            if scale is not None:
                divisors[k] = scale(v)
                v /= divisors[k]
            if stop is not None and stop(v):
                n = k + 1
                done(k, k)
                break
            data = v.tobytes()
            key = hash(data)
            j = seen.get(key)
            if j is not None and j > k - b and block[j % b].tobytes() == data:
                cycle = block[(j + 1 + np.arange(k - j)) % b]     # v_{j+1}..v_k
                divisors[k + 1:] = divisors[j + 1 + np.arange(n - k - 1) % (k - j)]
            seen[key] = k
            done(k, n - 1)
            if cycle is not None:
                break
        if cycle is not None:     # v_{k+1}..v_{n-1} repeat the cycle, a block at a time
            r = k + 1
            while r < n:
                m = min(b - r % b, n - r)
                block[r % b:r % b + m] = cycle[(r - k - 1 + np.arange(m)) % len(cycle)]
                r += m
                done(r - 1, n - 1)
        last = block[(n - 1) % b].copy() if n else v
    return (np.concatenate(values) if values else np.empty(0)), divisors[:n], last


def snap_phases(z, m):
    """Nearest m-th root-of-unity slot j of each arg(z), and the angle error."""
    theta = np.angle(z) % (2 * math.pi)
    j = np.rint(theta * m / (2 * math.pi)).astype(int) % m
    err = np.abs((theta - 2 * math.pi * j / m + math.pi) % (2 * math.pi) - math.pi)
    return j, err


def spectral_radius(op):
    """Spectral radius with its nonnegative right eigenfunction and eigenmeasure.

    Returns ``(lam, f0, mu0)`` with f0 >= 0 scaled to sup-norm one and mu0 a
    probability vector, taken from :func:`peripheral_spectrum` and so subject
    to all of its checks.
    """
    sd = peripheral_spectrum(op)
    return sd.lam, sd.f0 / sd.f0.max(), sd.mu0


def peripheral_spectrum(op, reach=None):
    """Extract the full peripheral eigenstructure of the operator.

    Three stages.  :func:`_eigenvalues` gives the eigenvalues: every one
    from a dense solve, or the top 2 graph period + 2 from a NumPy Arnoldi
    run on A: a restarted one for a window's or the Gaussian's operator at
    every size, one cycle for dense rows from ``KRYLOV_MIN_SIZE`` on, kept
    when they show a clear gap below the peripheral band.  The checks on the
    values run next.  Only then is the Perron pair chosen, here alone: the
    Ritz vectors of the right run and of one on ``op.left`` when the values
    came from Arnoldi (from dense rows, with the subdominant modulus at most
    ``1 - RITZ_GAP`` times lam) and the left band passes the same slot test,
    which a restarted run's must (else NonConvergent); else
    :func:`_inverse_iteration` at lam.  No other eigenvector is solved for:
    for an irreducible nonnegative matrix the peripheral pairs are
    ``f_j = D^j f_0`` and ``mu_j = mu_0 D^-j`` with ``D = diag(w^class)``
    (Schaefer, *Banach Lattices and Positive Operators*, 1974, ch. V), the
    classes being those of the reachability audit.  Every pair j <= m/2 is
    finished by one :func:`_forward_step` at its eigenvalue, which also
    sets its entries on escape nodes, and slots m - j are the complex
    conjugates.

    m is the audit's graph period: the peripheral values of an irreducible
    chain of period m are lam times the m-th roots of unity, each simple.
    The peripheral band is ``|beta| >= lam * (1 - PERIPHERAL_TOL_DEFAULT)``.
    More than m values in it raise NoSpectralGapWithinTol (a non-peripheral
    modulus that close lies far inside the gap floor), a band that fails
    :func:`_root_slots` raises PeriodMismatch, and the largest non-peripheral
    modulus must stay below ``lam * (1 - GAP_FLOOR_DEFAULT)``
    (NoSpectralGapWithinTol otherwise).  The Perron pair must lie in the
    nonnegative cone to 1e-8 and pair with
    ``|<mu_0, f_0>| >= 1e-12 |mu_0|_1 sup f_0`` (IllConditionedEigenbasis
    otherwise: the Perron root is simple, so only ill-conditioning fails
    these) and pass the residual gates
    ``|A f_0 - lam f_0| <= 1e-10 sup f_0`` and, in variation norm,
    ``|mu_0 A - lam mu_0| <= 1e-10 lam`` (NonConvergent otherwise): for an
    irreducible nonnegative matrix the only nonnegative eigenvector belongs to
    the spectral radius, so they certify lam without power iteration.  The
    left gate is the certificate :mod:`qsdlab.qsd` reads: it bounds
    ``|<mu_0, A 1> - lam|`` by 1e-10 lam and ``TV(mu_0 A / |mu_0 A|, mu_0)``
    by 1e-10 / (1 - 1e-10).  Residuals are recorded for every j.  The pairs
    must be biorthonormal to 1e-8 (IllConditionedEigenbasis otherwise): for
    j >= 1 that holds exactly when every class carries the same mass 1/m of
    eta = f_0 mu_0.
    """
    reach = reach or check_h2_reachability(op)
    if not reach.strongly_connected:
        raise Reducible(reach.reducible_message)
    m = reach.graph_period
    ev, ritz = _eigenvalues(op, m)
    lam = float(np.abs(ev).max())
    if lam <= 0:
        raise NoSpectralGapWithinTol("spectral radius is zero")
    per, at_slot = _root_slots(ev, m)
    if len(per) > m:
        raise NoSpectralGapWithinTol(
            f"{len(per)} eigenvalues {ev[per]} within {PERIPHERAL_TOL_DEFAULT:g} of "
            f"the spectral radius {lam:.6g}, more than the graph period {m}")
    if at_slot is None:
        raise PeriodMismatch(
            f"peripheral eigenvalues {ev[per]} do not fill the {m}-th root angles "
            f"of graph period {m}")

    rest = np.delete(np.abs(ev), per)
    sub = float(rest.max()) if rest.size else 0.0
    if sub >= lam * (1 - GAP_FLOOR_DEFAULT):
        raise NoSpectralGapWithinTol(
            f"subdominant modulus {sub:.6g} inside the gap floor of {lam:.6g}")

    # a Ritz vector is off by about 1e-16 lam / (lam - sub): dense rows keep
    # theirs past RITZ_GAP alone; a compact form reads no matrix
    k = at_slot[0]
    compact = ritz is not None and not isinstance(getattr(op, "form", None), DenseRows)
    mu = None
    if compact or (ritz is not None and sub <= (1 - RITZ_GAP) * lam):
        f, ritz = _ritz_vector(ev, ritz, k), None     # the right run's basis goes first
        left = _arnoldi(op.left, op.size, len(ev), m + 1, compact)
        slot = None if left is None else _root_slots(left[0], m)[1]
        mu = None if slot is None else _ritz_vector(*left, slot[0])
    if mu is None and compact:
        raise NonConvergent(f"the left Arnoldi run's band misses the {m}-th root angles")
    if mu is None:
        f, mu = _inverse_iteration(op.matrix, ev[k])
    f, mu = _forward_step(op, f, mu, ev[k])
    f0 = _nonnegative_real(f, tol=1e-8)
    mu0 = _nonnegative_real(mu, tol=1e-8)
    mu = mu0.astype(complex) / mu0.sum()
    f = f0.astype(complex)
    pairing = mu @ f
    floor = 1e-12 * (np.abs(mu).sum() * np.abs(f).max())
    if abs(pairing) < floor:
        raise IllConditionedEigenbasis(
            f"Perron pairing <mu_0, f_0> = {abs(pairing):.3g} at eigenvalue {ev[k]:.6g} "
            f"is below its floor {floor:.3g}")
    f = f / pairing              # mu_0 stays a probability vector

    # f_j = D^j f_0 and mu_j = mu_0 D^-j with D = diag(w^class): one forward
    # step each, which also sets the entries on escape nodes
    right = np.empty((m, op.size), dtype=complex)
    left = np.empty((m, op.size), dtype=complex)
    right[0], left[0] = f, mu
    twist = np.exp(2j * math.pi * reach.node_class / m)
    for j in range(1, m // 2 + 1):   # for even m slot m/2 is real, its own conjugate
        right[j], left[j] = _forward_step(op, f * twist ** j, mu / twist ** j, ev[at_slot[j]])
        right[m - j], left[m - j] = np.conj(right[j]), np.conj(left[j])

    snapped_vals = lam * np.exp(2j * math.pi * np.arange(m) / m)
    res_r = np.array([np.abs(op.right(right[j]) - snapped_vals[j] * right[j]).max()
                      for j in range(m)])
    res_l = np.array([variation_norm(op.left(left[j]) - snapped_vals[j] * left[j])
                      for j in range(m)])
    if not (res_r[0] <= 1e-10 * np.abs(right[0]).max() and res_l[0] <= 1e-10 * lam):  # or NaN
        raise NonConvergent(f"eigen residuals too large: {res_r[0]:.2e}, {res_l[0]:.2e}")
    biorth = np.array([[left[j] @ right[k] for k in range(m)] for j in range(m)])
    biorth_err = np.abs(biorth - np.eye(m)).max()
    if biorth_err > 1e-8:
        raise IllConditionedEigenbasis(
            f"biorthonormality error {biorth_err:.3g} of the peripheral pairs exceeds 1e-8")

    return SpectralData(
        lam=lam, period_m=m, eigenvalues=snapped_vals,
        right_eigs=right, left_eigs=left, subdominant_radius=sub,
        residuals_right=res_r, residuals_left=res_l, reach=reach, op=op,
    )


def subdominant_rate(sd):
    """Predicted exponential rate log(lam / subdominant_radius).

    Returns math.inf when the non-peripheral spectrum is {0} (nilpotent
    tail), meaning the conditioned law locks onto the peripheral dynamics in
    finitely many steps.
    """
    if sd.subdominant_radius <= 1e-14 * sd.lam:
        return math.inf
    return math.log(sd.lam) - math.log(sd.subdominant_radius)
