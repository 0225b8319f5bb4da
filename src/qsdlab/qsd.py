"""Conditioned long-run objects: survival measure, ergodic measure, rates.

The three headline outputs of the pipeline:

* the quasi-stationary measure mu (unique normalized nonnegative left
  eigenmeasure at the spectral radius) together with the survival rate lam;
* the quasi-ergodic measure eta, the pointwise product f * mu renormalized,
  which governs conditioned time averages and in general differs from mu;
* convergence rates: exponential for aperiodic chains (the conditioned law
  itself converges), O(1/n) for the Cesaro average in the cyclic case.

Cyclic chains additionally decompose the non-escape nodes into m classes
that the dynamics permutes; see :func:`cyclic_components`.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateEigenfunction,
    MassExtinct,
    NeverSubunit,
    NotAperiodic,
    NotCyclic,
    NotPeriodic,
    SupportOverlap,
    ValidationError,
    ZeroEigenfunctionMass,
)
from .measures import tv_distance
from .spectral import _log_sum, _orbit, peripheral_spectrum, snap_phases, subdominant_rate

TV_FIT_FLOOR = 1e-13
# largest angle between an eigenfunction phase and its m-th root slot
PHASE_SNAP_TOL = 1e-6
# shortest rate-fit horizon at which both fit windows keep three points
MIN_N_MAX = 5


@dataclass(frozen=True)
class ConditionedLaw:
    """Law of the chain at time step_n conditioned on survival so far."""

    masses: np.ndarray
    step_n: int
    normalization: float  # survivor mass before renormalizing


@dataclass(frozen=True)
class CyclicPartition:
    """Cyclic class structure of a period-m chain.

    ``classes[i]`` are node indices; the one-step measure action sends the
    class measure nu_i onto scalings[i] * nu_{sigma(i)} (for uniformly scaled
    cycles all scalings equal lam).  ``generators[k]`` are the nonnegative
    disjointly supported eigenfunctions of the m-step operator obtained from
    the peripheral eigenfunctions by inverse discrete Fourier transform.
    """

    classes: tuple
    permutation: tuple
    class_measures: np.ndarray
    scalings: np.ndarray
    generators: np.ndarray

    @property
    def m(self):
        return len(self.classes)

    def cyclic_mean_measure(self):
        """Equal-weight mean of the class measures: the Cesaro limit law."""
        return self.class_measures.mean(axis=0)


@dataclass(frozen=True)
class RateFit:
    model: str             # "exponential" | "one_over_n"
    fitted_rate: float
    fitted_constant: float
    r_squared: float
    data: np.ndarray       # rows (n, tv)
    passed: bool


@dataclass(frozen=True)
class DecayReport:
    n0: Optional[int]
    alpha: Optional[float]
    sup_masses: np.ndarray
    envelope_ok: bool


def quasi_stationary_measure(sd):
    """Return (mu, lam) and verify the defining fixed-point identities.

    mu is the mass-one nonnegative left eigenvector at the spectral radius;
    lam equals both the spectral radius and the mu-average of the one-step
    survival masses (checked to 1e-10).
    """
    mu = sd.mu0.copy()
    lam = sd.lam
    op = sd.op
    stepped = mu @ op.matrix
    mass = stepped.sum()
    if mass <= 0:
        raise DegenerateEigenfunction("one-step image of mu has no mass")
    if tv_distance(stepped / mass, mu) > 1e-10:
        raise DegenerateEigenfunction("mu is not a conditioned fixed point to 1e-10")
    survival = float(mu @ op.row_masses())
    if abs(survival - lam) > 1e-10:
        raise DegenerateEigenfunction(
            f"survival-rate identity violated: {survival} vs {lam}")
    return mu, lam


def quasi_ergodic_measure(sd):
    """Pointwise product f0 * mu0, renormalized; zero exactly on escape nodes."""
    inner = float(sd.mu0 @ sd.f0)
    if inner <= 1e-14:
        raise DegenerateEigenfunction("<mu, f> is numerically zero")
    eta = sd.f0 * sd.mu0 / inner
    eta = np.maximum(eta, 0.0)
    return eta / eta.sum()


def yaglom_iterate(op, nu0, n, renormalize_each_step=True):
    """Conditioned law after n steps started from the measure nu0.

    The default renormalizes the survivor mass away every step, which leaves
    the conditioned law unchanged but avoids underflow of lam**n; the raw
    mode keeps the actual survivor mass and raises MassExtinct on underflow.
    """
    nu = np.asarray(nu0, dtype=float)
    if nu.min() < 0 or not math.isclose(nu.sum(), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("nu0 must be a probability vector")
    if n < 0:
        raise ValueError("n must be >= 0")
    laws, masses = _orbit(op.matrix, nu, n, np.add.reduce if renormalize_each_step else None)
    if n:
        nu = laws[-1].copy()
    if renormalize_each_step:
        if (masses <= 0).any():
            raise MassExtinct("survivor mass vanished")
        normalization = math.exp(_log_sum(masses))
    else:
        if (laws.sum(axis=1) < 1e-300).any():
            raise MassExtinct("survivor mass underflowed; use renormalize-each-step mode")
        normalization = nu.sum()
        if normalization > 0:
            nu = nu / normalization
    return ConditionedLaw(masses=nu, step_n=n, normalization=float(normalization))


def _tv_rows(laws, q):
    """tv_distance(law, q) for each row of laws, in one reduction."""
    return 0.5 * np.abs(laws - q).sum(axis=1)


def default_n_max(op):
    """Default horizon of the rate fits: 200 steps on explicit chains, else 120."""
    return 200 if op.spec.is_explicit else 120


def _check_n_max(n_max):
    if n_max < MIN_N_MAX:
        raise ValidationError(f"n_max must be at least {MIN_N_MAX}, got {n_max}")


def _tail_points(values):
    """Indices of the fit window: last half of the points still above the floor."""
    valid = np.flatnonzero(values > TV_FIT_FLOOR)
    if valid.size < 4:
        return valid
    return valid[valid.size // 2:]


def _loglinear_fit(ns, tvs):
    y = np.log(tvs)
    A = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return -float(coef[0]), math.exp(float(coef[1])), max(min(r2, 1.0), 0.0)


def fit_yaglom_rate(op, nu0, n_max=None, sd=None):
    """Fit the exponential convergence rate of the conditioned law toward mu.

    Computes TV(law at n, mu) for n = 1..n_max and fits log TV against n by
    least squares over the tail (the last half of the points above the
    numerical floor, so the transient is excluded).  PASS requires the fitted
    rate to reach 90% of the spectral prediction log(lam/subdominant) with
    r^2 >= 0.98; a law at the floor within two steps passes at an infinite
    rate when so is the prediction (a rank-one chain).  An n_max below
    MIN_N_MAX raises ValidationError.
    """
    if n_max is None:
        n_max = default_n_max(op)
    _check_n_max(n_max)
    sd = sd or peripheral_spectrum(op)
    if sd.period_m > 1:
        raise NotAperiodic("use cesaro_fit for cyclic chains")
    if float(np.asarray(nu0) @ sd.f0) <= 1e-14:
        raise ZeroEigenfunctionMass("nu0 carries no mass on the eigenfunction")
    mu, _ = quasi_stationary_measure(sd)
    laws, _ = _orbit(op.matrix, np.asarray(nu0, dtype=float), n_max, np.add.reduce)
    tvs = _tv_rows(laws, mu)
    ns = np.arange(1, n_max + 1)
    data = np.column_stack([ns, tvs])
    tail = _tail_points(tvs)
    alpha = subdominant_rate(sd)
    if tail.size < 3 and math.isinf(alpha):   # subdominant spectrum {0}
        return RateFit("exponential", math.inf, 0.0, 1.0, data, passed=True)
    if tail.size < 3:
        raise ZeroEigenfunctionMass("conditioned law hit the floor immediately")
    rate, const, r2 = _loglinear_fit(ns[tail].astype(float), tvs[tail])
    passed = bool(math.isfinite(alpha) and rate >= 0.9 * alpha and r2 >= 0.98)
    return RateFit(model="exponential", fitted_rate=rate, fitted_constant=const,
                   r_squared=r2, data=data, passed=passed)


def cyclic_components(sd, op):
    """Recover the cyclic classes of a period-m chain from eigenfunction phases.

    Nodes are assigned to classes by snapping the argument of the first
    nontrivial peripheral eigenfunction to the nearest multiple of 2 pi / m;
    a node whose phase refuses to snap (or whose modulus is numerically
    zero) is reported through SupportOverlap.  The construction is validated
    structurally: class measures are the restrictions of mu to the classes,
    the one-step action must send each class measure onto the next class
    (single m-cycle, no mass into the escape set), and one-step mass from a
    node reaches class C_i exactly when the node lies in C_{i-1}.
    """
    m = sd.period_m
    if m < 2:
        raise NotCyclic("chain is aperiodic (m = 1)")
    keep = op.nonescape_indices()
    f1 = sd.right_eigs[1][keep]
    slots, err = snap_phases(f1, m)
    off = (np.abs(f1) < 1e-10 * np.abs(f1).max()) | (err > PHASE_SNAP_TOL)
    if off.any():
        raise SupportOverlap("phase clustering failed on some nodes",
                             [int(i) for i in keep[off]])
    labels = np.full(op.size, -1)
    labels[keep] = slots

    classes = tuple(tuple(int(i) for i in np.flatnonzero(labels == j)) for j in range(m))
    if any(len(c) == 0 for c in classes):
        raise NotCyclic("empty cyclic class")

    mu = sd.mu0
    class_measures = np.zeros((m, op.size))
    for j, cls in enumerate(classes):
        mass = mu[list(cls)].sum()
        if mass <= 0:
            raise NotCyclic(f"class {j} carries no mass of mu")
        class_measures[j, list(cls)] = mu[list(cls)] / mass

    # permutation and per-class scaling from the one-step measure action
    perm = []
    scalings = np.empty(m)
    for i in range(m):
        w = class_measures[i] @ op.matrix
        total = w.sum()
        class_mass = np.array([w[list(c)].sum() for c in classes])
        target = int(np.argmax(class_mass))
        if class_mass[target] < (1 - 1e-10) * total:
            raise NotCyclic(f"image of class {i} spreads across classes")
        if tv_distance(w / total, class_measures[target]) > 1e-8:
            raise NotCyclic(f"image of class {i} is not the class measure of {target}")
        perm.append(target)
        scalings[i] = total
    seen, j = set(), 0
    for _ in range(m):
        if j in seen:
            break
        seen.add(j)
        j = perm[j]
    if len(seen) != m:
        raise NotCyclic(f"permutation {perm} is not a single {m}-cycle")
    if abs(np.prod(scalings) - sd.lam ** m) > 1e-8 * sd.lam ** m:
        raise NotCyclic("class scalings do not multiply to lam**m")

    # one-step support pattern: node reaches C_i iff it lies in C_{i-1}
    for i in range(m):
        into = op.matrix[:, list(classes[i])].sum(axis=1)
        src = np.flatnonzero(labels == (perm.index(i)))
        positive = into > op.escape.tolerance
        expect = np.zeros(op.size, dtype=bool)
        expect[src] = True
        if not np.array_equal(positive[keep], expect[keep]):
            raise NotCyclic(f"one-step support into class {i} is off-pattern")

    # disjointly supported nonnegative generators via inverse DFT of the f_j
    phases = np.exp(-2j * math.pi * np.outer(np.arange(m), np.arange(m)) / m)
    gens_c = (phases @ sd.right_eigs) / m
    if np.abs(gens_c.imag).max() > 1e-9 * max(np.abs(gens_c.real).max(), 1e-300):
        raise NotCyclic("generators came out non-real")
    generators = np.maximum(gens_c.real, 0.0)
    for k in range(m):
        off = [i for j2, cls in enumerate(classes) if j2 != k for i in cls]
        if generators[k][off].max() > 1e-8 * generators[k].max():
            raise SupportOverlap("generator supports overlap",
                                 [int(i) for i in off if generators[k][i] > 1e-8])

    return CyclicPartition(classes=classes, permutation=tuple(perm),
                           class_measures=class_measures, scalings=scalings,
                           generators=generators)


def cesaro_fit(op, nu0, n_max=200, sd=None, partition=None):
    """Check the O(1/n) convergence of the Cesaro-averaged conditioned law.

    The comparison measure is the equal-weight mean of the cyclic class
    measures, which is what the running average of the (perpetually
    oscillating) conditioned laws settles toward when started inside one
    class.  PASS requires n * TV to stay bounded over the tail with a trend
    slope statistically <= 0.  An n_max below MIN_N_MAX raises
    ValidationError.
    """
    _check_n_max(n_max)
    sd = sd or peripheral_spectrum(op)
    if sd.period_m < 2:
        raise NotPeriodic("chain is aperiodic; use fit_yaglom_rate")
    if float(np.asarray(nu0) @ sd.f0) <= 1e-14:
        raise ZeroEigenfunctionMass("nu0 carries no mass on the eigenfunction")
    partition = partition or cyclic_components(sd, op)
    target = partition.cyclic_mean_measure()

    laws, _ = _orbit(op.matrix, np.asarray(nu0, dtype=float), n_max, np.add.reduce)
    ns = np.arange(1, n_max + 1)
    ds = _tv_rows(np.cumsum(laws, axis=0) / ns[:, None], target)
    nd = ns * ds

    tail = ns >= max(n_max // 2, 2)
    x = ns[tail].astype(float)
    y = nd[tail]
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    slope = float(coef[0])
    bounded = nd[tail].max() <= max(nd[~tail].max(), nd[tail][0]) + 1e-9
    passed = bool((slope <= 2 * se or slope <= 0) and bounded)
    return RateFit(model="one_over_n", fitted_rate=1.0,
                   fitted_constant=float(nd[tail].mean()), r_squared=1.0,
                   data=np.column_stack([ns, ds]), passed=passed)


def mass_decay_check(op, n_max=60):
    """Track sup_x of the n-step survival mass and its geometric envelope.

    Finds the first n0 with sup < 1 and alpha = sup at n0, then verifies
    sup at k*n0 stays below alpha**k for every computed multiple.  Raises
    NeverSubunit for honestly stochastic chains (all row sums one).
    """
    survivors, _ = _orbit(op.matrix.T, np.ones(op.size), n_max)
    sups = survivors.max(axis=1)
    below = np.flatnonzero(sups < 1 - 1e-12)
    if below.size == 0:
        raise NeverSubunit("survival mass never drops below one")
    n0 = int(below[0]) + 1
    alpha = float(sups[n0 - 1])
    ks = range(1, n_max // n0 + 1)
    envelope_ok = all(sups[k * n0 - 1] <= alpha ** k * (1 + 1e-12) for k in ks)
    return DecayReport(n0=n0, alpha=alpha, sup_masses=sups, envelope_ok=envelope_ok)
