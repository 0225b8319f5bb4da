"""Conditioned long-run objects: survival measure, ergodic measure, rates.

The three headline outputs of the pipeline:

* the quasi-stationary measure mu (unique normalized nonnegative left
  eigenmeasure at the spectral radius) together with the survival rate lam;
* the quasi-ergodic measure eta, the pointwise product f * mu renormalized,
  which governs conditioned time averages and in general differs from mu;
* convergence rates: exponential for aperiodic chains (the conditioned law
  itself converges), O(1/n) for the Cesaro average in the cyclic case.

Cyclic chains additionally decompose the non-escape nodes into m classes
that the dynamics shifts one step along; the reachability audit assigns
them and :func:`cyclic_components` checks the measure side.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    MassExtinct,
    NeverSubunit,
    NotAperiodic,
    NotCyclic,
    NotPeriodic,
    ValidationError,
    ZeroEigenfunctionMass,
)
from .measures import tv_distance
from .spectral import _orbit, check_floats, peripheral_spectrum, subdominant_rate

TV_FIT_FLOOR = 1e-13
# shortest rate-fit horizon at which both fit windows keep three points
MIN_N_MAX = 5


@dataclass(frozen=True)
class ConditionedLaw:
    """Law of the chain at a time n conditioned on survival so far."""

    masses: np.ndarray
    normalization: float  # survivor mass before renormalizing


@dataclass(frozen=True)
class CyclicPartition:
    """Cyclic class structure of a period-m chain.

    ``classes[i]`` are node indices; the class measure nu_i, the
    conditioned law at phase i, has mass one on class i and the escape nodes
    class i - 1 feeds.  One step sends nu_i onto scalings[i] * nu_{i + 1 mod
    m} (for uniformly scaled cycles all scalings equal lam).  ``generators[k]``
    is f_0 restricted to class k: the nonnegative disjointly supported
    eigenfunctions of the m-step operator, with f_j = sum_k w^(jk) g_k.
    """

    classes: tuple
    permutation: tuple
    class_measures: np.ndarray
    scalings: np.ndarray
    generators: np.ndarray

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
    """The first step n0 whose sup of the survival mass is below one, alpha =
    that sup, and ``sup_masses``, the sups at steps 1..n0 (so alpha is the last)."""

    n0: Optional[int]
    alpha: Optional[float]
    sup_masses: np.ndarray


def quasi_stationary_measure(sd):
    """Return (mu, lam): mu0, the survival measure, and the spectral radius.

    The left residual gate of ``peripheral_spectrum`` already makes mu a
    conditioned fixed point to 1e-10 / (1 - 1e-10) in TV and lam the
    mu-average of the one-step survival masses to 1e-10 lam.
    """
    return sd.mu0.copy(), sd.lam


def quasi_ergodic_measure(sd):
    """Pointwise product f0 * mu0, renormalized; zero exactly on escape nodes.

    ``<mu0, f0> = 1`` to 1e-8 by the biorthogonality gate of ``peripheral_spectrum``.
    """
    eta = sd.f0 * sd.mu0 / float(sd.mu0 @ sd.f0)
    eta = np.maximum(eta, 0.0)
    return eta / eta.sum()


def _log_sum(values):
    """Sum of math.log over values, added in order like a running total."""
    total = 0.0
    for s in values:
        total += math.log(s)
    return total


def _start_law(op, nu0):
    """nu0 as floats: the one start check of every reader.

    ValueError unless nu0 is a probability vector of shape ``(op.size,)``.
    """
    nu = np.asarray(nu0, dtype=float)
    if (nu.shape != (op.size,) or not nu.min() >= 0
            or not math.isclose(nu.sum(), 1.0, rel_tol=0, abs_tol=1e-9)):
        raise ValueError(f"nu0 must be a probability vector on the {op.size} nodes")
    return nu


def _conditioned_laws(op, nu, n, reduce=None):
    """The laws of nu conditioned on survival at steps 1..n, reduced by ``reduce``.

    Returns ``_orbit``'s values, step masses and last law.  Renormalizing
    each step keeps lam**n from underflowing and leaves the conditioned law
    unchanged.
    """
    return _orbit(op.left, nu, n, reduce, np.add.reduce)


def yaglom_iterate(op, nu0, n):
    """Conditioned law after n steps started from the measure nu0.

    ``normalization`` is the survivor mass of nu0 after n steps, the product
    of the step masses.  A step mass of zero raises MassExtinct.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _, masses, law = _conditioned_laws(op, _start_law(op, nu0), n)
    if (masses <= 0).any():
        raise MassExtinct("survivor mass vanished")
    return ConditionedLaw(masses=law, normalization=math.exp(_log_sum(masses)))


def _tv_rows(laws, q):
    """tv_distance(law, q) for each row of laws, in one reduction."""
    return 0.5 * np.abs(laws - q).sum(axis=1)


def _running_tv_to(q):
    """An orbit reducer: the TV distance to q of the mean of the laws 1..k, for each k.

    The running sum is carried from block to block and added row by row, in
    the order of ``np.cumsum`` over all the laws, so its bytes are that
    cumsum's.
    """
    total = None

    def reduce(laws, k):
        nonlocal total
        sums = laws.copy()
        if total is not None:
            sums[0] += total
        np.cumsum(sums, axis=0, out=sums)
        total = sums[-1].copy()
        sums /= np.arange(k + 1, k + len(laws) + 1)[:, None]
        return _tv_rows(sums, q)

    return reduce


def check_n_max(n_max, size, name="n_max"):
    """The rate fits' horizon rule on ``size`` nodes; the error names ``name``.

    At least MIN_N_MAX steps (ValidationError), and n_max x size floats of
    iterates within the dense route's matrix budget (``check_floats``,
    SizeLimitExceeded): the orbit reduces them block by block, so this
    bounds its work, not its memory.
    """
    if n_max < MIN_N_MAX:
        raise ValidationError(f"{name} must be at least {MIN_N_MAX}, got {n_max}")
    check_floats(n_max * size, f"{name} {n_max} on {size} nodes needs {n_max * size} floats "
                               "of iterates")


def _fit_laws(op, nu0, n_max, sd, cyclic):
    """The rate fits' common start: sd (solved when None), the steps 1..n_max, nu0 as floats.

    n_max (None: 200 on explicit chains, else 120) and the start are checked
    before any eigensolve, the period against ``cyclic`` and the f0 mass after.
    """
    if n_max is None:
        n_max = 200 if op.spec.is_explicit else 120
    check_n_max(n_max, op.size)
    nu = _start_law(op, nu0)
    sd = sd or peripheral_spectrum(op)
    if cyclic and sd.period_m < 2:
        raise NotPeriodic("chain is aperiodic; use fit_yaglom_rate")
    if not cyclic and sd.period_m > 1:
        raise NotAperiodic("use cesaro_fit for cyclic chains")
    if float(nu @ sd.f0) <= 1e-14:
        raise ZeroEigenfunctionMass("nu0 carries no mass on the eigenfunction")
    return sd, np.arange(1, n_max + 1), nu


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
    r^2 >= 0.98.  A law with fewer than 3 points above the floor is reported
    at an infinite rate; it passes when the prediction leaves fewer than 3
    too, that is ``TV(1) <= TV_FIT_FLOOR exp(2 alpha)`` (always for a
    rank-one chain, whose predicted rate is infinite).  n_max defaults to 200
    steps on explicit chains, else 120, and is checked by ``check_n_max``; a
    start that is not a probability vector on the nodes raises ValueError.
    """
    sd, ns, nu = _fit_laws(op, nu0, n_max, sd, cyclic=False)
    tvs, _, _ = _conditioned_laws(op, nu, len(ns), lambda laws, k: _tv_rows(laws, sd.mu0))
    data = np.column_stack([ns, tvs])
    tail = _tail_points(tvs)
    alpha = subdominant_rate(sd)
    if tail.size < 3:   # nothing to fit; passes when the predicted rate leaves < 3 too
        passed = tvs[0] <= TV_FIT_FLOOR * math.exp(2 * alpha)
        return RateFit("exponential", math.inf, 0.0, 1.0, data, passed=bool(passed))
    rate, const, r2 = _loglinear_fit(ns[tail].astype(float), tvs[tail])
    passed = bool(math.isfinite(alpha) and rate >= 0.9 * alpha and r2 >= 0.98)
    return RateFit(model="exponential", fitted_rate=rate, fitted_constant=const,
                   r_squared=r2, data=data, passed=passed)


def cyclic_components(sd, op):
    """The cyclic classes of a period-m chain, from the reachability audit.

    ``sd.reach.node_class`` gives each node's class (its BFS level mod m),
    so every edge between non-escape nodes leads from class i to i + 1 mod
    m (the permutation), and mass sent to an escape node dies.  Class
    measure k, the conditioned law at phase k, is mu_0 on class k plus on
    the escape nodes the mass that class k - 1 sends there over lam, with
    mass one; each class has eta mass 1/m by the biorthogonality gate of
    ``peripheral_spectrum``.  The generators are f_0 on each class.  Checked:
    one step sends each class measure onto the next to 1e-8 in TV, with
    scalings that multiply to lam**m (NotCyclic); m = 1 raises NotPeriodic.
    """
    m = sd.period_m
    if m < 2:
        raise NotPeriodic("chain is aperiodic (m = 1)")
    labels = sd.reach.node_class
    classes = tuple(tuple(int(i) for i in np.flatnonzero(labels == j)) for j in range(m))

    mu = sd.mu0
    dying = np.array(sorted(op.escape), dtype=int)
    class_measures = np.zeros((m, op.size))
    for j, cls in enumerate(classes):
        cls = list(cls)
        class_measures[j, cls] = mu[cls]
        fed = op.left(np.where(labels == (j - 1) % m, mu, 0.0))    # mu_0 on class j - 1, one step
        class_measures[j, dying] = fed[dying] / sd.lam
        class_measures[j] /= mu[cls].sum() + class_measures[j, dying].sum()

    # per-class scaling of the one-step measure action onto the next class
    perm = tuple((i + 1) % m for i in range(m))
    scalings = np.empty(m)
    for i, target in enumerate(perm):
        w = op.left(class_measures[i])
        total = w.sum()
        if tv_distance(w / total, class_measures[target]) > 1e-8:
            raise NotCyclic(f"image of class {i} is not the class measure of {target}")
        scalings[i] = total
    if abs(np.prod(scalings / sd.lam) - 1) > 1e-8:     # lam**m itself may overflow
        raise NotCyclic("class scalings do not multiply to lam**m")

    generators = np.where(labels == np.arange(m)[:, None], sd.f0, 0.0)
    return CyclicPartition(classes=classes, permutation=perm,
                           class_measures=class_measures, scalings=scalings,
                           generators=generators)


def cesaro_fit(op, nu0, n_max=None, sd=None, partition=None):
    """Check the O(1/n) convergence of the Cesaro-averaged conditioned law.

    The comparison measure is the equal-weight mean of the cyclic class
    measures, which is what the running average of the (perpetually
    oscillating) conditioned laws settles toward when started inside one
    class.  PASS requires n * TV to stay bounded over the tail with a trend
    slope statistically <= 0.  The horizon n_max and the start are checked
    as in ``fit_yaglom_rate``.
    """
    sd, ns, nu = _fit_laws(op, nu0, n_max, sd, cyclic=True)
    partition = partition or cyclic_components(sd, op)
    target = partition.cyclic_mean_measure()
    ds, _, _ = _conditioned_laws(op, nu, len(ns), _running_tv_to(target))
    nd = ns * ds

    tail = ns >= max(len(ns) // 2, 2)
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
    """Track sup_x of the n-step survival mass and find where it drops below one.

    Returns the first n0 <= n_max with sup < 1 - 1e-12, alpha = sup at n0 and
    the sups at steps 1..n0: the orbit stops at n0, as no later sup is read.
    The geometric envelope, sup at k*n0 at most alpha**k, needs no check: by
    the Markov property sup_x P_x(tau > j + k) <= sup_x P_x(tau > j) sup_x
    P_x(tau > k).  Raises NeverSubunit, after all n_max steps, for honestly
    stochastic chains (all row sums one).
    """
    subunit = lambda mass: mass.max() < 1 - 1e-12
    sups, _, last = _orbit(op.right, np.ones(op.size), n_max,
                           lambda masses, k: masses.max(axis=1), stop=subunit)
    if not (len(sups) and subunit(last)):
        raise NeverSubunit("survival mass never drops below one")
    return DecayReport(n0=len(sups), alpha=float(sups[-1]), sup_masses=sups)
