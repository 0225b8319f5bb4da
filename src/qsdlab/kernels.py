"""Absorbed Markov kernels on a compact interval, and their discretization.

A kernel is described declaratively by a :class:`KernelSpec` (density family +
parameters + grid size; the reference measure is Lebesgue) and realized as a
:class:`DiscreteOperator`: a quadrature grid together with the matrix

    matrix[i, j] = g(node_i, node_j) * weight_j

held in one form with five members: the two actions ``right(f)``, the
one-step expectation of a grid function, and ``left(nu)``, a measure (vector
of node masses) pushed one step forward; ``masses()``, the row masses;
``graph()``, the edges as :class:`EdgeRuns`, column runs per row, which the
reachability audit searches with no N x N array; and ``matrix()``.  For the
two window families a row is 1/(2w) times the weights on one run of
columns, so the form is a :class:`RunTable`, acting by prefix sums in O(N).
``gaussian_shift``'s is a :class:`ToeplitzRow`: entry (i, j) is ``T(|j - i|)
w_j``, so it acts by one real FFT, and its row masses and its graph take
O(N).  Both fill their matrix only when it is first read.  A finite chain
(the ``explicit_matrix`` family, taken verbatim) and a tabulated density
are held as :class:`DenseRows`.  Every choice that depends on the family,
the form among them, is read from the family's record in :data:`FAMILIES`.

Escape nodes are grid points whose row mass vanishes: the chain started there
is absorbed in one step almost surely.
"""

import functools
import math
import numbers
import operator
from dataclasses import KW_ONLY, dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllNodesEscape,
    InvalidDomain,
    NegativeDensity,
    NotApplicable,
    RowSumExceedsOne,
)

# Absolute tolerance for deciding that a grid node sits exactly on a jump of
# an indicator density.  Node spacings in practice are >= 1e-5, so this is
# unambiguous while immune to linspace rounding.
JUMP_ATOL = 1e-9

ESCAPE_TOL_DEFAULT = 1e-12
H1_PROBES = 64


@dataclass(frozen=True)
class StateGrid:
    """Quadrature abscissae and weights for Lebesgue measure on [lower, upper]."""

    lower: float
    upper: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)      # copies: the caller's arrays stay writable
        weights = np.array(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise InvalidDomain("nodes and weights must be 1-D and of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidDomain("nodes must be strictly increasing")
        if nodes[0] < self.lower - 1e-12 or nodes[-1] > self.upper + 1e-12:
            raise InvalidDomain("nodes must lie inside [lower, upper]")
        if weights.min() < 0 or weights.sum() <= 0:
            raise InvalidDomain("weights must be nonnegative with positive total")

    @property
    def step(self):
        """Mesh width; uniform for the built-in grids."""
        return float(np.diff(self.nodes).max())

    def cell_edges(self):
        """Bin edges at midpoints between nodes (used to bin MC samples)."""
        mid = 0.5 * (self.nodes[1:] + self.nodes[:-1])
        return np.concatenate([[self.lower], mid, [self.upper]])


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of an absorbed kernel P(x, dy) = g(x, y) dy.

    ``family`` is a key of :data:`FAMILIES`, whose record says what the
    family is and which parameters it takes.

    Fields are keyword-only and checked here alone, for the library and spec
    files alike (InvalidDomain): ``params`` a dict of exactly the record's
    ``params``, ``domain`` a pair of real numbers (not bool) kept as a float
    pair, ``grid_size`` an int (by ``operator.index``).  A density family
    needs both, with lower < upper a finite width apart, and is sampled on
    the trapezoid grid of ``grid_size`` equispaced nodes.  An explicit
    chain's matrix, or a tabulated density's values, is checked here, once,
    by the one table rule ``_table`` (InvalidDomain, or NegativeDensity for
    a negative entry; then RowSumExceedsOne for an explicit chain), and kept
    as the read-only float copy ``matrix`` that every reader uses.  An
    explicit chain's n states fix ``domain`` = (0, max(n - 1, 1)) and
    ``grid_size`` = n, and any other value raises InvalidDomain.
    """

    _: KW_ONLY
    domain: Optional[tuple] = None
    family: str
    params: dict = field(default_factory=dict)
    grid_size: Optional[int] = None
    name: Optional[str] = None
    matrix: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.family not in tuple(FAMILIES):   # by ==, so an unhashable family is refused too
            raise InvalidDomain(f"family must be one of {tuple(FAMILIES)}, got {self.family!r}")
        if not isinstance(self.params, dict):
            raise InvalidDomain("params must be an object")
        if self.domain is not None:
            if not (isinstance(self.domain, (list, tuple)) and len(self.domain) == 2):
                raise InvalidDomain("domain must be [lower, upper]")
            if any(isinstance(b, bool) or not isinstance(b, numbers.Real) for b in self.domain):
                raise InvalidDomain(f"domain bound must be a number, got {self.domain}")
            object.__setattr__(self, "domain", tuple(map(float, self.domain)))
        try:
            if self.grid_size is not None:
                object.__setattr__(self, "grid_size", operator.index(self.grid_size))
        except TypeError:
            raise InvalidDomain(f"grid_size must be an integer, got {self.grid_size!r}") from None
        bad = set(self.params) - FAMILIES[self.family].params
        if bad:
            raise InvalidDomain(f"unknown params {sorted(bad)} for family {self.family}")
        missing = FAMILIES[self.family].params - set(self.params)
        if missing:
            raise InvalidDomain(f"missing params {sorted(missing)} for family {self.family}")
        if self.is_explicit:
            q = _table("explicit matrix", self.params["matrix"])
            _check_row_sums(q.sum(axis=1))
            n, domain = len(q), (0.0, float(max(len(q) - 1, 1)))
            if self.grid_size not in (None, n) or self.domain not in (None, domain):
                raise InvalidDomain(f"a {n}-state chain has domain {domain} and grid_size {n}")
            for key, value in (("matrix", q), ("domain", domain), ("grid_size", n)):
                object.__setattr__(self, key, value)
            return
        if self.domain is None or self.grid_size is None:
            raise InvalidDomain(f"{self.family} needs a domain and a grid_size")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise InvalidDomain(f"domain must satisfy lower < upper, got {self.domain}")
        if not math.isfinite(hi - lo):
            raise InvalidDomain(f"domain width {hi} - {lo} is not finite")
        if self.grid_size < 2:
            raise InvalidDomain("grid_size must be >= 2")
        # scalars finite reals (not bool), widths positive, a table by _table
        for key, value in self.params.items():
            if key == "values":
                object.__setattr__(self, "matrix", _table("values", value, self.grid_size))
            elif (isinstance(value, bool) or not isinstance(value, numbers.Real)
                  or not math.isfinite(value)):
                raise InvalidDomain(f"{key} must be a finite number, got {value!r}")
            elif key in ("noise_halfwidth", "sigma") and value <= 0:
                raise InvalidDomain(f"{key} must be positive, got {value!r}")

    @property
    def is_explicit(self):
        return self.family == "explicit_matrix"


@dataclass(frozen=True)
class DiscreteOperator:
    """Finite-rank realization of the kernel on a quadrature grid.

    The operator is held in one ``form``, chosen by ``build_operator``: a
    :class:`RunTable`, a :class:`ToeplitzRow` or a :class:`DenseRows`.
    Every form has five members: ``right(v, out)`` = ``A v`` and ``left(v,
    out)`` = ``v A`` of a real v, ``masses()``, ``graph()``, the edges
    ``matrix > ESCAPE_TOL_DEFAULT`` as :class:`EdgeRuns`, and ``matrix()``.
    Readers apply the operator through its own ``right(f)`` on grid
    functions and ``left(nu)`` on grid measures (the adjoint), which split
    a complex v once and call the form.  Only the dense-only consumers read
    ``matrix``: the ``eigvals`` solve and inverse iteration, which a run
    table or a Toeplitz row meets only at a graph period m whose 2 m + 2
    Ritz values would not fit in one Arnoldi cycle; otherwise its matrix is
    a dense reference for the tests and benchmarks.  ``escape`` is
    the frozenset of escape nodes, the rows whose mass is at most
    ``ESCAPE_TOL_DEFAULT``.  Immutable after construction.
    """

    grid: StateGrid
    escape: frozenset
    spec: KernelSpec
    form: "DenseRows | RunTable | ToeplitzRow" = field(repr=False)

    @functools.cached_property
    def matrix(self):
        """The form's dense matrix, read-only: a run table or a Toeplitz row fills it on first read."""
        m = self.form.matrix()
        m.setflags(write=False)
        return m

    def graph(self):
        """The edges ``matrix > ESCAPE_TOL_DEFAULT`` as :class:`EdgeRuns`, filling no matrix."""
        return self.form.graph()

    @property
    def size(self):
        return self.grid.nodes.size

    def right(self, v, out=None):
        """``A v``, the form's; written into ``out`` (real v only) when given."""
        return self._by_parts(self.form.right, v, out)

    def left(self, v, out=None):
        """``v A``, as :meth:`right`."""
        return self._by_parts(self.form.left, v, out)

    @staticmethod
    def _by_parts(act, v, out):
        """``act`` of a real v, or of a complex v's two parts: no complex copy of a matrix is made."""
        if np.iscomplexobj(v):
            return act(v.real) + 1j * act(v.imag)
        return act(v, out)

    def nonescape_indices(self):
        return np.array(sorted(set(range(self.size)) - self.escape), dtype=int)


class DenseRows:
    """An operator held as its read-only N x N matrix ``dense``, applied by ``np.dot``.

    An explicit chain's ``spec.matrix`` verbatim, or a tabulated density's
    times the weights column-wise (a product that overflows is left to
    ``_escape_nodes``).  ``right`` is bitwise ``np.dot(v, A.T)`` and
    ``left`` ``A.T @ v``.
    """

    def __init__(self, spec, grid):
        self.size = grid.nodes.size
        if spec.is_explicit:
            self.dense = spec.matrix
            return
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self.dense = spec.matrix * grid.weights
        self.dense.setflags(write=False)

    def right(self, v, out=None):
        return np.dot(self.dense, v, out=out)

    def left(self, v, out=None):
        return np.dot(v, self.dense, out=out)

    def masses(self):
        return self.dense.sum(axis=1)

    def graph(self):
        return EdgeRuns(self.size, *_row_runs(self.dense > ESCAPE_TOL_DEFAULT))

    def matrix(self):
        return self.dense


class RunTable:
    """A window operator held as its row runs, applied by prefix sums.

    Row i of the matrix is ``c_j = fl(fl(1/(2w)) weight_j)`` on its inside
    run ``start_i <= j < stop_i`` and 0 elsewhere, except at a few edge
    cells, whose dense values ``fl(fl(side/(2w)) weight_j)`` are kept as
    corrections against that.  So ``A v`` is ``S[stop] - S[start]`` with
    ``S = [0, cumsum(c v)]``, plus the corrections, and ``v A`` is ``c_j
    (T[hi_j] - T[lo_j])`` with ``T = [0, cumsum(v)]``, where ``lo_j <= i <
    hi_j`` are the rows whose run holds column j: the run ends are monotone
    in i (the centers a x + b and x**3 are, and rounding keeps it), so those
    rows are contiguous, in reverse order when a < 0.  A column that no run
    holds gets c_j = 0, so a value that overflows there reaches no sum; and
    when N max(c) nears the float range, S is summed scaled by a power of
    two, which is exact.  The results differ from the dense products by
    rounding alone: at most about 4 N eps times the absolute terms summed.
    The prefix sums use no BLAS, so their bytes do not depend on the thread
    count; a real v only, as every form takes.  ``masses()`` is ``right``
    of ones, ``matrix()`` gives the dense build's bytes in one N x N pass
    (a reference, as :class:`DiscreteOperator` says), and ``graph()``
    ``matrix > ESCAPE_TOL_DEFAULT`` as :class:`EdgeRuns` in O(N).
    """

    def __init__(self, spec, grid):
        nodes, weights = grid.nodes, grid.weights
        n = self.size = nodes.size
        start, stop, (rows, cols), density, inside = _window_density(spec, nodes, nodes)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = inside * weights
            value = density * weights[cols]
        # [lo_j, hi_j): the rows with start_i <= j < stop_i; hi >= lo as start <= stop
        if start[0] > start[-1] or stop[0] > stop[-1]:    # a < 0: the runs move left
            lo = n - np.searchsorted(start[::-1], np.arange(n), side="right")
            hi = n - np.searchsorted(stop[::-1], np.arange(n), side="right")
        else:
            lo = np.searchsorted(stop, np.arange(n), side="right")
            hi = np.searchsorted(start, np.arange(n), side="right")
        c[hi == lo] = 0.0
        self.inside = (start[rows] <= cols) & (cols < stop[rows])
        self.start, self.stop, self.lo, self.hi, self.c = start, stop, lo, hi, c
        self.rows, self.cols, self.value = rows, cols, value
        self.correction = value - np.where(self.inside, c[cols], 0.0)
        # S at most n max(c): keep it below 2**1000, leaving room for |v| > 1
        self.shift = max(int(np.frexp(c.max())[1]) + n.bit_length() - 1000, 0)
        self.c_scaled = np.ldexp(c, -self.shift)

    def right(self, v, out=None):
        """``A v`` by prefix sums; written into ``out`` when given."""
        with np.errstate(over="ignore", invalid="ignore"):    # silent, as BLAS is
            s = np.zeros(self.size + 1)
            np.cumsum(self.c_scaled * v, out=s[1:])
            fix = np.bincount(self.rows, self.correction * v[self.cols], minlength=self.size)
            out = np.subtract(s[self.stop], s[self.start], out=out)
            if self.shift:
                np.ldexp(out, self.shift, out=out)
            out += fix
        return out

    def left(self, v, out=None):
        """``v A`` by prefix sums, as :meth:`right`."""
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.zeros(self.size + 1)
            np.cumsum(v, out=t[1:])
            fix = np.bincount(self.cols, self.correction * v[self.rows], minlength=self.size)
            out = np.subtract(t[self.hi], t[self.lo], out=out)
            out *= self.c
            out += fix
        return out

    def masses(self):
        return self.right(np.ones(self.size))

    def matrix(self):
        """The dense build's matrix, bitwise: c_j on the inside runs, then the edge values."""
        return _fill_runs(self.start, self.stop, self.c, (self.rows, self.cols), self.value,
                          np.empty((self.size, self.size)))

    def graph(self):
        """``matrix > ESCAPE_TOL_DEFAULT``: the inside runs, masked by ``c_j``, and the edge cells.

        An edge cell is a correction where its value's verdict differs from
        the one its run gives.
        """
        mask = self.c > ESCAPE_TOL_DEFAULT
        sign = (self.value > ESCAPE_TOL_DEFAULT).astype(int) - (self.inside & mask[self.cols])
        fix = sign != 0
        return EdgeRuns(self.size, np.arange(self.size), self.start, self.stop, mask,
                        (self.rows[fix], self.cols[fix], sign[fix]))


class ToeplitzRow:
    """The ``gaussian_shift`` operator held as its Toeplitz row: ``A = T W``.

    Entry (i, j) is ``T(|j - i|) w_j``, with ``T(k) = exp(-(k h / sigma)^2 /
    2) / (sigma sqrt(2 pi))`` for k = 0..N-1, where h is the weights' own
    step, (upper - lower) / (N - 1).  Row i reads ``row[N-1-i : 2N-1-i]``
    of the 2N-1 row ``row[m] = T(|m - (N - 1)|)``.  With W = h D, D =
    diag(1/2, 1, ..., 1, 1/2), ``right(v)`` is ``(T h) (D v)`` and
    ``left(v)`` is ``D ((T h) v)``, each one real-FFT product: the Toeplitz
    matrix T h is the leading N x N block of the circulant of length L, the
    power of two at least 2N - 1, whose first column is ``T(0..N-1) h``,
    zeros, then ``T(N-1..1) h`` (Golub & Van Loan, *Matrix Computations*,
    4th ed., 2013, section 4.7), whose spectrum is real and computed on the
    first product.  The FFT uses no BLAS, so the products do not depend on
    the thread count; their rounding is relative to the sup of the terms,
    not to each entry.  ``masses()`` sums each row by prefix sums over the
    row, in O(N), ``graph()`` gives ``matrix > ESCAPE_TOL_DEFAULT`` as
    :class:`EdgeRuns`, and ``matrix()`` fills the N x N matrix, a reference
    (see :class:`DiscreteOperator`).  A value of T that is not finite raises
    InvalidDomain, as the density's check does.
    """

    def __init__(self, spec, grid):
        n = self.size = grid.nodes.size
        lo, hi = spec.domain
        sigma = float(spec.params["sigma"])
        self.h = (hi - lo) / (n - 1)
        self.weights = grid.weights
        with np.errstate(over="ignore"):
            t = _gaussian(np.arange(n) * self.h, sigma)
        self.row = np.concatenate([t[:0:-1], t])
        self.t = self.row[n - 1:]
        self.length = 1 << (2 * n - 2).bit_length()
        self.ends = np.ones(n)
        self.ends[[0, -1]] = 0.5

    def masses(self):
        """Each row's mass, ``sum_j T(|j - i|) w_j``, by prefix sums of the 2N-1 row.

        Every row holds k = 0, its largest term, so the difference of two
        prefix sums does not cancel.  When the sums near the float range
        they are taken scaled by a power of two, which is exact, so a mass
        is infinite only when the row's own sum overflows.
        """
        n, h = self.size, self.h
        _, e_t = np.frexp(self.t[0])
        _, e_h = np.frexp(h)
        shift = max(int(e_t) + int(e_h) + (2 * n).bit_length() - 1000, 0)
        u = np.ldexp(self.row, -shift) * h      # the row at interior weight h, scaled
        s = np.zeros(2 * n)
        np.cumsum(u, out=s[1:])
        mass = (s[n:] - s[:n])[::-1]           # row i: s[2N-1-i] - s[N-1-i]
        u = u[n - 1:]                          # T(k) h for k = 0..N-1
        mass -= 0.5 * (u + u[::-1])            # the end columns weigh h / 2
        with np.errstate(over="ignore"):
            return np.ldexp(mass, shift)

    def right(self, v, out=None):
        """``A v = (T h) (D v)``; written into ``out`` when given."""
        return self._toeplitz(self.ends * v, out)

    def left(self, v, out=None):
        """``v A = D ((T h) v)``; written into ``out`` when given."""
        out = self._toeplitz(v, out)
        out *= self.ends
        return out

    @functools.cached_property
    def _spectrum(self):
        """The real spectrum of the circulant whose leading N x N block is T h.

        Reading ``np.fft`` here, on the first product, imports it: ``import
        qsdlab`` loads no FFT.
        """
        n = self.size
        column = np.zeros(self.length)
        column[:n] = self.t * self.h
        column[self.length - n + 1:] = column[n - 1:0:-1]
        return np.fft.rfft(column).real

    def _toeplitz(self, v, out):
        """``(T h) v``, one real-FFT product, written into ``out`` (new when None)."""
        product = np.fft.irfft(np.fft.rfft(v, self.length) * self._spectrum, self.length)
        product = product[:self.size]
        if out is None:
            return product
        out[...] = product
        return out

    def graph(self):
        """``matrix > ESCAPE_TOL_DEFAULT``: the runs of the 2N-1 row, then the two end columns.

        An interior column weighs h, so row i leads to j where ``T(|j - i|)
        h`` passes; the runs of that test along the 2N-1 row, shifted to
        row i, are the row's runs (one run ``|j - i| < K`` when T falls
        monotonically).  The end columns weigh h / 2, and a cell there is a
        correction where its own value's verdict differs.
        """
        n = self.size
        with np.errstate(over="ignore"):
            passes = self.row * self.h > ESCAPE_TOL_DEFAULT
            # the end columns 0 and N-1 of each row, at k = i and N-1-i
            rows, cols = np.tile(np.arange(n), 2), np.repeat([0, n - 1], n)
            k = np.abs(cols - rows)
            sign = ((self.t[k] * self.weights[cols] > ESCAPE_TOL_DEFAULT).astype(int)
                    - passes[n - 1 + k])
        _, a, b = _row_runs(passes[None, :])
        i = np.repeat(np.arange(n), a.size)
        start = np.clip(i + np.tile(a - (n - 1), n), 0, n)
        stop = np.clip(i + np.tile(b - (n - 1), n), 0, n)
        fix = sign != 0
        return EdgeRuns(n, i, start, stop, fix=(rows[fix], cols[fix], sign[fix]))

    def matrix(self):
        """The N x N matrix ``T(|j - i|) w_j``, filled into one allocation."""
        n = self.size
        return np.multiply(sliding_window_view(self.row, n)[::-1], self.weights,
                           out=np.empty((n, n)))


# ---------------------------------------------------------------------------
# density evaluation


def _window_runs(centers, nodes, lower, upper, halfwidth):
    """The runs of the moving window (c - w, c + w) on the grid nodes, one row per center.

    Returns ``(start, stop, (i, j, side))``: row i is 1 on its inside run
    ``start_i <= j < stop_i`` and 0 elsewhere, except at the edge cells
    (i, j), which take the value ``side``, each cell once.  Interior nodes
    that sit exactly on a window edge get the mean of the two one-sided
    limits (1/2); at a domain endpoint only the limit taken from inside
    [lower, upper] exists and is used alone.  This keeps trapezoid row sums
    exact when edges align with nodes and makes rows whose window only
    touches the domain come out exactly zero.

    ``nodes`` must be nondecreasing, as a ``StateGrid``'s are.  Row i reads
    t_j = fl(node_j - c_i), which is then nondecreasing in j because
    rounding is monotone, and so is any fl(t_j + s).  Each of the three tests
    on t therefore holds on one contiguous run of columns per row: inside,
    |t| < w - JUMP_ATOL (that is, -(w - JUMP_ATOL) < t < w - JUMP_ATOL), the
    left edge |fl(t + w)| <= JUMP_ATOL, and the right edge |fl(t - w)| <=
    JUMP_ATOL.  One binary search over all rows finds the six run ends by
    evaluating those same floating-point expressions at O(N log N) points.
    The left-edge and then the right-edge entries overwrite the inside ones,
    so a cell on both edges takes the right edge's value.  A NaN or infinite
    center fails every test and gives a zero row, and a key that overflows is
    +-inf, which keeps the order the search reads.
    """
    c = np.asarray(centers, dtype=float)
    y = np.asarray(nodes, dtype=float)
    n = y.size
    inner = halfwidth - JUMP_ATOL
    # run k is first[2k] <= j < first[2k + 1], where first[r] counts the leading
    # columns with fl(t + shift[r]) < floor[r]; key > v is key >= nextafter(v, inf)
    shift = np.array([0.0, 0.0, halfwidth, halfwidth, -halfwidth, -halfwidth])[:, None]
    above = np.nextafter(JUMP_ATOL, np.inf)
    floor = np.array([np.nextafter(-inner, np.inf), inner,
                      -JUMP_ATOL, above, -JUMP_ATOL, above])[:, None]
    first = np.zeros((6, c.size), dtype=np.intp)
    with np.errstate(over="ignore"):
        for step in (1 << k for k in reversed(range(n.bit_length()))):
            probe = first + (step - 1)
            key = y[np.minimum(probe, n - 1)] - c
            key += shift
            first += step * ((probe < n) & (key < floor))
    has_below = y > lower + JUMP_ATOL
    has_above = y < upper - JUMP_ATOL
    n_sides = np.maximum(has_below.astype(float) + has_above.astype(float), 1.0)
    # one-sided limits of the open-window indicator: left edge (below, above)
    # = (0, 1); right edge = (1, 0)
    cells = []
    for r, side in ((2, has_above / n_sides), (4, has_below / n_sides)):
        width = np.maximum(first[r + 1] - first[r], 0)
        i = np.repeat(np.arange(c.size), width)
        j = np.arange(width.sum()) + np.repeat(first[r] - (np.cumsum(width) - width), width)
        cells.append((i, j, side[j]))
    i, j, side = (np.concatenate(part) for part in zip(*cells))
    # the last entry of each cell is the one written: the right edge's
    _, last = np.unique((i * n + j)[::-1], return_index=True)
    keep = i.size - 1 - last
    return first[0], np.maximum(first[1], first[0]), (i[keep], j[keep], side[keep])


def _window_density(spec, x, nodes):
    """:func:`_window_runs` at ``x``, as ``(start, stop, (i, j), edge, inside)``: the density.

    A row is ``inside`` = fl(1/(2w)) on its run and ``edge`` = fl(side/(2w))
    at its edge cells (i, j).  A run needs w > JUMP_ATOL, where 1/(2w) is
    finite (``inside`` is 0 below, with no run to hold it), so only an edge
    value can fail ``_check_density`` (InvalidDomain).
    """
    w = float(spec.params["noise_halfwidth"])
    start, stop, (i, j, side) = _window_runs(_map_centers(spec, x), nodes, *spec.domain, w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        edge = side / (2 * w)
    if edge.size:
        _check_density(edge)
    return start, stop, (i, j), edge, 1 / (2 * w) if w > JUMP_ATOL else 0.0


def _map_centers(spec, x, out=None):
    """A window family's centers, by its record's ``centers``, into ``out`` if given."""
    with np.errstate(over="ignore"):   # an infinite center: a zero row, a dead path, no mass
        return FAMILIES[spec.family].centers(spec.params, np.asarray(x, dtype=float), out)


def _affine_centers(p, x, out):
    """``a x + b``, into ``out`` if given."""
    out = np.multiply(p["a"], x, out=out)
    out += p["b"]
    return out


def _cubic_centers(p, x, out):
    """``x**3``, into ``out`` if given."""
    return np.power(x, 3, out=out)


def _window_draw(spec, x, u, centers=None):
    """A window's next points, ``center + (2u - 1) w``, in place in u; centers into ``centers``."""
    u *= 2.0
    u -= 1.0
    u *= float(spec.params["noise_halfwidth"])
    return np.add(u, _map_centers(spec, x, out=centers), out=u)


def _gaussian_draw(spec, x, u, centers=None):
    """Next points from x of ``gaussian_shift``, ``x + sigma ndtri(u)``, in place in u."""
    from scipy.special import ndtri

    ndtri(u, out=u)
    u *= float(spec.params["sigma"])
    return np.add(u, x, out=u)


def _gaussian(t, sigma):
    """The N(0, sigma^2) density at the offsets ``t``, in place, by its ufuncs in order; checked."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t /= sigma
        t *= t
        t *= -0.5            # exact scaling: bitwise (-0.5 t) t
        np.exp(t, out=t)
        t /= sigma * math.sqrt(2 * math.pi)
    _check_density(t)
    return t


def _check_density(vals):
    """Refuse a computed density block with a value that is not finite (InvalidDomain).

    An indicator over 2w > 0 and a Gaussian over sigma sqrt(2 pi) > 0 are
    never negative, so finiteness is the whole range check.  min and max
    propagate NaN: no temporary the size of the block.
    """
    if not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
        raise InvalidDomain("density evaluated to a non-finite value")


def analytic_row_mass(spec, x):
    """Exact one-step survival mass P(x, M), by the record's ``row_mass``.

    Returns None for a family without one: a tabulated density (quadrature
    is all we have) or a finite chain.
    """
    mass = FAMILIES[spec.family].row_mass
    return None if mass is None else mass(spec, np.asarray(x, dtype=float))


def _window_mass(spec, x):
    """The window's overlap with the domain, over its width 2w."""
    lo, hi = spec.domain
    w = float(spec.params["noise_halfwidth"])
    c = _map_centers(spec, x)
    return np.maximum(np.minimum(hi, c + w) - np.maximum(lo, c - w), 0.0) / (2 * w)


def _gaussian_mass(spec, x):
    """The N(x, sigma^2) mass of the domain, by ``ndtr``."""
    from scipy.special import ndtr

    lo, hi = spec.domain
    sigma = float(spec.params["sigma"])
    return ndtr((hi - x) / sigma) - ndtr((lo - x) / sigma)


def _quadrature_grid(spec):
    """The spec's grid: states 0..n-1 of unit weight, or ``grid_size`` trapezoid nodes."""
    lo, hi = spec.domain
    n = spec.grid_size
    if spec.is_explicit:
        return StateGrid(lo, hi, np.arange(n, dtype=float), np.ones(n))
    nodes = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2
    return StateGrid(lo, hi, nodes, weights)


def _table(name, value, n=None):
    """A read-only float copy of a given table, once validated.

    The one check of an explicit chain's ``matrix`` and of a tabulated
    density's ``values`` (then ``n`` = ``grid_size``), called by
    ``KernelSpec`` alone.  Raises InvalidDomain (not numeric, not square and
    non-empty, not n x n, not finite) or NegativeDensity.
    """
    try:
        q = np.array(value, dtype=float)   # a copy: the caller's stays writable
    except (TypeError, ValueError) as exc:
        raise InvalidDomain(f"{name} is not a numeric array: {exc}") from None
    if q.ndim != 2 or q.shape[0] != q.shape[1] or not q.size:
        raise InvalidDomain(f"{name} must be square and non-empty")
    if n is not None and len(q) != n:
        raise InvalidDomain(f"{name} must be {n} x {n}, got {len(q)} x {len(q)}")
    if not np.isfinite(q).all():
        raise InvalidDomain(f"{name} has NaN or infinite entries")
    if q.min() < 0:
        raise NegativeDensity(f"{name} has negative entries")
    q.setflags(write=False)
    return q


def _check_row_sums(masses):
    """Refuse a kernel that is not sub-Markov: RowSumExceedsOne above 1 + 1e-12."""
    top = masses.max()
    if top > 1 + 1e-12:
        raise RowSumExceedsOne(f"row sum {top} exceeds one")


def build_operator(spec):
    """Realize a KernelSpec as a DiscreteOperator: its grid, its form and its escape nodes.

    The form is the family's record's ``form`` (:data:`FAMILIES`): a
    :class:`RunTable` for the two window families, a :class:`ToeplitzRow`
    for ``gaussian_shift`` and :class:`DenseRows` for the tables; the escape
    nodes come from the form's row masses.
    """
    grid = _quadrature_grid(spec)
    form = FAMILIES[spec.family].form(spec, grid)
    return DiscreteOperator(grid=grid, escape=_escape_nodes(spec, form.masses()), spec=spec,
                            form=form)


def _escape_nodes(spec, masses):
    """The escape nodes of ``spec``'s operator, from its row masses.

    Returns the frozenset of rows whose mass is at most
    ``ESCAPE_TOL_DEFAULT``.  A row mass that is not finite (finite densities
    whose product with the weights overflows) raises InvalidDomain; then a
    family whose record is ``sub_markov`` is held to the rule of explicit
    chains (``_check_row_sums``).
    """
    if not np.isfinite(masses).all():
        raise InvalidDomain("row masses overflow: the density times the weights is not finite")
    if FAMILIES[spec.family].sub_markov:
        _check_row_sums(masses)
    return frozenset(int(i) for i in np.flatnonzero(masses <= ESCAPE_TOL_DEFAULT))


def _row_runs(mask):
    """``(row, start, stop)``: the runs ``start <= j < stop`` of True in each row of ``mask``."""
    n, m = mask.shape
    padded = np.zeros((n, m + 2), dtype=bool)
    padded[:, 1:-1] = mask
    rows, cols = np.nonzero(padded[:, 1:] != padded[:, :-1])   # the runs' ends, in pairs
    return rows[::2], cols[::2], cols[1::2]


class EdgeRuns:
    """A graph held as column runs per row: the 0/1 twin of a run table.

    Row i leads to column j where j lies in one of the row's runs,
    ``start[r] <= j < stop[r]`` with ``row[r] == i``, and ``mask[j]`` holds
    (None: every column), except at the correction cells ``(rows, cols,
    sign)``: +1 adds the edge, -1 removes it.  A cell is counted at most
    once, so each count is 0 or 1.  :meth:`forward` and :meth:`backward`
    step a breadth-first search in O(N + runs + corrections), with no
    N x N array: forward by a difference array over the frontier rows'
    runs, backward by a prefix count of the frontier read at each run's two
    ends, so no transpose is made.
    """

    def __init__(self, size, row, start, stop, mask=None, fix=None):
        self.size, self.row, self.start, self.stop, self.mask = size, row, start, stop, mask
        empty = np.zeros(0, dtype=int)
        self.fix_rows, self.fix_cols, self.fix_sign = (empty,) * 3 if fix is None else fix

    def forward(self, frontier):
        """The nodes that some node of the boolean ``frontier`` leads to."""
        n = self.size
        sel = frontier[self.row]
        count = np.bincount(self.start[sel], minlength=n + 1)
        count -= np.bincount(self.stop[sel], minlength=n + 1)
        count = count[:n].cumsum()
        if self.mask is not None:
            count *= self.mask
        if self.fix_rows.size:
            sel = frontier[self.fix_rows]
            count = count + np.bincount(self.fix_cols[sel], self.fix_sign[sel], minlength=n)
        return count > 0

    def backward(self, frontier):
        """The nodes that lead to some node of the boolean ``frontier``."""
        n = self.size
        hit = frontier if self.mask is None else frontier & self.mask
        before = np.zeros(n + 1, dtype=int)
        hit.cumsum(out=before[1:])
        count = np.bincount(self.row, before[self.stop] - before[self.start], minlength=n)
        if self.fix_rows.size:
            count += np.bincount(self.fix_rows, self.fix_sign * frontier[self.fix_cols],
                                 minlength=n)
        return count > 0


# ---------------------------------------------------------------------------
# Hypothesis audits


@dataclass(frozen=True)
class ModulusReport:
    """Sampled continuity modulus of x -> g(x, .) in the L1(rho) norm."""

    deltas: np.ndarray
    sup_distances: np.ndarray
    probes: int
    grid_step: float
    verdict: str  # PASS | FAIL


def _fill_runs(start, stop, inside, cells, value, out):
    """Rows of ``out``: ``inside`` on each run ``start_i <= j < stop_i``, else 0, then edge cells.

    The boolean run mask, three runs a row (False, True, False), is copied
    into ``out`` and scaled by ``inside``, a scalar or a row of N, so no
    float temporary the size of ``out`` is made; ``inside`` must be finite,
    as 0 x inf is NaN.  The ``cells`` = (i, j) then take ``value``.
    """
    runs = np.stack([start, stop - start, out.shape[1] - stop], axis=1).ravel()
    mask = np.repeat(np.tile([False, True, False], start.size), runs).reshape(out.shape)
    np.copyto(out, mask)
    out *= inside
    out[cells] = value
    return out


def _window_rows(spec, nodes, sets):
    """``fill(k, out)``: a window family's density ``g(sets[k], nodes)``, written into ``out``.

    One :func:`_window_density` search covers the rows of every set, and
    :func:`_fill_runs` writes a set's rows.
    """
    p = sets[0].size
    start, stop, (rows, cols), edge, inside = _window_density(spec, np.concatenate(sets), nodes)
    ends = np.searchsorted(rows, np.arange(len(sets) + 1) * p)   # the cells come in row order

    def fill(k, out):
        at, run = slice(ends[k], ends[k + 1]), slice(k * p, (k + 1) * p)
        return _fill_runs(start[run], stop[run], inside, (rows[at] - k * p, cols[at]), edge[at],
                          out)

    return fill


def _gaussian_rows(spec, nodes, sets):
    """``fill(k, out)`` of ``gaussian_shift``, as :func:`_window_rows`, by :func:`_gaussian`."""
    sigma = float(spec.params["sigma"])

    def fill(k, out):
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(nodes[None, :], sets[k][:, None], out=out)
        return _gaussian(out, sigma)

    return fill


# ---------------------------------------------------------------------------
# the family table


class Family:
    """One kernel family: every choice of ``kernels`` and ``simulate`` that depends on it.

    ``params`` are its parameter names, each one required; ``form`` is the
    operator form ``build_operator`` makes; ``rows(spec, nodes, sets)`` is
    the H1 probe's row fill, or, for a family with no density off the grid
    nodes, the reason ``check_h1_modulus`` refuses with; ``centers(params,
    x, out)`` is a window's center map; ``draw(spec, x, u, centers=None)``
    is the Monte Carlo random map, in place in the uniform draws u (a finite
    chain draws by its inverse CDF, in ``simulate._mover``); ``row_mass(spec,
    x)`` is the exact one-step survival mass.  Each map is None where the
    family has none.  ``sub_markov``: ``_escape_nodes`` holds the operator
    to the explicit chains' row-sum rule.  The window families are exempt
    for now: where a window edge falls between nodes, their trapezoid row
    mass exceeds the true one by up to about h / 2w.  A plain class, not a
    dataclass, as it imports faster.
    """

    def __init__(self, params, form, rows, centers=None, draw=None, row_mass=None,
                 sub_markov=False):
        self.params, self.form, self.rows, self.centers = frozenset(params), form, rows, centers
        self.draw, self.row_mass, self.sub_markov = draw, row_mass, sub_markov


# every family, in the order the unknown-family message names them
FAMILIES = {
    # x -> a x + b + U[-w, w]
    "affine_uniform": Family({"a", "b", "noise_halfwidth"}, RunTable, _window_rows,
                             _affine_centers, _window_draw, _window_mass),
    # x -> x**3 + U[-w, w]
    "cubic_uniform": Family({"noise_halfwidth"}, RunTable, _window_rows, _cubic_centers,
                            _window_draw, _window_mass),
    # the density N(y; x, sigma^2)
    "gaussian_shift": Family({"sigma"}, ToeplitzRow, _gaussian_rows, draw=_gaussian_draw,
                             row_mass=_gaussian_mass, sub_markov=True),
    # g sampled on the grid: ``values``, an N x N row-major table
    "tabulated": Family({"values"}, DenseRows,
                        "a tabulated density exists only on the grid nodes", sub_markov=True),
    # a finite substochastic chain, its ``matrix`` taken verbatim
    "explicit_matrix": Family({"matrix"}, DenseRows, "finite chains have no density to probe"),
}


def check_h1_modulus(spec):
    """Probe the uniform L1 continuity of the density in its first argument.

    For the separations delta = (upper - lower) / 8 / 2**k, k = 0..5, down
    to half the grid step, reports the largest discretized L1 distance
    between g(x, .) and g(x + delta, .) over ``H1_PROBES`` equispaced x.  A
    finite probe set can only sample the modulus, so the report records the
    probe count and grid step rather than claiming proof; the verdict is PASS
    when the sampled modulus decreases to the grid floor.  Raises
    NotApplicable, with the record's reason, for a family whose record has
    no ``rows``: a finite chain, or a tabulated density, which has no values
    off the grid nodes.

    Each distance is ``(|gz - gx| @ weights).max()`` over one P x N block:
    the record's row fill (:func:`_window_rows`, from one search of the
    window runs over every probe set, or :func:`_gaussian_rows`) writes gx
    once and gz into one reused buffer.  A density value that is not finite
    raises InvalidDomain, as the build does.
    """
    rows = FAMILIES[spec.family].rows
    if isinstance(rows, str):
        raise NotApplicable(rows)
    lo, hi = spec.domain
    grid = _quadrature_grid(spec)
    h = grid.step
    top = (hi - lo) / 8
    deltas = [top / 2 ** k for k in range(6)]
    deltas = np.asarray([d for d in deltas if d >= h / 2] or [h])

    xs = np.linspace(lo, hi, H1_PROBES)
    sets = [xs] + [np.clip(xs + d, lo, hi) for d in deltas]
    fill = rows(spec, grid.nodes, sets)
    gx = fill(0, np.empty((H1_PROBES, grid.nodes.size)))
    gz = np.empty_like(gx)
    sups = np.empty(deltas.size)
    for k in range(deltas.size):
        np.subtract(fill(k + 1, gz), gx, out=gz)   # in place: |gz - gx| is bitwise |gx - gz|
        np.abs(gz, out=gz)
        sups[k] = (gz @ grid.weights).max()

    nonincreasing = bool(np.all(sups[1:] <= sups[:-1] * 1.05 + 1e-15))
    floor = 4 * h * max(float(gx.max()), 1.0)
    shrinks = sups[-1] <= max(0.5 * sups[0], floor)
    verdict = "PASS" if (nonincreasing and shrinks) else "FAIL"
    return ModulusReport(deltas=deltas, sup_distances=sups, probes=H1_PROBES,
                         grid_step=h, verdict=verdict)


@dataclass(frozen=True)
class ReachabilityReport:
    """Directed-graph audit of irreducibility on the non-escape nodes.

    ``node_class`` is the one place that assigns cyclic classes: for a
    single communicating class of period p, node v gets its breadth-first
    level from the first non-escape node, mod p, so every edge leads from
    class c to class c + 1 mod p.  It is -1 on escape nodes, and on every
    node when the graph is not strongly connected.
    """

    strongly_connected: bool
    n_components: int
    graph_period: int
    node_class: np.ndarray   # per node: cyclic class in 0..graph_period-1, or -1

    @property
    def verdict(self):
        return "PASS" if self.strongly_connected else "FAIL"

    @property
    def reducible_message(self):
        """Why the non-escape nodes are not one communicating class."""
        if self.n_components == 1:
            return "the only non-escape state has no self-loop"
        return f"{self.n_components} communicating classes"


def _bfs_levels(step, source, live):
    """Breadth-first search from ``source`` by ``step``, through ``live`` nodes only.

    ``step(frontier)`` maps a boolean frontier to the nodes it leads to
    (:meth:`EdgeRuns.forward` or :meth:`EdgeRuns.backward`).  Returns the
    levels (-1: unreached) and the gcd of ``level[u] + 1 - level[v]`` over
    edges u -> v out of reached nodes, which is the period of a strongly
    connected graph; it is taken per level, so no edge list is built.
    """
    level = np.full(len(live), -1)
    level[source] = 0
    frontier = level == 0
    d = g = 0
    while frontier.any():
        d += 1
        hit = step(frontier)
        hit &= live
        new = hit & (level < 0)
        level[new] = d
        g = int(np.gcd.reduce(d - level[hit], initial=g))
        frontier = new
    return level, g


def check_h2_reachability(op):
    """Audit reachability of every node from every node among non-escape nodes.

    Edges are entries of the discretized kernel above the escape tolerance,
    ``op.graph()``, which fills no matrix; see :func:`reachability`.
    """
    return reachability(op.escape, op.graph())


def reachability(escape, runs):
    """The H2 audit of a graph held as :class:`EdgeRuns`.

    Among the nodes not in ``escape``, reports the number of strongly
    connected components and, for a single communicating class, its graph
    period and each node's cyclic class (see :class:`ReachabilityReport`),
    from the first forward search.  The searches step over the runs, onto
    non-escape nodes only, in O(N) memory.  One class is strongly connected
    when its forward search meets a reached node, that is when it has a
    cycle: always for two nodes or more, and for a lone node exactly when it
    has a self-loop.
    """
    live = np.ones(runs.size, dtype=bool)
    live[list(escape)] = False
    keep = np.flatnonzero(live)
    if keep.size == 0:
        raise AllNodesEscape("no non-escape nodes")
    # strongly connected components: peel off forward & backward reach
    unseen = live.copy()
    periods = []   # from each forward search: the graph period when there is one class
    while unseen.any():
        i = int(np.argmax(unseen))
        level, period = _bfs_levels(runs.forward, i, live)
        unseen &= ~((level >= 0) & (_bfs_levels(runs.backward, i, live)[0] >= 0))
        if not periods:
            first_level = level
        periods.append(period)
    n_comp = len(periods)
    connected = n_comp == 1 and periods[0] > 0
    node_class = np.full(runs.size, -1)
    if connected:
        node_class[keep] = first_level[keep] % periods[0]
    node_class.setflags(write=False)
    return ReachabilityReport(
        strongly_connected=connected,
        n_components=n_comp,
        graph_period=periods[0] if connected else 0,
        node_class=node_class,
    )
