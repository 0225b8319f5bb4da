"""The operator's two actions, ``DiscreteOperator.right`` and ``left``.

Every reader applies the operator through them.  A dense operator must
give the bytes of the products they replaced: ``A @ v`` and ``v @ A``, the
``np.dot(v, A.T)`` of the old mass-decay orbit and the ``A.T @ v`` of the
old left Arnoldi run.  A window operator applies its run table by prefix
sums, which differ from those products by rounding alone: each result is
a difference of two running sums, so it is held to ``4 N eps`` times the
absolute terms they add, against the matrix it builds on first read.  The
Gaussian's Toeplitz row acts by one FFT product, held to the FFT's
rounding bound (``fft_bounds``) against its matrix, on the session
operator and on drawn sigmas, domains and sizes.  A complex v was always
applied as its real and imaginary parts, so its reference is taken part
by part too.  And every reader but the dense eigensolves must answer from
the actions alone.  The inputs hold every form: the session operators
(explicit chains, window and Gaussian kernels) and a tabulated band.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import kernels
from qsdlab.errors import QsdlabError
from qsdlab.kernels import KernelSpec, RunTable, ToeplitzRow, check_h2_reachability

SESSION_OPS = ("sym2", "cycle2", "cycle3", "ds3",
               "example21_201", "example22_201", "example23_101", "tabulated_band")


def tabulated_band(n=60):
    """A tabulated density on [0, 1]: drawn values on the band |i - j| <= 3, row masses below 7/8."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    values = np.where(np.abs(i[:, None] - i) <= 3, rng.uniform(0.5, 1.0, (n, n)), 0.0)
    return KernelSpec(family="tabulated", domain=(0.0, 1.0), grid_size=n,
                      params={"values": values * (n - 1) / 8})


@pytest.fixture(scope="module")
def inputs(ops, sds):
    """The session operators and their spectra, and the tabulated band's."""
    band = q.build_operator(tabulated_band())
    return ({**ops, "tabulated_band": band},
            {**sds, "tabulated_band": q.peripheral_spectrum(band)})


@pytest.fixture(scope="module")
def example21_1601():
    return q.build_operator(q.get_spec("example21", grid_size=1601))


def _by_parts(product, v):
    """``product`` of v, applied to the real and imaginary parts of a complex v."""
    if np.iscomplexobj(v):
        return product(v.real) + 1j * product(v.imag)
    return product(v)


def _vectors(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        yield rng.standard_normal(n)
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)


def prefix_sum_bounds(runs, v):
    """Rounding bounds of a run table's ``right(v)`` and ``left(v)``, for a real v.

    ``4 N eps`` times the absolute terms the two running sums add: ``sum_j
    c_j |v_j|`` for ``right`` and ``max_j c_j sum_i |v_i|`` for ``left``,
    plus the edge corrections.  A sum that overflows bounds nothing: inf.
    """
    scale = 4 * runs.size * np.finfo(float).eps
    fix = np.abs(runs.correction)
    with np.errstate(over="ignore"):
        right = runs.c @ np.abs(v) + fix @ np.abs(v[runs.cols])
        left = runs.c.max() * np.abs(v).sum() + fix @ np.abs(v[runs.rows])
    return scale * right, scale * left


def fft_bounds(row, v):
    """Rounding bounds of a Toeplitz row's ``right(v)`` and ``left(v)`` against the dense products.

    For a real v.  Each action is ``(T h) u``, u = D v for ``right`` and v
    for ``left`` (D = diag(1/2, 1, ..., 1, 1/2) is exact), by three real
    FFTs of length L, each off by ``log2(L) eta`` in the 2-norm with eta =
    7 eps (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., 2002, section 24.1).  With c the circulant's first column and
    ``|F c|_inf <= |c|_1``, ``|F u|_inf <= |u|_1``, that is, to first order,
    ``2 log2(L) eta (|c|_1 |u|_2 + |c|_2 |u|_1)`` in the sup.  The dense
    product adds ``(N + 2) eps |c|_1 |u|_inf``.  The bound is relative to
    the sup of the terms, not to each entry.
    """
    eps = np.finfo(float).eps
    c = row.t * row.h
    c1 = c[0] + 2 * c[1:].sum()
    c2 = math.sqrt(c[0] ** 2 + 2 * (c[1:] ** 2).sum())

    def bound(u):
        fft = 2 * math.log2(row.length) * 7 * eps * (c1 * np.linalg.norm(u) + c2 * np.abs(u).sum())
        return fft + (row.size + 2) * eps * c1 * np.abs(u).max()

    return bound(row.ends * v), bound(v)


def _assert_near(got, want, v, bounds):
    for part in (np.real, np.imag) if np.iscomplexobj(v) else (np.real,):
        bound_right, bound_left = bounds(part(v))
        assert np.abs(part(got[0]) - part(want[0])).max() <= bound_right
        assert np.abs(part(got[1]) - part(want[1])).max() <= bound_left


def _assert_action_bytes(op):
    a = op.matrix
    bounds = {RunTable: prefix_sum_bounds, ToeplitzRow: fft_bounds}.get(type(op.form))
    for v in _vectors(op.size, op.size):
        right, left = op.right(v), op.left(v)
        if bounds is None:
            assert right.tobytes() == _by_parts(lambda u: a @ u, v).tobytes()
            assert right.tobytes() == _by_parts(lambda u: np.dot(u, a.T), v).tobytes()
            assert left.tobytes() == _by_parts(lambda u: u @ a, v).tobytes()
            assert left.tobytes() == _by_parts(lambda u: a.T @ u, v).tobytes()
        else:
            _assert_near((right, left), (_by_parts(lambda u: a @ u, v),
                                         _by_parts(lambda u: u @ a, v)), v,
                         lambda u: bounds(op.form, u))
        if not np.iscomplexobj(v):
            out = np.empty(op.size)
            assert op.right(v, out=out) is out and out.tobytes() == right.tobytes()
            assert op.left(v, out=out) is out and out.tobytes() == left.tobytes()


@pytest.mark.parametrize("name", SESSION_OPS)
def test_actions_keep_the_product_bytes(inputs, name):
    _assert_action_bytes(inputs[0][name])


def test_actions_keep_the_product_bytes_at_1601(example21_1601):
    _assert_action_bytes(example21_1601)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 2000), lower=st.floats(-5, 5), log_width=st.floats(-3, 3),
       log_sigma=st.floats(-4, 1), seed=st.integers(0, 2 ** 31 - 1))
def test_gaussian_fft_actions_meet_the_rounding_bound(n, lower, log_width, log_sigma, seed):
    # sigma from 1e-4 to 10 widths: the narrow ones leave T(k) = 0 past a few
    # nodes, and a row mass above one, which the form itself does not refuse
    width = 10.0 ** log_width
    spec = KernelSpec(family="gaussian_shift", domain=(lower, lower + width), grid_size=n,
                      params={"sigma": width * 10.0 ** log_sigma})
    row = ToeplitzRow(spec, kernels._quadrature_grid(spec))
    a = row.matrix()
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-5, 5, n)
    for v in (rng.standard_normal(n), rng.random(n), rng.standard_normal(n) * scales):
        bound_right, bound_left = fft_bounds(row, v)
        assert np.abs(row.right(v) - a @ v).max() <= bound_right
        assert np.abs(row.left(v) - v @ a).max() <= bound_left
        out = np.empty(n)
        assert row.right(v, out=out) is out and out.tobytes() == row.right(v).tobytes()
        assert row.left(v, out=out) is out and out.tobytes() == row.left(v).tobytes()


def test_gaussian_analysis_fills_no_matrix():
    # on the Arnoldi route the Gaussian is read through its FFT actions alone
    op = q.build_operator(q.get_spec("example23gauss", grid_size=801))
    sd = q.peripheral_spectrum(op)
    nu0 = np.zeros(op.size)
    nu0[op.size // 4] = 1.0
    assert q.fit_yaglom_rate(op, nu0, sd=sd).passed
    q.mass_decay_check(op)
    assert "matrix" not in vars(op) and "dense" not in vars(op.form)


class ActionsOnly:
    """The operator seen through its actions: ``right``, ``left`` and no ``matrix``."""

    def __init__(self, op):
        self.right, self.left = op.right, op.left
        self.size, self.escape, self.spec, self.grid = op.size, op.escape, op.spec, op.grid


def _fingerprint(result):
    """Bytes of each array field and repr of every other, or the refusal."""
    if isinstance(result, QsdlabError):
        return type(result).__name__, str(result)
    if not dataclasses.is_dataclass(result):
        return _fingerprint_value(result)
    return {f.name: _fingerprint_value(getattr(result, f.name))
            for f in dataclasses.fields(result) if f.name not in ("op", "reach")}


def _fingerprint_value(value):
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def _answer(fn, *args, **kwargs):
    try:
        return _fingerprint(fn(*args, **kwargs))
    except QsdlabError as exc:
        return _fingerprint(exc)


@pytest.mark.parametrize("name", SESSION_OPS)
def test_readers_need_no_matrix(inputs, name):
    op, sd = inputs[0][name], inputs[1][name]
    proxy = ActionsOnly(op)
    assert not hasattr(proxy, "matrix")
    nu0 = np.zeros(op.size)
    nu0[int(np.flatnonzero(sd.reach.node_class >= 0)[0])] = 1.0
    calls = [(q.yaglom_iterate, nu0, 7), (q.mass_decay_check,)]
    if sd.period_m == 1:
        calls.append((q.fit_yaglom_rate, nu0))
    else:
        calls += [(q.cesaro_fit, nu0), (lambda o: q.cyclic_components(sd, o),)]
    for fn, *args in calls:
        kwargs = {"sd": sd} if fn in (q.fit_yaglom_rate, q.cesaro_fit) else {}
        assert _answer(fn, proxy, *args, **kwargs) == _answer(fn, op, *args, **kwargs), fn


def test_arnoldi_route_needs_no_matrix(example21_1601):
    op = example21_1601
    proxy = ActionsOnly(op)
    sd = q.peripheral_spectrum(proxy, reach=check_h2_reachability(op))
    assert sd.op is proxy and _fingerprint(sd) == _fingerprint(q.peripheral_spectrum(op))
