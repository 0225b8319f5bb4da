"""The H1 probe read from the window runs gives the bytes of the dense probe.

``check_h1_modulus`` builds each window block ``|g(z, .) - g(x, .)|`` from
the row runs of one ``_window_runs`` search, and evaluates the Gaussian
rows into two reused buffers.  The reference below is the dense probe:
every row of g, from the elementwise ``ref_window_values`` or the
Gaussian's ufuncs in order, then ``|gz - gx| @ weights`` and its max, and
the same verdict rule.  On drawn window and Gaussian specs both must give
the same verdict, deltas, sup distances and grid step, bit for bit, or the
same error.  One ``verify-hypothesis`` searches the window runs twice, and
the probe holds about two P x N blocks at a time.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import kernels
from qsdlab.cli import main
from qsdlab.errors import InvalidDomain, QsdlabError
from qsdlab.kernels import H1_PROBES, KernelSpec, _map_centers, _quadrature_grid, check_h1_modulus
from test_build_bytes import ref_window_values


def ref_probe_density(spec, x, y):
    """g(x, y) for probes x off the grid, refused when a value is not finite."""
    p = spec.params
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.family == "gaussian_shift":
            sigma = float(p["sigma"])
            t = y[None, :] - x[:, None]
            t = t / sigma
            t = t * t
            t = t * -0.5
            vals = np.exp(t) / (sigma * math.sqrt(2 * math.pi))
        else:
            w = float(p["noise_halfwidth"])
            vals = ref_window_values(_map_centers(spec, x), y, *spec.domain, w) / (2 * w)
    if not np.isfinite(vals).all():
        raise InvalidDomain("density evaluated to a non-finite value")
    return vals


def ref_h1(spec):
    """The dense probe: (verdict, deltas, sup distances, grid step)."""
    lo, hi = spec.domain
    grid = _quadrature_grid(spec)
    h = grid.step
    top = (hi - lo) / 8
    deltas = np.asarray([d for d in (top / 2 ** k for k in range(6)) if d >= h / 2] or [h])
    xs = np.linspace(lo, hi, H1_PROBES)
    gx = ref_probe_density(spec, xs, grid.nodes)
    gz = [ref_probe_density(spec, np.clip(xs + d, lo, hi), grid.nodes) for d in deltas]
    sups = np.asarray([float((np.abs(g - gx) @ grid.weights).max()) for g in gz])
    nonincreasing = bool(np.all(sups[1:] <= sups[:-1] * 1.05 + 1e-15))
    floor = 4 * h * max(float(gx.max()), 1.0)
    shrinks = sups[-1] <= max(0.5 * sups[0], floor)
    return ("PASS" if nonincreasing and shrinks else "FAIL", deltas.tobytes(),
            sups.tobytes(), h)


def h1(spec):
    """``check_h1_modulus(spec)`` as ``ref_h1`` gives it."""
    rep = check_h1_modulus(spec)
    assert rep.probes == H1_PROBES
    return rep.verdict, rep.deltas.tobytes(), rep.sup_distances.tobytes(), rep.grid_step


def _outcome(fn, spec):
    try:
        return fn(spec)
    except QsdlabError as exc:
        return type(exc), str(exc)


@st.composite
def probe_specs(draw):
    family = draw(st.sampled_from(["affine_uniform", "cubic_uniform", "gaussian_shift"]))
    # 64 and 127 nodes put every probe x on a node; 11 gives two separations
    n = draw(st.one_of(st.sampled_from([2, 3, 11, 64, 127]), st.integers(2, 400)))
    lower = draw(st.sampled_from([-1.0, -2.0, 0.0, -0.3]))
    width = draw(st.sampled_from([1.0, 2.0, 4.0, 0.7]))
    if family == "cubic_uniform" and draw(st.integers(0, 4)) == 0:
        lower, width = -1e200, 2e200            # x**3 overflows beyond |x| = 5.6e102
    h = width / (n - 1)
    if family == "gaussian_shift":
        sigma = draw(st.one_of(st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e * width),
                               st.just(1e-310)))
        params = {"sigma": sigma}
    else:
        w = draw(st.one_of(
            st.floats(1e-3, 0.999).map(lambda u: u * h),        # narrower than a grid step
            st.floats(1.001, 4.0).map(lambda u: u * width),     # wider than the domain
            st.integers(1, 2 * n).map(lambda m: m * h),         # edges on nodes
            st.floats(0.01, 1.0).map(lambda u: u * width),
            st.just(1e-310),
        ))
        params = {"noise_halfwidth": w}
        if family == "affine_uniform":
            a = draw(st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), st.floats(-4.0, 4.0)))
            b = draw(st.one_of(st.integers(-n, n).map(lambda m: m * h), st.floats(-2.0, 2.0)))
            params = {"a": a, "b": b, **params}
    return KernelSpec(family=family, domain=(lower, lower + width), grid_size=n, params=params)


@settings(max_examples=200, deadline=None)
@given(spec=probe_specs())
# the density 1/(2w) overflows at the probe x = upper: refused
@example(spec=KernelSpec(family="affine_uniform", domain=(-1.0, 1.0), grid_size=11,
                         params={"a": 1.0, "b": 0.0, "noise_halfwidth": 1e-310}))
# the Gaussian's peak 1/(sigma sqrt(2 pi)) overflows: refused
@example(spec=KernelSpec(family="gaussian_shift", domain=(-1.0, 1.0), grid_size=11,
                         params={"sigma": 1e-310}))
# cubic centers that overflow to +-inf: zero rows
@example(spec=KernelSpec(family="cubic_uniform", domain=(-1e200, 1e200), grid_size=11,
                         params={"noise_halfwidth": 1.0}))
# two nodes: the one separation h; every probe row of a narrow window empty
@example(spec=KernelSpec(family="affine_uniform", domain=(-1.0, 1.0), grid_size=2,
                         params={"a": 2.0, "b": 0.0, "noise_halfwidth": 1.0}))
@example(spec=KernelSpec(family="affine_uniform", domain=(-1.0, 1.0), grid_size=2,
                         params={"a": 1.0, "b": 0.5, "noise_halfwidth": 1e-3}))
@example(spec=KernelSpec(family="gaussian_shift", domain=(-1.0, 1.0), grid_size=2,
                         params={"sigma": 1.0}))
# every probe on a node, window edges on nodes
@example(spec=KernelSpec(family="affine_uniform", domain=(0.0, 1.0), grid_size=127,
                         params={"a": 1.0, "b": 3 / 126, "noise_halfwidth": 5 / 126}))
def test_h1_matches_the_dense_probe(spec):
    assert _outcome(h1, spec) == _outcome(ref_h1, spec)


@pytest.mark.parametrize("name", ["example21", "example22cubic", "example23gauss"])
def test_h1_matches_the_dense_probe_on_the_bundled_systems(name):
    for n in (2, 3, 11, 401, 1601):
        spec = q.get_spec(name, grid_size=n)
        assert _outcome(h1, spec) == _outcome(ref_h1, spec), n


def test_verify_hypothesis_searches_the_window_runs_twice(monkeypatch, tmp_path):
    # once for the operator, once for all seven probe sets of H1
    searches = []
    search = kernels._window_runs
    monkeypatch.setattr(kernels, "_window_runs", lambda *a: searches.append(a) or search(*a))
    assert main(["verify-hypothesis", "--spec", "example21", "--grid-size", "1601",
                 "--out", str(tmp_path), "--canonical"]) == 0
    assert [np.size(a[0]) for a in searches] == [1601, 7 * H1_PROBES]


@pytest.mark.parametrize("name", ["example21", "example22cubic", "example23gauss"])
def test_h1_peak_memory(name):
    # two P x N blocks at a time, a little over; three with the dense rows
    n = 1601
    spec = q.get_spec(name, grid_size=n)
    block = H1_PROBES * n * 8
    tracemalloc.start()
    try:
        check_h1_modulus(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block, peak / block
