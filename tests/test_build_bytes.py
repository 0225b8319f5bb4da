"""The kernel matrix is built byte for byte as by the plain reference below.

``ref_matrix`` keeps the straightforward construction: the window indicator
with two full ``np.where`` passes for the edge values, out-of-place division
by the noise width, the Gaussian at the grid offsets ``|j - i| h`` with the
weights' own step h, and an out-of-place product with the quadrature
weights.  ``build_operator`` fills the few edge entries by index, and the
Gaussian from its Toeplitz row, to keep fewer N x N temporaries alive; both
must give the same bytes.
"""

import math

import numpy as np
import pytest

import qsdlab as q
from qsdlab.kernels import JUMP_ATOL, KernelSpec, _map_centers, _quadrature_grid


def ref_window_values(centers, nodes, lower, upper, halfwidth):
    c = np.asarray(centers, dtype=float)[:, None]
    y = np.asarray(nodes, dtype=float)[None, :]
    t = y - c
    inside = np.abs(t) < halfwidth - JUMP_ATOL
    at_left = np.abs(t + halfwidth) <= JUMP_ATOL
    at_right = np.abs(t - halfwidth) <= JUMP_ATOL
    has_below = y > lower + JUMP_ATOL
    has_above = y < upper - JUMP_ATOL
    n_sides = np.maximum(has_below.astype(float) + has_above.astype(float), 1.0)
    n_sides = np.broadcast_to(n_sides, t.shape)
    val = inside.astype(float)
    val = np.where(at_left, np.broadcast_to(has_above, t.shape) / n_sides, val)
    val = np.where(at_right, np.broadcast_to(has_below, t.shape) / n_sides, val)
    return val


def ref_density(spec, x, y):
    lo, hi = spec.domain
    p = spec.params
    if spec.family in ("affine_uniform", "cubic_uniform"):
        w = float(p["noise_halfwidth"])
        vals = ref_window_values(_map_centers(spec, x), y, lo, hi, w) / (2 * w)
    elif spec.family == "gaussian_shift":
        # on the grid, node_j - node_i is (j - i) h
        sigma = float(p["sigma"])
        n = len(y)
        k = np.abs(np.arange(n)[None, :] - np.arange(len(x))[:, None])
        t = k * ((hi - lo) / (n - 1)) / sigma
        vals = np.exp(-0.5 * t * t) / (sigma * math.sqrt(2 * math.pi))
    else:
        vals = np.asarray(p["values"], dtype=float)
    return vals


def ref_matrix(spec):
    grid = _quadrature_grid(spec)
    return ref_density(spec, grid.nodes, grid.nodes) * grid.weights[None, :]


SPECS = {
    "example21@401": q.get_spec("example21", grid_size=401),
    "example21@1601": q.get_spec("example21", grid_size=1601),
    "example21@400": q.get_spec("example21", grid_size=400),
    "example22cubic@801": q.get_spec("example22cubic", grid_size=801),
    "example23gauss@801": q.get_spec("example23gauss", grid_size=801),
    "example23gauss-sigma0.3@301": KernelSpec(domain=(-1.0, 1.0), family="gaussian_shift",
                                              params={"sigma": 0.3}, grid_size=301),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_matrix_bytes_match_reference(name):
    spec = SPECS[name]
    assert q.build_operator(spec).matrix.tobytes() == ref_matrix(spec).tobytes()


def test_tabulated_values_are_not_scaled_in_place():
    # row masses 0.375 and 0.875: a sub-Markov table, which the build accepts
    values = np.array([[0.25, 0.5], [0.75, 1.0]])
    spec = KernelSpec(domain=(0.0, 1.0), family="tabulated", params={"values": values},
                      grid_size=2)
    matrix = q.build_operator(spec).matrix
    assert matrix.tobytes() == ref_matrix(spec).tobytes()
    assert values.tolist() == [[0.25, 0.5], [0.75, 1.0]]
