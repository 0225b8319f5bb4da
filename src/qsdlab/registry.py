"""Bundled kernel definitions used by the docs, tests and CLI.

Names are fixed:

* example21      affine doubling with uniform noise on [-1, 1]
* example22cubic cubic map with wide uniform noise on [-2, 2]
* example23gauss identity with unit Gaussian noise on [-1, 1]
* sym2           symmetric 2-state substochastic chain
* cycle2         2-state cycle with unequal transfer rates
* cycle3         three blocks of two states, uniformly cycled, scale 0.9
* ds3            asymmetric 3-state chain whose ergodic and survival
                 measures differ (the QSD/QED discriminator)
"""

import numpy as np

from .kernels import KernelSpec

_CYCLE3_BLOCKS = ((0, 1), (2, 3), (4, 5))


def _cycle3_matrix():
    q = np.zeros((6, 6))
    for b, block in enumerate(_CYCLE3_BLOCKS):
        nxt = _CYCLE3_BLOCKS[(b + 1) % 3]
        for i in block:
            for j in nxt:
                q[i, j] = 0.9 / len(nxt)
    return q


_EXPLICIT = {
    "sym2": [[0.5, 0.25], [0.25, 0.5]],
    "cycle2": [[0.0, 0.6], [0.4, 0.0]],
    "cycle3": _cycle3_matrix().tolist(),
    "ds3": [[0.4, 0.3, 0.0], [0.2, 0.4, 0.2], [0.0, 0.3, 0.4]],
}

_DEFAULT_GRID = {"example21": 401, "example22cubic": 401, "example23gauss": 201}


def builtin_names():
    return tuple(sorted(list(_EXPLICIT) + list(_DEFAULT_GRID)))


def get_spec(name, grid_size=None):
    """Resolve a bundled name to a KernelSpec; grid_size None takes the default."""
    if grid_size is None:
        grid_size = _DEFAULT_GRID.get(name)
    if name == "example21":
        return KernelSpec(domain=(-1.0, 1.0), family="affine_uniform",
                          params={"a": 2.0, "b": 0.0, "noise_halfwidth": 1.0},
                          grid_size=grid_size, name=name)
    if name == "example22cubic":
        return KernelSpec(domain=(-2.0, 2.0), family="cubic_uniform",
                          params={"noise_halfwidth": 6.0},
                          grid_size=grid_size, name=name)
    if name == "example23gauss":
        return KernelSpec(domain=(-1.0, 1.0), family="gaussian_shift",
                          params={"sigma": 1.0},
                          grid_size=grid_size, name=name)
    if name in _EXPLICIT:
        return KernelSpec(family="explicit_matrix", params={"matrix": _EXPLICIT[name]},
                          grid_size=grid_size, name=name)
    raise KeyError(f"unknown bundled spec {name!r}; known: {builtin_names()}")
