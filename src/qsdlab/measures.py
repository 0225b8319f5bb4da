"""Distances and norms on grid measures.

Two conventions coexist and are used for different jobs:

* ``tv_distance(p, q)`` -- half the L1 distance between two mass vectors.
  This is the total-variation *distance* between probability laws
  (sup over events of the probability difference) and is what every
  convergence-rate statement in this package uses.

* ``variation_norm(nu)`` -- the full variation ``sum(|nu_i|)`` of a signed
  measure, so a point mass has norm 1 and a difference of point masses has
  norm 2.  Residuals of eigen-decompositions and decay curves use this one.
"""

import numpy as np


def tv_distance(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def variation_norm(nu):
    return float(np.abs(np.asarray(nu)).sum())
