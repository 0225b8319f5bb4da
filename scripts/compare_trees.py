#!/usr/bin/env python3
"""Compare two qsdlab output trees number by number.

    python scripts/compare_trees.py A B

A and B are trees written by ``scripts/run_pipeline.py`` or by the CLI with
``--canonical`` (one directory per command or a single report directory).
Both must hold the same files.  JSON reports are compared value by value and
CSV files cell by cell, under three rules:

- spectral numbers (``lambda``, ``subdominant_radius``, ``eigvals``, ``f``,
  ``mu``, ``qsd``, ``qed``, ``residuals``, the ``tv`` column of TV curves and
  the TV-against-mu estimate of ``simulate``) agree within 1e-12 relative or
  1e-14 absolute;
- rate fits keep their ``model`` and ``passed``, ``rate`` agrees within
  1e-3 relative, and ``constant`` and ``r2`` within 1e-2 relative: the fit
  window reaches the rounding floor of the TV curve, so the fit moves more
  than the curve does, and the constant, extrapolated to n = 0 from a window
  some tens of steps long, moves about that many times more than the rate;
- everything else, and every other file, matches exactly.

Under a tolerance, equal numbers agree (infinities too) and NaN agrees with
nothing.

Prints one line per miss and a summary, and exits 1 on any miss.
"""

import argparse
import csv
import json
import os
import sys

SPECTRAL_KEYS = {"lambda", "subdominant_radius", "eigvals", "f", "mu", "qsd", "qed",
                 "residuals"}
FIT_PARENTS = {"rates", "rate_fit"}
FIT_TOL = {"rate": (1e-3, 0.0), "constant": (1e-2, 0.0), "r2": (1e-2, 0.0)}
SPECTRAL_TOL = (1e-12, 1e-14)   # (relative, absolute)


def close(a, b, tol):
    rel, abs_ = tol
    return a == b or abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)   # inf - inf is NaN


def json_tolerance(path):
    """Tolerance for the JSON value at ``path`` (keys and indices), None for exact."""
    if path and path[0] in SPECTRAL_KEYS:
        return SPECTRAL_TOL
    if path and path[0] in FIT_PARENTS and path[-1] in FIT_TOL:
        return FIT_TOL[path[-1]]
    return None


def compare_json(a, b, path, misses):
    """Walk two JSON values side by side; returns the count of leaves compared."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            misses.append((path, sorted(a), sorted(b)))
            return 0
        return sum(compare_json(a[k], b[k], path + (k,), misses) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            misses.append((path, f"{len(a)} items", f"{len(b)} items"))
            return 0
        return sum(compare_json(x, y, path + (i,), misses) for i, (x, y) in enumerate(zip(a, b)))
    tol = json_tolerance(path)
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    same = close(a, b, tol) if tol and numeric else (type(a) is type(b) and repr(a) == repr(b))
    if not same:
        misses.append((path, a, b))
    return 1


def compare_csv(a_rows, b_rows, misses):
    if len(a_rows) != len(b_rows) or (a_rows and a_rows[0] != b_rows[0]):
        misses.append(((), f"{len(a_rows)} rows", f"{len(b_rows)} rows"))
        return 0
    header, count = (a_rows[0] if a_rows else []), 0
    for i, (ra, rb) in enumerate(zip(a_rows[1:], b_rows[1:]), start=1):
        if len(ra) != len(rb):
            misses.append(((i,), ra, rb))
            continue
        kind = dict(zip(header, ra)).get("kind", "")
        for col, x, y in zip(header, ra, rb):
            count += 1
            if col == "tv" or (col == "value" and "_tv_" in kind):
                same = close(float(x), float(y), SPECTRAL_TOL)
            else:
                same = x == y
            if not same:
                misses.append(((i, col), x, y))
    return count


def compare_trees(root_a, root_b):
    """Compare every file under the two roots; returns the number of misses."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    fa, fb = files(root_a), files(root_b)
    n_miss = 0
    for rel in sorted(fa ^ fb):
        print(f"{rel}: only in {root_a if rel in fa else root_b}")
        n_miss += 1
    values = 0
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(root_a, rel), os.path.join(root_b, rel)
        misses = []
        if rel.endswith(".json"):
            with open(pa) as fp_a, open(pb) as fp_b:
                values += compare_json(json.load(fp_a), json.load(fp_b), (), misses)
        elif rel.endswith(".csv"):
            with open(pa, newline="") as fp_a, open(pb, newline="") as fp_b:
                values += compare_csv(list(csv.reader(fp_a)), list(csv.reader(fp_b)), misses)
        else:
            with open(pa, "rb") as fp_a, open(pb, "rb") as fp_b:
                if fp_a.read() != fp_b.read():
                    misses.append(((), "bytes differ", ""))
        for path, x, y in misses:
            where = "".join(f"[{k!r}]" for k in path)
            print(f"{rel}{where}: {x!r} != {y!r}")
        n_miss += len(misses)
    print(f"{len(fa | fb)} files, {values} values compared, {n_miss} misses")
    return n_miss


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            ap.error(f"{root} is not a directory")
    sys.exit(1 if compare_trees(args.a, args.b) else 0)
