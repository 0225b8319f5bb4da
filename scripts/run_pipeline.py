#!/usr/bin/env python3
"""Run every same-behaviour case: the pipeline over the bundled systems and more.

    PYTHONPATH=src python scripts/run_pipeline.py --out DIR

Writes under DIR, with ``--canonical`` where the command takes it:

- <name>/ and <name>/yaglom/: analyze, verify-hypothesis and yaglom on each
  bundled system, with a one-line summary per system;
- mc/<name>_n_<n>[_x0_<x0>]/: seeded simulate, 1100000 paths (two chunks of
  the stream), seed 7, horizon n, from the default start or from x0; the
  horizons include n = 1 (one move, no fused moves) and n = 2 from a start
  whose first two moves each keep about 10% of the paths;
- mc/wide300/: seeded simulate, 200000 paths, seed 7, n 5, on
  mc/wide300.spec.json, a 300-state band chain written here first, whose
  states take two bytes;
- hyp/<name>_<N>/: verify-hypothesis on the continuous systems at 3 nodes
  (H1's one separation h), 11 (two separations), 401, 1601 and 2000 nodes,
  the largest grid the eigensolves allow;
- hyp/spec_<name>/: verify-hypothesis on each fixtures/*.spec.json, explicit
  chains included, and on hyp/tabulated.spec.json, a 400-node tabulated band
  with 20 zero rows at either end (escape rows), written here first;
- hyp/window_overflow/: verify-hypothesis on hyp/window_overflow.spec.json,
  affine_uniform with a = 2, b = 0 and w = 8e307 on [-8e307, 8e307] at 11
  nodes, written here first, whose window run search overflows to +-inf;
- lobo/<name>/: the exact cumulative-sum tables of the bundled chains;
- specs/<name>/: analyze on each fixtures/*.spec.json, parsed from JSON, not
  resolved by name, and on the tabulated band (its bytes depend on the
  OpenBLAS thread count);
- arnoldi/<name>_<N>/: analyze on the Arnoldi route, which a window or
  Gaussian operator takes at every size: example21 at 1601 and at 401, whose
  conditioned-law orbit ends in a replayed cycle, example22cubic and
  example23gauss at 801, and three small grids, example21 at 41,
  example23gauss at 61 and example22cubic at 11, where the window covers
  the domain;
- arnoldi/gauss_narrow_801/: analyze on arnoldi/gauss_narrow.spec.json, a
  Gaussian of sigma 0.02 on [-1, 1] at 801 nodes (sub/lambda 0.9986), written
  here first, whose Arnoldi runs restart.

Trees written from two versions of ``src`` should be byte-identical
(``diff -r``).  Exits 1 when any case fails.
"""

import argparse
import glob
import json
import os
import sys

from qsdlab.cli import main as cli
from qsdlab.registry import builtin_names

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures")
CONTINUOUS = ("example21", "example22cubic", "example23gauss")
CHAINS = ("sym2", "cycle2", "cycle3", "ds3")
# (system, horizon, start or None for the default)
SIMULATE = [("sym2", 4, None), ("ds3", 20, None), ("example21", 10, None),
            ("example22cubic", 5, None), ("example23gauss", 10, None),
            ("ds3", 20, "2"), ("cycle3", 6, "3"), ("example21", 10, "0.3"),
            ("example21", 2, "0.9"), ("sym2", 1, None)]
ARNOLDI = [("example21", 1601), ("example22cubic", 801), ("example23gauss", 801),
           ("example21", 401), ("example21", 41), ("example23gauss", 61),
           ("example22cubic", 11)]
BAND = os.path.join("hyp", "tabulated.spec.json")   # under the --out root
WIDE = os.path.join("mc", "wide300.spec.json")
NARROW = os.path.join("arnoldi", "gauss_narrow.spec.json")
OVERFLOW = os.path.join("hyp", "window_overflow.spec.json")


def cases(root):
    """Every case as ``(out, commands)``: a directory and the argvs, less ``--out``, filling it."""
    runs = []
    for name in builtin_names():
        out = os.path.join(root, name)
        runs += [(out, [["analyze", "--spec", name, "--canonical"],
                        ["verify-hypothesis", "--spec", name, "--canonical"]]),
                 (os.path.join(out, "yaglom"), [["yaglom", "--spec", name, "--canonical"]])]
    for name, n, x0 in SIMULATE:
        start = [] if x0 is None else ["--x0", x0]
        mc = f"{name}_n_{n}" + ("" if x0 is None else f"_x0_{x0}")
        runs.append((os.path.join(root, "mc", mc),
                     [["simulate", "--spec", name, "--n", str(n), *start,
                       "--n-paths", "1100000", "--seed", "7"]]))
    runs.append((os.path.join(root, "mc", "wide300"),
                 [["simulate", "--spec", os.path.join(root, WIDE), "--n", "5",
                   "--n-paths", "200000", "--seed", "7"]]))
    for name in CONTINUOUS:
        for n in (3, 11, 401, 1601, 2000):
            runs.append((os.path.join(root, "hyp", f"{name}_{n}"),
                         [["verify-hypothesis", "--spec", name, "--grid-size", str(n),
                           "--canonical"]]))
    specs = {os.path.basename(path)[:-len(".spec.json")]: path
             for path in sorted(glob.glob(os.path.join(FIXTURES, "*.spec.json")))}
    specs["tabulated"] = os.path.join(root, BAND)
    for name, spec in specs.items():
        runs.append((os.path.join(root, "hyp", f"spec_{name}"),
                     [["verify-hypothesis", "--spec", spec, "--canonical"]]))
    runs.append((os.path.join(root, "hyp", "window_overflow"),
                 [["verify-hypothesis", "--spec", os.path.join(root, OVERFLOW), "--canonical"]]))
    for name in CHAINS:
        runs.append((os.path.join(root, "lobo", name),
                     [["lobo", "--spec", name, "--canonical"]]))
    for name, spec in specs.items():
        runs.append((os.path.join(root, "specs", name),
                     [["analyze", "--spec", spec, "--canonical"]]))
    for name, n in ARNOLDI:
        runs.append((os.path.join(root, "arnoldi", f"{name}_{n}"),
                     [["analyze", "--spec", name, "--grid-size", str(n), "--canonical"]]))
    runs.append((os.path.join(root, "arnoldi", "gauss_narrow_801"),
                 [["analyze", "--spec", os.path.join(root, NARROW), "--canonical"]]))
    return runs


def write_spec(path, doc):
    """A spec file in the stdlib JSON form."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fp:
        fp.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_band(path, n=400):
    rows = [[round(max(0.0, 1.0 - abs(i - j) / 40), 6) if 20 <= i < n - 20 else 0.0
             for j in range(n)] for i in range(n)]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fp:
        json.dump({"family": "tabulated", "domain": [0, 1], "grid_size": n,
                   "params": {"values": rows}}, fp)


def write_wide(path, n=300):
    """A band chain of n states, row mass 15/16 away from the ends, in the stdlib JSON form."""
    rows = [[round(max(0.0, 1.0 - abs(i - j) / 15) / 16, 6) for j in range(n)] for i in range(n)]
    write_spec(path, {"family": "explicit_matrix", "params": {"matrix": rows}})


def summary(name, out):
    with open(os.path.join(out, "analysis.json")) as fp:
        doc = json.load(fp)
    with open(os.path.join(out, "hypothesis_report.json")) as fp:
        hyp = json.load(fp)
    rate = next(iter(doc["rates"].values()), {})
    return (f"{name:>16}: lambda={doc['lambda']:.8f} m={doc['m']} "
            f"escape={doc['escape_indices'] or '[]'} "
            f"rate[{rate.get('model', '-')}]={rate.get('rate', float('nan')):.4f} "
            f"H1={hyp['h1']['verdict']} H2={hyp['h2']['verdict']}")


def run(root):
    write_band(os.path.join(root, BAND))
    write_wide(os.path.join(root, WIDE))
    write_spec(os.path.join(root, NARROW), {"family": "gaussian_shift", "domain": [-1, 1],
                                            "grid_size": 801, "params": {"sigma": 0.02}})
    write_spec(os.path.join(root, OVERFLOW),
               {"family": "affine_uniform", "domain": [-8e307, 8e307], "grid_size": 11,
                "params": {"a": 2, "b": 0, "noise_halfwidth": 8e307}})
    failed = set()
    for out, commands in cases(root):
        rc = 0
        for argv in commands:
            rc |= cli(argv + ["--out", out])
        if rc:
            print(f"{os.path.relpath(out, root)}: FAILED (exit {rc})")
            failed.add(out)
    for name in builtin_names():
        out = os.path.join(root, name)
        if not {out, os.path.join(out, "yaglom")} & failed:
            print(summary(name, out))
    return 1 if failed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    sys.exit(run(ap.parse_args().out))
