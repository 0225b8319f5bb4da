#!/usr/bin/env python3
"""Run the full analysis pipeline over every bundled system.

Writes analyze + verify-hypothesis reports for each bundled kernel under
out/<name>/ and the yaglom report under out/<name>/yaglom/, and prints a
one-line summary per system.  Exits 1 when any system fails.
"""

import argparse
import json
import os
import sys

from qsdlab.cli import main as cli
from qsdlab.registry import builtin_names


def run(out_root):
    failed = 0
    for name in builtin_names():
        out = os.path.join(out_root, name)
        rc = cli(["analyze", "--spec", name, "--out", out, "--canonical"])
        rc |= cli(["verify-hypothesis", "--spec", name, "--out", out, "--canonical"])
        rc |= cli(["yaglom", "--spec", name, "--out", os.path.join(out, "yaglom"),
                   "--canonical"])
        if rc:
            print(f"{name}: FAILED (exit {rc})")
            failed += 1
            continue
        doc = json.load(open(os.path.join(out, "analysis.json")))
        hyp = json.load(open(os.path.join(out, "hypothesis_report.json")))
        rate = next(iter(doc["rates"].values()), {})
        print(f"{name:>16}: lambda={doc['lambda']:.8f} m={doc['m']} "
              f"escape={doc['escape_indices'] or '[]'} "
              f"rate[{rate.get('model', '-')}]={rate.get('rate', float('nan')):.4f} "
              f"H1={hyp['h1']['verdict']} H2={hyp['h2']['verdict']}")
    return 1 if failed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    sys.exit(run(ap.parse_args().out))
