"""scripts/compare_trees.py: passes identical trees and catches every kind of miss."""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qsdlab.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_trees.py"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree") / "a"
    for argv in (["analyze", "--spec", "ds3"], ["analyze", "--spec", "cycle3"],
                 ["yaglom", "--spec", "sym2"],
                 ["simulate", "--spec", "ds3", "--n", "2", "--n-paths", "3000"]):
        assert main(argv + ["--canonical", "--out", str(root / f"{argv[0]}-{argv[2]}")]) == 0
    return root


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def edit_csv(path, row, col, change):
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    rows[row][rows[0].index(col)] = change(rows[row][rows[0].index(col)])
    with open(path, "w", newline="") as fp:
        csv.writer(fp).writerows(rows)


def scale(factor):
    return lambda v: repr(float(v) * factor)


def set_rate(key, value):
    return lambda d: d["rates"]["yaglom"].__setitem__(key, value(d["rates"]["yaglom"][key]))


EDITS = {
    "lambda 1e-9": (False, "analyze-ds3/spectral.json",
                    lambda p: edit_json(p, lambda d: d.__setitem__(
                        "lambda", d["lambda"] * (1 + 1e-9)))),
    "lambda 1e-13": (True, "analyze-ds3/spectral.json",
                     lambda p: edit_json(p, lambda d: d.__setitem__(
                         "lambda", d["lambda"] * (1 + 1e-13)))),
    "f entry 1e-9": (False, "analyze-cycle3/spectral.json",
                     lambda p: edit_json(p, lambda d: d["f"][1][2].__setitem__(
                         0, d["f"][1][2][0] * (1 + 1e-9)))),
    "qsd entry 1e-9": (False, "analyze-ds3/analysis.json",
                       lambda p: edit_json(p, lambda d: d["qsd"].__setitem__(
                           1, d["qsd"][1] * (1 + 1e-9)))),
    "tv 1e-9": (False, "analyze-ds3/tv_curve.csv",
                lambda p: edit_csv(p, 3, "tv", scale(1 + 1e-9))),
    "tv 1e-13": (True, "analyze-ds3/tv_curve.csv",
                 lambda p: edit_csv(p, 3, "tv", scale(1 + 1e-13))),
    "simulated tv 1e-9": (False, "simulate-ds3/estimates.csv",
                          lambda p: edit_csv(p, 2, "value", scale(1 + 1e-9))),
    "simulated stderr 1e-13": (False, "simulate-ds3/estimates.csv",
                               lambda p: edit_csv(p, 2, "stderr", scale(1 + 1e-13))),
    "rate 1e-4": (True, "analyze-ds3/analysis.json",
                  lambda p: edit_json(p, set_rate("rate", lambda r: r * (1 + 1e-4)))),
    "rate 1e-2": (False, "analyze-ds3/analysis.json",
                  lambda p: edit_json(p, set_rate("rate", lambda r: r * (1 + 1e-2)))),
    "model": (False, "analyze-ds3/analysis.json",
              lambda p: edit_json(p, set_rate("model", lambda r: "one_over_n"))),
    "passed": (False, "analyze-ds3/analysis.json",
               lambda p: edit_json(p, set_rate("passed", lambda r: not r))),
    "m": (False, "analyze-cycle3/spectral.json",
          lambda p: edit_json(p, lambda d: d.__setitem__("m", 2))),
    "extra file": (False, "analyze-ds3/notes.txt", lambda p: p.write_text("x")),
}


def test_identical_trees_pass(tree, tmp_path):
    shutil.copytree(tree, tmp_path / "b")
    res = compare(tree, tmp_path / "b")
    assert res.returncode == 0, res.stdout
    assert res.stdout.endswith(" 0 misses\n")


@pytest.mark.parametrize("name", EDITS)
def test_edit_is_caught_or_tolerated(tree, tmp_path, name):
    passes, rel, apply = EDITS[name]
    shutil.copytree(tree, tmp_path / "b")
    apply(tmp_path / "b" / rel)
    res = compare(tree, tmp_path / "b")
    assert res.returncode == (0 if passes else 1), res.stdout
    if not passes:
        assert rel in res.stdout


@pytest.mark.parametrize("value,passes", [(math.inf, True), (-math.inf, True), (math.nan, False)],
                         ids=["inf", "-inf", "nan"])
def test_equal_values_under_a_tolerance(tree, tmp_path, value, passes):
    # |inf - inf| is NaN, which no tolerance holds: equal numbers agree first
    for root in (tmp_path / "a", tmp_path / "b"):
        shutil.copytree(tree, root)
        edit_json(root / "analyze-ds3/analysis.json", set_rate("rate", lambda r: value))
        edit_csv(root / "analyze-ds3/tv_curve.csv", 3, "tv", lambda v: repr(value))
    res = compare(tmp_path / "a", tmp_path / "b")
    assert res.returncode == (0 if passes else 1), res.stdout
    assert res.stdout.count("analyze-ds3/") == (0 if passes else 2), res.stdout
