"""Explicit spec files of 1-8 states through every subcommand of the CLI.

Whatever the chain, a run exits 0 (answered), 2 (refused input) or 3
(numerical refusal), never with an uncaught exception; a refused run leaves
no output directory, and no file that an answered run writes holds NaN.
Infinity is allowed: it is the rate of a chain whose conditioned law settles
at once.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab.cli import main

# a row entry: zero, dust (down to the smallest subnormal) or an ordinary weight
_ENTRY = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-17]),
                   st.floats(0.01, 1.0))
# what a malformed file puts in one entry
_BAD_ENTRY = st.sampled_from(["a", None, float("nan"), float("inf"), -0.5, True])

RUNS = [
    ["analyze"],
    ["verify-hypothesis"],
    ["yaglom"],
    ["simulate", "--n", "3", "--n-paths", "2000"],
    ["lobo", "--n-list", "5,10"],
]


@st.composite
def explicit_documents(draw):
    size = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["rows", "rank_one", "identity", "zero"]))
    if kind == "identity":
        q = np.eye(size)
    elif kind == "zero":
        q = np.zeros((size, size))
    elif kind == "rank_one":
        u = np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size)))
        v = np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size)))
        q = np.outer(u, v)
    else:
        q = np.array([draw(st.lists(_ENTRY, min_size=size, max_size=size))
                      if draw(st.integers(0, 3)) else [0.0] * size for _ in range(size)])
    if draw(st.booleans()):
        q = np.triu(q, 1)     # the nilpotent part alone
    total = q.sum(axis=1, keepdims=True)
    scale = draw(st.sampled_from([1.0, 0.999, 0.5]))
    q = np.where(total > 1.0, q / np.where(total > 1.0, total, 1.0) * scale, q)
    rows = q.tolist()
    flaw = draw(st.sampled_from([None, None, None, "entry", "ragged", "row_sum"]))
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    if flaw == "entry":
        rows[i][j] = draw(_BAD_ENTRY)
    elif flaw == "ragged":
        rows[i] = rows[i][:-1] if size > 1 else rows[i] + [0.0]
    elif flaw == "row_sum":
        rows[i][j] += 1.0
    return {"family": "explicit_matrix", "params": {"matrix": rows}}


@settings(max_examples=200, deadline=None)
@given(doc=explicit_documents(), data=st.data())
def test_explicit_spec_files_exit_cleanly_without_nan(doc, data):
    # lobo also starts from, and sums the indicator of, drawn states
    states = st.integers(0, len(doc["params"]["matrix"]) - 1).map(str)
    runs = RUNS + [["lobo", "--n-list", "5,10", "--x0", data.draw(states),
                    "--h-state", data.draw(states)]]
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "chain.json")
        with open(spec, "w") as fp:
            json.dump(doc, fp)
        for k, run in enumerate(runs):
            out = os.path.join(tmp, str(k))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(run + ["--spec", spec, "--out", out, "--canonical"])
            assert code in (0, 2, 3), (run, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code:
                assert not os.path.exists(out), run
                continue
            for name in os.listdir(out):
                with open(os.path.join(out, name)) as fp:
                    text = fp.read()
                assert not re.search(r"\bnan\b", text, re.IGNORECASE), (run, name)
