"""Drawn spec files through every subcommand of the CLI.

Explicit chains of 1-8 states, and documents of the four density families
with domains, parameters and tables from 1e-300 to 1e300 in size.  Whatever
the document, a run exits 0 (answered), 2 (refused input) or 3 (numerical
refusal), never with an uncaught exception; a refused run leaves no output
directory, and no file that an answered run writes holds NaN.  Infinity is
allowed: it is the rate of a chain whose conditioned law settles at once.
An answered ``analyze`` of a family that must be sub-Markov reports lambda
at most 1 + 1e-12.  The density fields, some swapped for a mistyped value,
also go straight to ``KernelSpec``, which returns a spec or raises a
ValidationError.  The audit's graph, held as row runs, is that of the
built operator, and a spec that one refuses the other refuses with the
same error.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdlab.cli import main
from qsdlab.errors import QsdlabError, ValidationError
from qsdlab.kernels import (
    ESCAPE_TOL_DEFAULT,
    FAMILIES,
    KernelSpec,
    build_operator,
)
from dense_graph import expand, operator_graph

# a row entry: zero, dust (down to the smallest subnormal) or an ordinary weight
_ENTRY = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-17]),
                   st.floats(0.01, 1.0))
# what a malformed file puts in one entry
_BAD_ENTRY = st.sampled_from(["a", None, float("nan"), float("inf"), -0.5, True])
# a magnitude from 1e-300 to 1e300, or an ordinary one
_SIZE = st.one_of(st.floats(0.05, 20.0), st.builds(lambda m, k: m * 10.0 ** k,
                                                   st.floats(1.0, 9.99), st.integers(-300, 300)))
_SIGNED = st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), _SIZE)
# a tabulated density value: zero, dust, an ordinary value or an overflowing one
_TABLE_ENTRY = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-17, 1e300]),
                         st.floats(0.01, 10.0))

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


@st.composite
def density_documents(draw):
    family = draw(st.sampled_from(["affine_uniform", "cubic_uniform", "gaussian_shift",
                                   "tabulated"]))
    lower = draw(st.one_of(st.just(0.0), _SIGNED))
    domain = [lower, lower + draw(_SIZE)]     # the width may round away: lower == upper
    if not draw(st.integers(0, 7)):
        domain.reverse()
    size = draw(st.integers(2, 6 if family == "tabulated" else 40))
    if family == "affine_uniform":
        params = {"a": draw(_SIGNED), "b": draw(st.one_of(st.just(0.0), _SIGNED)),
                  "noise_halfwidth": draw(_SIZE)}
    elif family == "cubic_uniform":
        params = {"noise_halfwidth": draw(_SIZE)}
    elif family == "gaussian_shift":
        params = {"sigma": draw(_SIZE)}
    else:
        params = {"values": [draw(st.lists(_TABLE_ENTRY, min_size=size, max_size=size))
                             for _ in range(size)]}
    return {"family": family, "domain": domain, "grid_size": size, "params": params}


# what a caller of KernelSpec may pass in place of a drawn field
_BAD_FIELD = st.sampled_from([
    ("grid_size", 2.7), ("grid_size", "5"), ("grid_size", None), ("grid_size", True),
    ("domain", ("a", 1)), ("domain", (0, 1, 2)), ("domain", None), ("domain", "01"),
    ("params", "sigma"), ("params", None), ("family", "gaussian"),
])


def check_runs(doc, runs):
    """Run the document through each subcommand: a clean exit, and no NaN in any answer.

    An answered ``analyze`` of a sub-Markov family reports lambda <= 1 + 1e-12.
    """
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
            if run[0] == "analyze" and FAMILIES[doc["family"]].sub_markov:
                with open(os.path.join(out, "analysis.json")) as fp:
                    assert json.load(fp)["lambda"] <= 1 + 1e-12, run


@settings(max_examples=200, deadline=None)
@given(doc=explicit_documents(), data=st.data())
def test_explicit_spec_files_exit_cleanly_without_nan(doc, data):
    # lobo also starts from, and sums the indicator of, drawn states
    states = st.integers(0, len(doc["params"]["matrix"]) - 1).map(str)
    check_runs(doc, RUNS + [["lobo", "--n-list", "5,10", "--x0", data.draw(states),
                             "--h-state", data.draw(states)]])


@settings(max_examples=150, deadline=None)
@given(doc=density_documents())
# tables whose operator is not sub-Markov (row masses 2, 5e307 and 1.5e200)
@example(doc={"family": "tabulated", "domain": [0, 1], "grid_size": 2,
              "params": {"values": [[2, 2], [2, 2]]}})
@example(doc={"family": "tabulated", "domain": [0, 1e8], "grid_size": 2,
              "params": {"values": [[0, 0], [1e300, 0.01]]}})
@example(doc={"family": "tabulated", "domain": [0, 1e-100], "grid_size": 2,
              "params": {"values": [[0, 3e300], [3e300, 0]]}})
# a domain whose width overflows; the drawn widths stop near 1e300
@example(doc={"family": "gaussian_shift", "domain": [-1.5e308, 1.5e308], "grid_size": 5,
              "params": {"sigma": 1.0}})
# Arnoldi vectors whose squares overflow: one live node of lambda near 1e198,
# and a two-node window near 1e156
@example(doc={"family": "cubic_uniform", "domain": [-1e200, 1e200], "grid_size": 81,
              "params": {"noise_halfwidth": 1.0}})
@example(doc={"family": "affine_uniform", "domain": [0, 1e156], "grid_size": 2,
              "params": {"a": -1.0, "b": 0.0, "noise_halfwidth": 1.0}})
def test_density_spec_files_exit_cleanly_without_nan(doc):
    check_runs(doc, RUNS)


@settings(max_examples=150, deadline=None)
@given(doc=density_documents(), flaw=st.one_of(st.none(), _BAD_FIELD))
def test_density_fields_make_a_spec_or_a_validation_error(doc, flaw):
    # the same fields straight to KernelSpec, with no spec file in between
    fields = {key: doc[key] for key in ("domain", "family", "params", "grid_size")}
    if flaw is not None:
        fields[flaw[0]] = flaw[1]
    try:
        spec = KernelSpec(**fields)
    except ValidationError:
        return
    assert type(spec.grid_size) is int and all(type(b) is float for b in spec.domain)


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(density_documents(), explicit_documents()))
# the table of test_weighted_matrix_overflow_exits_2: the row masses overflow
@example(doc={"family": "tabulated", "domain": [0, 1e12], "grid_size": 3,
              "params": {"values": [[1e300] * 3] * 3}})
def test_operator_graph_is_the_operators_graph(doc):
    try:
        spec = KernelSpec(**doc)
    except ValidationError:
        return
    try:
        op = build_operator(spec)
    except QsdlabError as exc:
        with pytest.raises(type(exc)) as err:
            operator_graph(spec)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    escape, runs = operator_graph(spec)
    assert escape == op.escape
    assert np.array_equal(expand(runs), op.matrix > ESCAPE_TOL_DEFAULT)
