"""``jsonout.dumps`` writes the text of ``json.dumps(doc, indent=2, sort_keys=True)``.

On drawn nested documents (floats with NaN, +-inf, -0.0, subnormals and
+-1.7e308; ints, bools, None, non-ASCII strings, empty lists and dicts;
NumPy float64 scalars; lists of floats, of floats and ints, and of
``[float, float]`` pairs, some with one non-finite entry) the text is the
stdlib's, and where the stdlib raises TypeError (non-str keys of mixed
kinds, a tuple key, NumPy integers) so does the writer, with its message.
Every report that ``analyze`` writes is that text plus a newline.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab.cli import main
from qsdlab.jsonout import dumps

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, -2.5e-310,
               1.7e308, -1.7e308, 2.2250738585072014e-308]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([x for x in EDGE_FLOATS if math.isfinite(x)]))
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
pairs = st.tuples(finite, finite).map(list)


@st.composite
def pair_lists(draw):
    """A list of [re, im] pairs, one entry of them perhaps NaN or infinite."""
    items = draw(st.lists(pairs, min_size=1, max_size=8))
    if draw(st.booleans()):
        i, k = draw(st.integers(0, len(items) - 1)), draw(st.integers(0, 1))
        items[i][k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return items


leaves = st.one_of(
    floats, floats.map(np.float64), st.integers(), st.integers(-2 ** 70, 2 ** 70),
    st.booleans(), st.none(), st.text(), st.text(st.characters(min_codepoint=128)),
    st.lists(finite, min_size=1), st.lists(floats), st.lists(st.one_of(floats, st.integers())),
    pair_lists(), st.just([]), st.just({}),
)
docs = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=20,
)


def outcome(encode, doc):
    try:
        return encode(doc)
    except TypeError as exc:
        return "TypeError", str(exc)


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(doc=docs)
def test_text_is_the_stdlib_text(doc):
    assert dumps(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [
    {1: "a", 2.5: "b", -3: "c"},
    {math.nan: 0, math.inf: 1, -math.inf: 2},
    {True: 1, None: 2},
    {False: [1.0, 2.0]},
    {None: 0},
    {"a": 1, 2: 3},            # str and int keys: sorted() raises
    {(1, 2): 3},
    {np.int64(1): 1.0},
    {np.float64(0.5): 1.0},
    np.int64(1),
    [1.0, np.int64(2)],
    [[1.0, 2.0], [np.int64(3), 4.0]],
    {"a": {"b": [np.bool_(True)]}},
    [1.0, {"k": object()}],
    [(1.0, 2.0), (3.0, 4.0)],
])
def test_keys_and_numpy_types_as_json(doc):
    assert outcome(dumps, doc) == outcome(stdlib, doc)


def test_analyze_reports_are_the_stdlib_text(tmp_path):
    assert main(["analyze", "--spec", "cycle3", "--out", str(tmp_path)]) == 0
    for path in sorted(tmp_path.glob("*.json")):
        text = path.read_text()
        assert text == stdlib(json.loads(text)) + "\n", path.name
