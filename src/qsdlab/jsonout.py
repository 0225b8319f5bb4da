"""The text of every JSON report: ``json.dumps(doc, indent=2, sort_keys=True)``, in bulk.

With ``indent`` set, CPython encodes through its pure-Python encoder, one
small chunk per number.  :func:`dumps` walks dicts and lists as that encoder
does and returns the same text, but formats a list of finite floats, or of
``[float, float]`` pairs (the complex entries of ``spectral.json``), in one
operation.
"""

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string


def dumps(doc):
    """``json.dumps(doc, indent=2, sort_keys=True)``: the same text, or the same TypeError.

    A circular document raises RecursionError, where ``json`` raises ValueError.
    """
    out = []
    _encode(doc, "\n", out.append)
    return "".join(out)


def _encode(o, nl, emit):
    """Emit the JSON text of ``o``, placed where a line break is ``nl``."""
    if isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        emit("[" + inner)
        body = _bulk(o, inner)
        if body is None:
            for i, v in enumerate(o):
                if i:
                    emit("," + inner)
                _encode(v, inner, emit)
        else:
            emit(body)
        emit(nl + "]")
    elif isinstance(o, dict) and o:
        inner = nl + "  "
        emit("{" + inner)
        for i, (k, v) in enumerate(sorted(o.items())):
            if i:
                emit("," + inner)
            emit(_string(_key(k)) + ": ")
            _encode(v, inner, emit)
        emit(nl + "}")
    else:
        emit(_scalar(o))


def _scalar(o):
    """The JSON text of a str, None, bool, int, float, or empty list or dict."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    if isinstance(o, (list, tuple)):
        return "[]"
    if isinstance(o, dict):
        return "{}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k):
    """A dict key as the string ``json`` writes for it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _bulk(items, inner):
    """The body of a list of finite floats, or of [float, float] lists, by one format; else None.

    Exact floats only, so ``%r`` is ``float.__repr__``, the form ``json``
    writes; one template takes all the numbers, and no list of their
    strings is held.
    """
    sep = "," + inner
    kinds = set(map(type, items))
    if kinds == {float}:
        body = sep.join(["%r"] * len(items)) % tuple(items)
    elif kinds == {list} and set(map(len, items)) == {2}:
        flat = tuple(chain.from_iterable(items))
        if set(map(type, flat)) != {float}:
            return None
        pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
        body = sep.join([pair] * len(items)) % flat
    else:
        return None
    # a finite float's repr has no "n"; nan and inf go the general way, as NaN, Infinity
    return None if "n" in body else body
