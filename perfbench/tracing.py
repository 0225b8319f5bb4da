"""In-memory span recorder for the traced benchmark run.

A span is one call from the harness into a qsdlab layer: name, start, end,
parent span and the id of the item (system, simulate command or chain) it
belongs to.  Spans stay in memory until the run ends and are written out
once, so recording costs two clock reads and a list append per call.
"""

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


def no_span(name, item):
    """Stand-in for Tracer.span when tracing is off."""
    return _NULL


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, item id]
        self._stack = []

    @contextmanager
    def span(self, name, item):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, first=0):
        """Self time (duration minus child durations) summed by span name.

        Only spans with index >= ``first`` are counted, so one tracer can
        serve several passes.
        """
        child = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            out[name] = out.get(name, 0.0) + (end - start) - child.get(i, 0.0)
        return out

    def dump(self, path):
        with open(path, "w") as fp:
            for name, start, end, parent, item in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
