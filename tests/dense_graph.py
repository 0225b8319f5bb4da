"""Dense references for the reachability audit's graph.

``expand`` writes the N x N boolean matrix that a ``kernels.EdgeRuns``
holds, cell by cell, and checks that no cell is counted twice.
``operator_graph`` gives the escape set and the graph of a spec's operator.
``dense_reachability`` is the H2 audit as a breadth-first search over such
a matrix, gathering the frontier's rows: the search the audit ran before
it stepped over row runs, kept as their reference.
"""

import numpy as np

from qsdlab.errors import AllNodesEscape
from qsdlab.kernels import build_operator


def operator_graph(spec):
    """``(escape, graph)`` of ``build_operator(spec)``, with its errors."""
    op = build_operator(spec)
    return op.escape, op.graph()


def expand(runs):
    """The N x N boolean matrix that ``runs`` holds, cell by cell; each cell counted 0 or 1 times."""
    n = runs.size
    count = np.zeros((n, n), dtype=int)
    for i, a, b in zip(runs.row, runs.start, runs.stop):
        count[i, a:b] += 1
    if runs.mask is not None:
        count *= runs.mask
    for i, j, sign in zip(runs.fix_rows, runs.fix_cols, runs.fix_sign):
        count[i, j] += sign
    assert ((count == 0) | (count == 1)).all()
    return count == 1


def _dense_bfs_levels(adj, source, live):
    """Breadth-first search from ``source`` along the boolean ``adj``, through ``live`` nodes only.

    Returns the levels (-1: unreached) and the gcd of ``level[u] + 1 -
    level[v]`` over edges u -> v out of reached nodes.
    """
    n = adj.shape[0]
    level = np.full(n, -1)
    level[source] = 0
    frontier = np.array([source])
    d = g = 0
    while frontier.size:
        d += 1
        hit = adj[frontier].any(axis=0)
        hit &= live
        new = hit & (level < 0)
        level[new] = d
        g = int(np.gcd.reduce(d - level[hit], initial=g))
        frontier = np.flatnonzero(new)
    return level, g


def dense_reachability(escape, edges):
    """The H2 report of the boolean matrix ``edges``: (connected, components, period, classes)."""
    live = np.ones(len(edges), dtype=bool)
    live[list(escape)] = False
    keep = np.flatnonzero(live)
    if keep.size == 0:
        raise AllNodesEscape("no non-escape nodes")
    unseen = live.copy()
    periods = []
    while unseen.any():
        i = int(np.flatnonzero(unseen)[0])
        level, period = _dense_bfs_levels(edges, i, live)
        unseen &= ~((level >= 0) & (_dense_bfs_levels(edges.T, i, live)[0] >= 0))
        if not periods:
            first_level = level
        periods.append(period)
    connected = len(periods) == 1 and (keep.size > 1 or bool(edges[keep[0], keep[0]]))
    node_class = np.full(len(edges), -1)
    if connected:
        node_class[keep] = first_level[keep] % periods[0]
    return connected, len(periods), periods[0] if connected else 0, node_class.tobytes()
