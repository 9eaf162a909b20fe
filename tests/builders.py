"""Shared graph constructions for the test suite."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from volentropy import build_graph, estimate_entropy
from volentropy.errors import GraphError


def graph_doc(vertices, edges):
    """Document dict from (id, u, v, length) records."""
    return {
        "vertices": list(vertices),
        "edges": [{"u": u, "v": v, "length": l, "id": i} for (i, u, v, l) in edges],
    }


def theta(lengths=(1, 1, 1)):
    a, b, c = lengths
    return build_graph(graph_doc(
        ["a", "b"],
        [("e1", "a", "b", a), ("e2", "a", "b", b), ("e3", "a", "b", c)],
    ))


def subdivided_theta(which="e3"):
    """Theta with one unit edge split into two halves at a new vertex."""
    edges = []
    for eid in ("e1", "e2", "e3"):
        if eid == which:
            edges.append((eid + "a", "a", "m", Fraction(1, 2)))
            edges.append((eid + "b", "m", "b", Fraction(1, 2)))
        else:
            edges.append((eid, "a", "b", 1))
    return build_graph(graph_doc(["a", "b", "m"], edges))


def dumbbell(lengths=(1, 1, 1)):
    l1, br, l2 = lengths
    return build_graph(graph_doc(
        ["a", "b"],
        [("l1", "a", "a", l1), ("br", "a", "b", br), ("l2", "b", "b", l2)],
    ))


def cycle(n, length=1):
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (f"e{i}", vertices[i], vertices[(i + 1) % n], length) for i in range(n)
    ]
    return build_graph(graph_doc(vertices, edges))


def path_graph():
    return build_graph(graph_doc(["a", "b"], [("e1", "a", "b", 1)]))


def single_loop():
    return build_graph(graph_doc(["a"], [("e1", "a", "a", 1)]))


def complete(n, length=1):
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (f"e{idx}", vertices[i], vertices[j], length)
        for idx, (i, j) in enumerate(itertools.combinations(range(n), 2), 1)
    ]
    return build_graph(graph_doc(vertices, edges))


def complete_bipartite(m, n, length=1):
    vertices = [f"a{i}" for i in range(m)] + [f"b{j}" for j in range(n)]
    edges = []
    idx = 1
    for i in range(m):
        for j in range(n):
            edges.append((f"e{idx}", f"a{i}", f"b{j}", length))
            idx += 1
    return build_graph(graph_doc(vertices, edges))


LENGTH_POOL = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))


def random_cubic(n, seed):
    """Connected random 3-regular multigraph on n vertices (configuration
    model, loops and parallel edges kept), lengths from LENGTH_POOL."""
    rng = np.random.default_rng(seed)
    vertices = [f"v{i}" for i in range(n)]
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2).tolist()
        edges = [
            (f"e{k}", vertices[u], vertices[v], LENGTH_POOL[int(rng.integers(len(LENGTH_POOL)))])
            for k, (u, v) in enumerate(pairs)
        ]
        try:
            return build_graph(graph_doc(vertices, edges))
        except GraphError:  # disconnected draw
            continue


def circular_ladder(rungs, seed):
    """Prism graph on 2 * rungs vertices, lengths from LENGTH_POOL."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(f"a{i}", f"a{i}", f"a{j}"), (f"b{i}", f"b{i}", f"b{j}"), (f"r{i}", f"a{i}", f"b{i}")]
    vertices = [f"a{i}" for i in range(rungs)] + [f"b{i}" for i in range(rungs)]
    return build_graph(graph_doc(vertices, [
        (eid, u, v, LENGTH_POOL[int(rng.integers(len(LENGTH_POOL)))]) for eid, u, v in edges
    ]))


THETA_DOC = graph_doc(
    ["a", "b"], [("e1", "a", "b", 1), ("e2", "a", "b", 1), ("e3", "a", "b", 1)]
)

# Connected double cover of the theta graph: two lifts of each edge, with the
# third pair crossing between the sheets.
DOUBLE_COVER_EDGES = (
    ("f1", "a1", "b1", "e1"),
    ("f2", "a2", "b2", "e1"),
    ("f3", "a1", "b1", "e2"),
    ("f4", "a2", "b2", "e2"),
    ("f5", "a1", "b2", "e3"),
    ("f6", "a2", "b1", "e3"),
)


def double_cover_doc(lengths=None):
    if lengths is None:
        lengths = {fid: "1/6" for fid, _, _, _ in DOUBLE_COVER_EDGES}
    return {
        "source": {
            "vertices": ["a1", "a2", "b1", "b2"],
            "edges": [
                {"u": u, "v": v, "length": lengths[fid], "id": fid}
                for fid, u, v, _ in DOUBLE_COVER_EDGES
            ],
        },
        "target": THETA_DOC,
        "vmap": {"a1": "a", "a2": "a", "b1": "b", "b2": "b"},
        "emap": {fid: eid for fid, _, _, eid in DOUBLE_COVER_EDGES},
    }


# Graph of groups with edge orders 2, 2, 1, 3 on two vertices of order 6;
# the loop makes its multiplicity matrix aperiodic.
EDGE_ORDERS_GOG_DOC = {
    "vertices": ["a", "b"],
    "edges": [
        {"u": "a", "v": "b", "length": 1, "id": "e1"},
        {"u": "a", "v": "b", "length": 2, "id": "e2"},
        {"u": "a", "v": "a", "length": 3, "id": "e3"},
        {"u": "a", "v": "b", "length": "3/2", "id": "e4"},
    ],
    "groups": {
        "vertex_orders": {"a": 6, "b": 6},
        "edge_orders": {"e1": 2, "e2": 2, "e3": 1, "e4": 3},
    },
}


def _random_candidate(rng):
    n = int(rng.integers(2, 6))
    vertices = [f"v{i}" for i in range(n)]

    def draw_length():
        return LENGTH_POOL[int(rng.integers(0, len(LENGTH_POOL)))]

    edges = [
        (f"c{i}", vertices[i], vertices[(i + 1) % n], draw_length())
        for i in range(n)
    ]
    for j in range(int(rng.integers(1, 4))):
        u = vertices[int(rng.integers(0, n))]
        v = vertices[int(rng.integers(0, n))]
        edges.append((f"x{j}", u, v, draw_length()))
    return build_graph(graph_doc(vertices, edges))


def random_rational_graphs(count, seed, r_grid=40):
    """Seeded random multigraphs usable by the oracle at the given radius.

    Each graph is a cycle plus extra chords/loops/parallel edges with lengths
    from a small rational pool; candidates whose path counts at r_grid grid
    units are too small for the growth fit are redrawn.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = _random_candidate(rng)
        denom = math.lcm(*(v.denominator for v in g.lengths.values()))
        try:
            estimate = estimate_entropy(g, g.vertices[0], Fraction(r_grid, denom))
        except GraphError:
            continue
        out.append((g, estimate))
    return out
