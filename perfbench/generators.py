"""Seeded inputs: graph documents for the fixed graphs, random cubic graphs
and circular ladders.

Plain Python and numpy only.  The program under test receives the finished
documents, never the seed.  Lengths are exact rationals from LENGTH_POOL.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

LENGTH_POOL = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))


def rng_for(*key: int) -> np.random.Generator:
    """Independent generator for one (seed, block, ...) key."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def graph_doc(vertices, records) -> dict:
    """Graph document from (id, u, v, length) records."""
    return {
        "vertices": list(vertices),
        "edges": [{"u": u, "v": v, "length": length, "id": eid} for eid, u, v, length in records],
    }


def theta_doc() -> dict:
    return graph_doc(["a", "b"], [(f"e{i}", "a", "b", 1) for i in (1, 2, 3)])


def complete_doc(n: int) -> dict:
    vertices = [f"v{i}" for i in range(n)]
    pairs = itertools.combinations(range(n), 2)
    return graph_doc(
        vertices,
        [(f"e{k}", vertices[i], vertices[j], 1) for k, (i, j) in enumerate(pairs, 1)],
    )


def complete_bipartite_doc(m: int, n: int) -> dict:
    vertices = [f"a{i}" for i in range(m)] + [f"b{j}" for j in range(n)]
    pairs = itertools.product(range(m), range(n))
    return graph_doc(
        vertices,
        [(f"e{k}", f"a{i}", f"b{j}", 1) for k, (i, j) in enumerate(pairs, 1)],
    )


def dumbbell_doc() -> dict:
    return graph_doc(
        ["a", "b"], [("l1", "a", "a", 1), ("br", "a", "b", 1), ("l2", "b", "b", 1)]
    )


# Connected double cover of the dumbbell: each loop lifts to two loops,
# the bridge to two bridges, and the second loop to a pair of edges that
# crosses between the sheets.  The loops make its edge matrix aperiodic.
DUMBBELL_COVER_EDGES = (
    ("f1", "a1", "a1", "l1"),
    ("f2", "a2", "a2", "l1"),
    ("f3", "a1", "b1", "br"),
    ("f4", "a2", "b2", "br"),
    ("f5", "b1", "b2", "l2"),
    ("f6", "b2", "b1", "l2"),
)


def dumbbell_double_cover_doc() -> dict:
    """Covering document of the dumbbell by a double cover, source lengths 1/6."""
    return {
        "source": graph_doc(
            ["a1", "a2", "b1", "b2"],
            [(fid, u, v, "1/6") for fid, u, v, _ in DUMBBELL_COVER_EDGES],
        ),
        "target": dumbbell_doc(),
        "vmap": {"a1": "a", "a2": "a", "b1": "b", "b2": "b"},
        "emap": {fid: eid for fid, _, _, eid in DUMBBELL_COVER_EDGES},
    }


def _pool_lengths(rng: np.random.Generator, count: int) -> list[Fraction]:
    return [LENGTH_POOL[i] for i in rng.integers(0, len(LENGTH_POOL), size=count).tolist()]


def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    root = find(0)
    return all(find(i) == root for i in range(n))


def random_cubic_doc(n: int, rng: np.random.Generator) -> dict:
    """Random 3-regular multigraph on n vertices (configuration model).

    Loops and parallel edges are kept, since the program accepts them;
    disconnected draws are redrawn.  n must be even.
    """
    if n % 2:
        raise ValueError("a cubic graph needs an even number of vertices")
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2).tolist()
        if _connected(n, pairs):
            break
    lengths = _pool_lengths(rng, len(pairs))
    return graph_doc(
        [f"v{i}" for i in range(n)],
        [(f"e{k}", f"v{u}", f"v{v}", length) for k, ((u, v), length) in enumerate(zip(pairs, lengths))],
    )


def circular_ladder_doc(rungs: int, rng: np.random.Generator) -> dict:
    """Circular ladder (prism graph) with the given number of rungs."""
    records = []
    for i in range(rungs):
        j = (i + 1) % rungs
        records += [(f"a{i}", f"a{i}", f"a{j}"), (f"b{i}", f"b{i}", f"b{j}"), (f"r{i}", f"a{i}", f"b{i}")]
    lengths = _pool_lengths(rng, len(records))
    vertices = [f"a{i}" for i in range(rungs)] + [f"b{i}" for i in range(rungs)]
    return graph_doc(vertices, [(e, u, v, length) for (e, u, v), length in zip(records, lengths)])

