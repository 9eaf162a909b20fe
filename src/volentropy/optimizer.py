"""Closed-form minimal volume entropy and the metric attaining it.

For a graph whose valencies are all at least three, the minimum of the
volume entropy over volume-1 metrics is half the sum over vertices of
(k+1) log k, where k+1 is the valency, and the minimizing length of an edge
is log(k_origin * k_terminus) divided by that sum.  A graph of groups has
the same closed form with the tree degree d_x, the valency of the lifts of
x in its covering tree, in place of k+1 and each vertex's term divided by
|G_x|; ``closed_form`` computes both, taking group orders or None for a
plain graph as ``spectral.edge_system`` does.  Valency-2 vertices are
handled by series reduction; only chain totals are then canonical, and the
pulled-back metric splits each chain total evenly.  The Perron vector is
pulled back exactly along each chain, with no numerical solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import config
from .errors import ConvergenceError, GraphError
from .graph import (
    MetricGraph,
    base_id,
    float_order,
    require_entropy_hypotheses,
    reversal_id,
    series_reduce,
    verify_fixed_point,
)


@dataclass(frozen=True)
class MinimalMetricResult:
    """Minimal entropy with the minimizing lengths and Perron data.

    ``lengths`` is keyed by unoriented edge id, ``perron`` by oriented edge
    id (max-normalized), ``z`` by vertex of valency at least three.  When the
    result was pulled back through a series reduction, ``canonical`` is
    ``"chain-totals-only"`` and the chain data records which original edges
    form each reduced edge; an even split across a chain is one choice among
    equally optimal ones.
    """

    h_min: float
    lengths: dict[str, float]
    perron: dict[str, float]
    z: dict[str, float]
    canonical: str = "exact"
    chains: dict[str, tuple[str, ...]] | None = None
    chain_totals: dict[str, float] | None = None


# A graph of groups' vertex orders and edge orders, the latter keyed by
# unoriented edge id; None stands for a plain graph, every order 1.
Orders = tuple[Mapping[str, int], Mapping[str, int]] | None


def tree_degrees(g: MetricGraph, orders: Orders = None) -> tuple[int, ...]:
    """Valency of the lifts of each vertex, in vertex order, in the covering
    tree: a lift of x has |G_x| // |G_f| lifts of each edge f leaving x,
    exact because every edge order divides its endpoints' orders."""
    t = g.topology
    if orders is None:
        return t.valency
    vertex_order, edge_order = orders
    at_vertex = [vertex_order[x] for x in t.vertices]
    at_edge = [edge_order[eid] for eid in t.unoriented_ids]
    degrees = [0] * len(at_vertex)
    for x, b in zip(t.origin, t.base):
        degrees[x] += at_vertex[x] // at_edge[b]
    return tuple(degrees)


def branching_degrees(g: MetricGraph, orders: Orders = None) -> tuple[int, ...]:
    """``tree_degrees``, or GraphError naming the vertices below three."""
    degrees = tree_degrees(g, orders)
    bad = [x for x, d in zip(g.vertices, degrees) if d < 3]
    if bad:
        kind = "valency" if orders is None else "tree degree"
        raise GraphError(f"vertices of {kind} < 3: {bad}")
    return degrees


def closed_form(g: MetricGraph, orders: Orders = None) -> tuple[float, dict[str, float]]:
    """Minimal entropy over volume-1 metrics and the minimizing lengths,
    keyed by unoriented edge id.

    T = sum over x of d_x log(d_x - 1) / |G_x| is twice the minimum, and
    edge uv has length log((d_u - 1)(d_v - 1)) / T, so that the sum of
    length / |G_e| is 1.  Dividing by an order of 1 is exact, so a plain
    graph gets the same bits with or without trivial orders.  A group order
    or tree degree beyond the float range raises GraphError.
    """
    degrees = branching_degrees(g, orders)
    vertex_order = orders[0] if orders is not None else dict.fromkeys(g.vertices, 1)
    total = sum(
        float_order(d, f"vertex {x!r}: tree degree") * math.log(d - 1)
        / float_order(vertex_order[x], f"vertex {x!r}: group order")
        for x, d in zip(g.vertices, degrees)
    )
    branching = dict(zip(g.vertices, (d - 1 for d in degrees)))
    lengths = {
        eid: math.log(branching[u] * branching[v]) / total
        for eid, u, v, _ in g.unoriented
    }
    return 0.5 * total, lengths


def minimal_entropy(g: MetricGraph) -> float:
    """Minimum entropy over volume-1 metrics; ignores the current lengths."""
    return closed_form(g)[0]


def minimal_metric(g: MetricGraph) -> MinimalMetricResult:
    """The unique entropy-minimizing normalized metric and its Perron data."""
    h, lengths = closed_form(g)
    k_max = max(g.k(x) for x in g.vertices)
    perron = {
        e.id: math.sqrt(g.k(e.terminus) / k_max) for e in g.edges
    }
    z = {x: 1.0 / math.sqrt(k_max * g.k(x)) for x in g.vertices}
    _check_fixed_point(g.with_lengths(lengths), h, perron, "closed-form")
    return MinimalMetricResult(h, lengths, perron, z)


def _check_fixed_point(g: MetricGraph, h: float, perron: dict[str, float], kind: str) -> None:
    check = verify_fixed_point(g, h, perron)
    if check.max_residual > config.RESIDUAL_TOL:
        raise ConvergenceError(
            f"{kind} minimizer violates the fixed-point system "
            f"(residual {check.max_residual:.3e})"
        )


def minimize_with_reduction(g: MetricGraph) -> MinimalMetricResult:
    """Minimal metric for graphs that may contain valency-2 chains.

    Without a vertex of valency 2 this is ``minimal_metric``.  Otherwise it
    series-reduces, minimizes on the reduction, and pulls lengths back by
    splitting each chain total evenly across its pieces.  The Perron vector
    is pulled back exactly: a chain piece's only continuation is the next
    piece, so along an oriented chain e_1 ... e_k reduced to E,
    x_{e_j} = exp(-h * sum_{i>j} l_{e_i}) * x_E.  The reduced z carries over
    unchanged, since exp(-h l_{f_1}) x_{f_1} = exp(-h L_F) x_F at a branch
    vertex.
    """
    require_entropy_hypotheses(g)
    if 2 not in g.topology.valency:
        return minimal_metric(g)
    reduced, chains = series_reduce(g)
    reduced_result = minimal_metric(reduced)
    h = reduced_result.h_min
    lengths: dict[str, float] = {}
    perron: dict[str, float] = {}
    for new_id, chain in chains.items():
        piece = reduced_result.lengths[new_id] / len(chain)
        decay = math.exp(-h * piece)
        for oriented in chain:
            lengths[base_id(oriented)] = piece
        # E+ runs along the chain's walk, E- along the reversed walk.
        for sign, walk in (("+", chain), ("-", [reversal_id(e) for e in reversed(chain)])):
            value = reduced_result.perron[new_id + sign]
            for oriented in reversed(walk):
                perron[oriented] = value
                value *= decay
    _check_fixed_point(g.with_lengths(lengths), h, perron, "pulled-back")
    return MinimalMetricResult(
        h_min=h,
        lengths=lengths,
        perron=perron,
        z=reduced_result.z,
        canonical="chain-totals-only",
        chains=dict(chains),
        chain_totals={cid: reduced_result.lengths[cid] for cid in chains},
    )


def biregular_minimum(k1: int, k2: int, edge_count: int) -> tuple[float, Fraction]:
    """Minimal entropy and the uniform edge length of a biregular graph.

    ``edge_count`` counts oriented edges; every edge joins a (k1+1)-valent
    to a (k2+1)-valent vertex.
    """
    if not (isinstance(k1, int) and isinstance(k2, int)) or k1 < 2 or k2 < 2:
        raise GraphError(f"branching numbers must be integers >= 2, got {k1}, {k2}")
    if not isinstance(edge_count, int) or edge_count <= 0 or edge_count % 2:
        raise GraphError(f"oriented edge count must be a positive even integer, got {edge_count}")
    if k1 == k2:
        if edge_count % (k1 + 1):
            raise GraphError(
                f"no {k1 + 1}-regular graph has {edge_count} oriented edges"
            )
    elif (edge_count // 2) % (k1 + 1) or (edge_count // 2) % (k2 + 1):
        raise GraphError(
            f"no ({k1 + 1},{k2 + 1})-biregular graph has {edge_count} oriented edges"
        )
    h = (edge_count / 4.0) * math.log(k1 * k2)
    return h, Fraction(2, edge_count)


def min_entropy_free_rank(rank: int) -> float:
    """Minimal entropy over all graphs with free fundamental group of the
    given rank and no valency below three; attained by trivalent graphs."""
    if not isinstance(rank, int) or rank < 2:
        raise GraphError(f"rank must be an integer >= 2, got {rank}")
    return 3.0 * (rank - 1) * math.log(2.0)


def split_vertex(
    g: MetricGraph,
    x: str,
    partition: tuple[Sequence[str], Sequence[str]],
) -> MetricGraph:
    """Split vertex x into two vertices joined by a fresh unit-length edge.

    ``partition`` divides the oriented edges leaving x into the group that
    stays at x and the group moved to the new vertex; both groups need at
    least two edges.  The homotopy type is preserved.
    """
    outgoing = set(g.out_edges(x))
    if len(outgoing) < 4:
        raise GraphError(f"valency < 4 at {x!r}: nothing to split")
    stay, moved = (tuple(partition[0]), tuple(partition[1]))
    if sorted(stay + moved) != sorted(outgoing) or set(stay) & set(moved):
        raise GraphError("partition must split the outgoing edges at the vertex")
    if len(stay) < 2 or len(moved) < 2:
        raise GraphError("each partition class needs at least two edges")
    moved_set = set(moved)

    suffix = 1
    while f"{x}.{suffix}" in g.vertices:
        suffix += 1
    new_vertex = f"{x}.{suffix}"
    existing = set(g.unoriented_ids)
    counter = 1
    while f"f{counter}" in existing:
        counter += 1
    new_edge = f"f{counter}"

    records = []
    for eid, u, v, length in g.unoriented:
        if eid + "+" in moved_set:
            u = new_vertex
        if eid + "-" in moved_set:
            v = new_vertex
        records.append((eid, u, v, length))
    records.append((new_edge, x, new_vertex, Fraction(1)))
    return MetricGraph.from_unoriented(g.vertices + (new_vertex,), records)


def sample_normalized_metrics(
    g: MetricGraph, count: int, seed: int = config.SAMPLE_SEED
) -> Iterator[dict[str, float]]:
    """Symmetric-Dirichlet random volume-1 metrics on the unoriented edges."""
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = g.unoriented_ids
    for _ in range(count):
        weights = rng.dirichlet(np.ones(len(ids)))
        yield dict(zip(ids, (float(w) for w in weights)))
