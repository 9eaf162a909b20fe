"""Finite connected metric multigraphs with oriented edge pairs.

Every unoriented edge is materialized as two oriented edges exchanged by a
fixed-point-free involution.  Lengths live on unoriented edges and are exact
rationals end to end; floats are accepted only for solver-produced metrics
(e.g. entropy-minimizing lengths, which involve logarithms).  Loops are
allowed and contribute 2 to the valency of their vertex; parallel edges are
allowed.

A graph is an integer ``Topology`` plus one length per unoriented edge.  The
topology numbers vertices in sorted name order and oriented edges in sorted
id order, and holds per oriented edge the numbers of its origin, terminus,
reversal and unoriented edge as plain tuples of ints.  ``from_unoriented``
builds it in one pass over the records and one sort of the oriented ids,
taking valency from counts and connectivity from union-find over the
vertex numbers.  The views keyed by name (``edges``, ``edge_index``,
``out_edges``, ``lengths``, ``unoriented``) are built from these on first
use.  ``with_lengths`` shares the topology, and every view built from it,
and the edge systems kept in its ``solver_memo``, and checks only the new
lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union

from .errors import GraphError

Length = Union[Fraction, float]

FORWARD = "+"
REVERSE = "-"
_SUFFIXES = (FORWARD, REVERSE)


def oriented_id(base: str, forward: bool = True) -> str:
    """Oriented edge id for one orientation of the unoriented edge ``base``."""
    return base + (FORWARD if forward else REVERSE)


def base_id(edge_id: str) -> str:
    """Unoriented edge id underlying an oriented edge id."""
    return edge_id[:-1]


def reversal_id(edge_id: str) -> str:
    """Id of the reversed oriented edge."""
    if edge_id.endswith(FORWARD):
        return edge_id[:-1] + REVERSE
    return edge_id[:-1] + FORWARD


@dataclass(frozen=True)
class OrientedEdge:
    """One orientation of an unoriented edge."""

    id: str
    reversal: str
    origin: str
    terminus: str


@dataclass(frozen=True)
class Topology:
    """The integer structure of a graph, shared by every metric on it.

    Vertices are numbered in sorted name order, oriented edges in sorted id
    order and unoriented edges in the order of their forward orientations.
    Per oriented edge, ``origin`` and ``terminus`` give vertex numbers,
    ``reversal`` the number of the reversed edge and ``base`` the number of
    its unoriented edge; ``valency`` counts the oriented edges leaving each
    vertex.  The name-keyed views are built from these on first use.
    ``solver_memo`` keeps the edge system of the topology, one per set of
    group orders, so every metric on it shares the work of building it.
    """

    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]
    origin: tuple[int, ...]
    terminus: tuple[int, ...]
    reversal: tuple[int, ...]
    base: tuple[int, ...]
    valency: tuple[int, ...]

    @cached_property
    def edges(self) -> tuple[OrientedEdge, ...]:
        names, ids = self.vertices, self.edge_ids
        return tuple(
            OrientedEdge(eid, ids[r], names[o], names[t])
            for eid, r, o, t in zip(ids, self.reversal, self.origin, self.terminus)
        )

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {eid: i for i, eid in enumerate(self.edge_ids)}

    @cached_property
    def out_index(self) -> tuple[tuple[int, ...], ...]:
        """Numbers of the oriented edges leaving each vertex, ascending."""
        out: list[list[int]] = [[] for _ in self.vertices]
        for i, o in enumerate(self.origin):
            out[o].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def out_edges(self) -> dict[str, tuple[str, ...]]:
        ids = self.edge_ids
        return {x: tuple(ids[i] for i in out) for x, out in zip(self.vertices, self.out_index)}

    @cached_property
    def forward(self) -> tuple[int, ...]:
        """Number of the forward orientation of each unoriented edge."""
        return tuple(i for i, eid in enumerate(self.edge_ids) if eid[-1] == FORWARD)

    @cached_property
    def unoriented_ids(self) -> tuple[str, ...]:
        return tuple(self.edge_ids[i][:-1] for i in self.forward)

    @cached_property
    def solver_memo(self) -> dict:
        """One ``spectral.EdgeSystem`` per set of group orders (key None
        for a plain graph), built by ``spectral.edge_system`` on its first
        call; the solvers take copies of it with the lengths of each
        metric."""
        return {}


def _checked_length(eid: str, length: Length) -> Length:
    """The length as a Fraction or float, or GraphError if it is neither,
    is a float that is not finite, or is not positive."""
    if isinstance(length, int):
        length = Fraction(length)
    if isinstance(length, Fraction):
        # A Fraction keeps its sign in the numerator.
        positive = length.numerator > 0
    elif isinstance(length, float):
        if not math.isfinite(length):
            raise GraphError(f"edge {eid!r}: non-finite length {length}")
        positive = length > 0
    else:
        raise GraphError(f"edge {eid!r}: unsupported length type {type(length).__name__}")
    if not positive:
        raise GraphError(f"edge {eid!r}: non-positive length {length}")
    return length


def float_order(value: int, what: str) -> float:
    """A group order, or a count of lifts made from orders, as a float, or
    GraphError naming ``what`` if it exceeds the float range.  The float is
    the one Python's int-to-float conversion gives, so arithmetic with it has
    the bits that arithmetic with the int has."""
    try:
        return float(value)
    except OverflowError:
        raise GraphError(f"{what} exceeds the float range (about 1.8e308)") from None


def _components(size: int, ends: list[int]) -> list[list[int]]:
    """Vertex numbers of each connected component, by union-find over the
    pairs ``ends[2k], ends[2k + 1]``; each component ascending, the
    components in order of their smallest vertex."""
    parent = list(range(size))
    joins = 0
    for u, v in zip(ends[::2], ends[1::2]):
        # Find both roots, halving the paths on the way.
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joins += 1
    if joins == size - 1:
        return [list(range(size))]
    members: dict[int, list[int]] = {}
    for i in range(size):
        root = i
        while parent[root] != root:
            root = parent[root]
        members.setdefault(root, []).append(i)
    return list(members.values())


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric multigraph: a topology and one length per unoriented
    edge, ``base_lengths``, in the topology's unoriented order.

    ``edges`` holds both orientations of every unoriented edge, sorted by id;
    ``lengths`` is keyed by oriented edge id and equal on reversal pairs.
    Both, like the other name-keyed views, are built on first use.
    """

    topology: Topology
    base_lengths: tuple[Length, ...]

    @classmethod
    def from_unoriented(
        cls,
        vertices: Iterable[str],
        unoriented_edges: Iterable[tuple[str, str, str, Length]],
    ) -> "MetricGraph":
        """Build and validate a graph from unoriented edge records.

        Each record is ``(id, u, v, length)``.  Raises GraphError on
        non-finite or non-positive lengths, dangling endpoints, isolated
        vertices, or a disconnected underlying graph.  One pass over the
        records numbers the endpoints; one sort of the oriented ids numbers
        the edges.
        """
        vertex_tuple = tuple(sorted(vertices))
        if not vertex_tuple:
            raise GraphError("graph has no vertices")
        number = {x: i for i, x in enumerate(vertex_tuple)}
        if len(number) != len(vertex_tuple):
            raise GraphError("duplicate vertex names")

        # Oriented edge 2k is record k's forward orientation, 2k + 1 its
        # reversal; ends[j] is the origin of oriented edge j, and ends[j ^ 1]
        # its terminus.
        oriented: list[str] = []
        ends: list[int] = []
        lengths: list[Length] = []
        seen_ids: set[str] = set()
        for eid, u, v, length in unoriented_edges:
            if not eid or eid[-1] in _SUFFIXES:
                raise GraphError(f"bad edge id {eid!r}: must not end with '+' or '-'")
            if eid in seen_ids:
                raise GraphError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u not in number:
                raise GraphError(f"edge {eid!r}: dangling endpoint {u!r}")
            if v not in number:
                raise GraphError(f"edge {eid!r}: dangling endpoint {v!r}")
            lengths.append(_checked_length(eid, length))
            oriented += (eid + FORWARD, eid + REVERSE)
            ends += (number[u], number[v])

        valency = [0] * len(vertex_tuple)
        for x in ends:
            valency[x] += 1
        if 0 in valency:
            raise GraphError(f"isolated vertex {vertex_tuple[valency.index(0)]!r}")
        components = _components(len(vertex_tuple), ends)
        if len(components) > 1:
            witness = tuple(tuple(vertex_tuple[i] for i in c) for c in components)
            raise GraphError(f"graph is disconnected; components: {witness}")

        # Edge i of the topology is oriented edge order[i].
        order = sorted(range(len(oriented)), key=oriented.__getitem__)
        origin = list(map(ends.__getitem__, order))
        position = [0] * len(order)
        for i, j in enumerate(order):
            position[j] = i
        # Swapping each pair maps oriented edge j to the position of j ^ 1.
        position[0::2], position[1::2] = position[1::2], position[0::2]
        reversal = list(map(position.__getitem__, order))
        # Unoriented edges are numbered in the order of their forward edges.
        records = [j >> 1 for j in order if not j & 1]
        rank = [0] * (2 * len(records))
        for b, k in enumerate(records):
            rank[2 * k] = rank[2 * k + 1] = b
        topology = Topology(
            vertices=vertex_tuple,
            edge_ids=tuple(map(oriented.__getitem__, order)),
            origin=tuple(origin),
            terminus=tuple(map(origin.__getitem__, reversal)),
            reversal=tuple(reversal),
            base=tuple(map(rank.__getitem__, order)),
            valency=tuple(valency),
        )
        return cls(topology, tuple(map(lengths.__getitem__, records)))

    # -- derived structure -------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.topology.vertices

    @property
    def edges(self) -> tuple[OrientedEdge, ...]:
        return self.topology.edges

    @property
    def edge_index(self) -> dict[str, int]:
        """Position of each oriented edge id in the sorted edge tuple."""
        return self.topology.edge_index

    @cached_property
    def lengths(self) -> dict[str, Length]:
        t = self.topology
        return dict(zip(t.edge_ids, map(self.base_lengths.__getitem__, t.base)))

    def edge(self, edge_id: str) -> OrientedEdge:
        try:
            return self.edges[self.edge_index[edge_id]]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def length(self, edge_id: str) -> Length:
        return self.lengths[edge_id]

    def out_edges(self, vertex: str) -> tuple[str, ...]:
        try:
            return self.topology.out_edges[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def valency(self, vertex: str) -> int:
        return len(self.out_edges(vertex))

    def k(self, vertex: str) -> int:
        """Valency minus one."""
        return self.valency(vertex) - 1

    @cached_property
    def unoriented(self) -> tuple[tuple[str, str, str, Length], ...]:
        """Unoriented edge records ``(id, u, v, length)`` sorted by id."""
        t = self.topology
        names = t.vertices
        return tuple(
            (eid, names[t.origin[i]], names[t.terminus[i]], length)
            for eid, i, length in zip(t.unoriented_ids, t.forward, self.base_lengths)
        )

    @property
    def unoriented_ids(self) -> tuple[str, ...]:
        return self.topology.unoriented_ids

    @property
    def l_max(self) -> Length:
        return max(self.base_lengths)

    @property
    def l_min(self) -> Length:
        return min(self.base_lengths)

    @property
    def is_rational(self) -> bool:
        """True when every length is an exact rational."""
        return all(isinstance(v, Fraction) for v in self.base_lengths)

    def with_lengths(self, lengths: Mapping[str, Length]) -> "MetricGraph":
        """Copy of the graph with new lengths, keyed by unoriented edge id.

        The copy shares this graph's topology; only the lengths are checked.
        """
        ids = self.topology.unoriented_ids
        missing = [eid for eid in ids if eid not in lengths]
        if missing:
            raise GraphError(f"missing lengths for edges: {sorted(missing)}")
        return MetricGraph(
            self.topology, tuple(_checked_length(eid, lengths[eid]) for eid in ids)
        )


def build_graph(doc: Mapping) -> MetricGraph:
    """Build a MetricGraph from a parsed graph document.

    The document carries ``vertices: [names]`` and ``edges: [{u, v, length,
    id?}]`` with lengths given as integers or ``"p/q"`` strings; see the
    documents module for the full format.
    """
    from . import documents

    return documents.graph_from_document(doc)


def volume(g: MetricGraph) -> Length:
    """Total length of the unoriented edges (half the oriented sum)."""
    total = sum(rec[3] for rec in g.unoriented)
    return total


def normalize(g: MetricGraph) -> MetricGraph:
    """Rescale lengths so the volume is 1; exact on rational graphs."""
    vol = volume(g)
    new = {eid: length / vol for eid, _, _, length in g.unoriented}
    return g.with_lengths(new)


def scale_metric(g: MetricGraph, alpha: Length) -> MetricGraph:
    """Multiply every length by ``alpha`` > 0."""
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    if not alpha > 0:
        raise GraphError(f"scale factor must be positive, got {alpha}")
    new = {eid: length * alpha for eid, _, _, length in g.unoriented}
    return g.with_lengths(new)


@dataclass(frozen=True)
class HypothesesReport:
    """Result of checking the standing hypotheses for entropy operations.

    Both must hold for the entropy solver: (a) no terminal vertex, (b) the
    graph is not a single cycle.  The third standing hypothesis, that the
    graph is connected, holds for every graph: ``from_unoriented`` rejects
    disconnected ones.
    """

    no_terminal_vertex: bool
    terminal_vertices: tuple[str, ...]
    not_single_cycle: bool
    cycle_witness: str | None

    @property
    def ok(self) -> bool:
        return self.no_terminal_vertex and self.not_single_cycle

    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.no_terminal_vertex:
            out.append(f"terminal vertices: {list(self.terminal_vertices)}")
        if not self.not_single_cycle:
            out.append(self.cycle_witness or "graph is a cycle")
        return tuple(out)


def validate_entropy_hypotheses(g: MetricGraph) -> HypothesesReport:
    """Check the standing hypotheses that a built graph can fail, with
    witnesses."""
    t = g.topology
    terminal = tuple(x for x, d in zip(t.vertices, t.valency) if d == 1)
    is_cycle = all(d == 2 for d in t.valency)
    return HypothesesReport(
        no_terminal_vertex=not terminal,
        terminal_vertices=terminal,
        not_single_cycle=not is_cycle,
        cycle_witness="graph is a cycle" if is_cycle else None,
    )


def require_entropy_hypotheses(g: MetricGraph) -> None:
    """Raise GraphError listing the standing hypotheses that g fails."""
    report = validate_entropy_hypotheses(g)
    if not report.ok:
        raise GraphError(f"entropy hypotheses violated: {'; '.join(report.failures())}")


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    mean_residual: float
    worst_edge: str


def verify_fixed_point(
    g: MetricGraph, h: float, x: Mapping[str, float]
) -> ResidualReport:
    """Residuals of the fixed-point system at (h, x); pure check."""
    t = g.topology
    if set(x) != set(t.edge_ids):
        raise GraphError("vector must assign a value to every oriented edge")
    if any(not v > 0 for v in x.values()):
        raise GraphError("vector entries must be strictly positive")
    values = [x[eid] for eid in t.edge_ids]
    weights = [math.exp(-h * float(length)) for length in g.base_lengths]
    weighted = [weights[b] * v for b, v in zip(t.base, values)]
    worst_edge = ""
    worst = -1.0
    total = 0.0
    for eid, value, end, back in zip(t.edge_ids, values, t.terminus, t.reversal):
        rhs = sum(weighted[f] for f in t.out_index[end] if f != back)
        defect = abs(value - rhs)
        total += defect
        if defect > worst:
            worst = defect
            worst_edge = eid
    return ResidualReport(worst, total / len(values), worst_edge)


def series_reduce(g: MetricGraph) -> tuple[MetricGraph, dict[str, tuple[str, ...]]]:
    """Eliminate valency-2 vertices by concatenating chains.

    Returns the reduced graph together with a map from each new unoriented
    edge id to the chain of original oriented edge ids it replaces (in the
    canonical walk direction).  A chain that is a single original edge keeps
    its id.  Raises GraphError when the input has terminal vertices or is a
    cycle.
    """
    if any(g.valency(x) == 1 for x in g.vertices):
        raise GraphError("series reduction requires a graph without terminal vertices")
    keep = [x for x in g.vertices if g.valency(x) >= 3]
    if not keep:
        raise GraphError("cannot series-reduce a cycle: no vertex of valency >= 3")

    visited: set[str] = set()
    records: list[tuple[str, str, str, Length]] = []
    chains: dict[str, tuple[str, ...]] = {}
    for x in keep:
        for start in g.out_edges(x):
            if start in visited:
                continue
            walk = [start]
            current = g.edge(start).terminus
            while g.valency(current) == 2:
                last = walk[-1]
                nxt = [f for f in g.out_edges(current) if f != reversal_id(last)]
                walk.append(nxt[0])
                current = g.edge(nxt[0]).terminus
            for eid in walk:
                visited.add(eid)
                visited.add(reversal_id(eid))
            reverse_walk = [reversal_id(eid) for eid in reversed(walk)]
            if reverse_walk[0] < walk[0]:
                walk = reverse_walk
            first = g.edge(walk[0])
            last = g.edge(walk[-1])
            new_id = base_id(walk[0])
            total = sum(g.length(eid) for eid in walk)
            records.append((new_id, first.origin, last.terminus, total))
            chains[new_id] = tuple(walk)
    reduced = MetricGraph.from_unoriented(keep, records)
    return reduced, chains
