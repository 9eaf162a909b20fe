"""Finite connected metric multigraphs with oriented edge pairs.

Every unoriented edge is materialized as two oriented edges exchanged by a
fixed-point-free involution.  Lengths live on unoriented edges and are exact
rationals end to end; floats are accepted only for solver-produced metrics
(e.g. entropy-minimizing lengths, which involve logarithms).  Loops are
allowed and contribute 2 to the valency of their vertex; parallel edges are
allowed.
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
class MetricGraph:
    """Immutable metric multigraph.

    ``edges`` holds both orientations of every unoriented edge, sorted by id;
    ``lengths`` is keyed by oriented edge id and equal on reversal pairs.
    """

    vertices: tuple[str, ...]
    edges: tuple[OrientedEdge, ...]
    lengths: Mapping[str, Length]

    @classmethod
    def from_unoriented(
        cls,
        vertices: Iterable[str],
        unoriented_edges: Iterable[tuple[str, str, str, Length]],
    ) -> "MetricGraph":
        """Build and validate a graph from unoriented edge records.

        Each record is ``(id, u, v, length)``.  Raises GraphError on
        non-positive lengths, dangling endpoints, isolated vertices, or a
        disconnected underlying graph.
        """
        vertex_tuple = tuple(sorted(vertices))
        if not vertex_tuple:
            raise GraphError("graph has no vertices")
        if len(set(vertex_tuple)) != len(vertex_tuple):
            raise GraphError("duplicate vertex names")
        vertex_set = set(vertex_tuple)

        edges: list[OrientedEdge] = []
        lengths: dict[str, Length] = {}
        seen_ids: set[str] = set()
        for eid, u, v, length in unoriented_edges:
            if not eid or eid[-1] in _SUFFIXES:
                raise GraphError(f"bad edge id {eid!r}: must not end with '+' or '-'")
            if eid in seen_ids:
                raise GraphError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u not in vertex_set:
                raise GraphError(f"edge {eid!r}: dangling endpoint {u!r}")
            if v not in vertex_set:
                raise GraphError(f"edge {eid!r}: dangling endpoint {v!r}")
            if isinstance(length, int):
                length = Fraction(length)
            if not isinstance(length, (Fraction, float)):
                raise GraphError(f"edge {eid!r}: unsupported length type {type(length).__name__}")
            if not length > 0:
                raise GraphError(f"edge {eid!r}: non-positive length {length}")
            fwd, rev = oriented_id(eid, True), oriented_id(eid, False)
            edges.append(OrientedEdge(fwd, rev, u, v))
            edges.append(OrientedEdge(rev, fwd, v, u))
            lengths[fwd] = length
            lengths[rev] = length

        graph = cls(vertex_tuple, tuple(sorted(edges, key=lambda e: e.id)), lengths)
        for x in vertex_tuple:
            if graph.valency(x) == 0:
                raise GraphError(f"isolated vertex {x!r}")
        components = graph.components()
        if len(components) > 1:
            raise GraphError(f"graph is disconnected; components: {components}")
        return graph

    # -- derived structure -------------------------------------------------

    @cached_property
    def _edge_by_id(self) -> dict[str, OrientedEdge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _out_edges(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {x: [] for x in self.vertices}
        for e in self.edges:
            out[e.origin].append(e.id)
        return {x: tuple(ids) for x, ids in out.items()}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        """Position of each oriented edge id in the sorted edge tuple."""
        return {e.id: i for i, e in enumerate(self.edges)}

    def edge(self, edge_id: str) -> OrientedEdge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def length(self, edge_id: str) -> Length:
        return self.lengths[edge_id]

    def out_edges(self, vertex: str) -> tuple[str, ...]:
        try:
            return self._out_edges[vertex]
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
        records = []
        for e in self.edges:
            if e.id.endswith(FORWARD):
                records.append((base_id(e.id), e.origin, e.terminus, self.lengths[e.id]))
        return tuple(records)

    @cached_property
    def unoriented_ids(self) -> tuple[str, ...]:
        return tuple(rec[0] for rec in self.unoriented)

    @property
    def l_max(self) -> Length:
        return max(self.lengths.values())

    @property
    def l_min(self) -> Length:
        return min(self.lengths.values())

    @property
    def is_rational(self) -> bool:
        """True when every length is an exact rational."""
        return all(isinstance(v, Fraction) for v in self.lengths.values())

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the underlying graph, each sorted."""
        return self._components

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        remaining = set(self.vertices)
        components = []
        while remaining:
            start = min(remaining)
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for eid in self.out_edges(x):
                    y = self.edge(eid).terminus
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            components.append(tuple(sorted(seen)))
            remaining -= seen
        return tuple(sorted(components))

    def with_lengths(self, lengths: Mapping[str, Length]) -> "MetricGraph":
        """Copy of the graph with new lengths, keyed by unoriented edge id."""
        missing = set(self.unoriented_ids) - set(lengths)
        if missing:
            raise GraphError(f"missing lengths for edges: {sorted(missing)}")
        records = [(eid, u, v, lengths[eid]) for eid, u, v, _ in self.unoriented]
        return MetricGraph.from_unoriented(self.vertices, records)


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

    All three must hold for the entropy solver: (a) no terminal vertex,
    (b) the graph is not a single cycle, (c) the graph is connected.
    """

    connected: bool
    components: tuple[tuple[str, ...], ...]
    no_terminal_vertex: bool
    terminal_vertices: tuple[str, ...]
    not_single_cycle: bool
    cycle_witness: str | None

    @property
    def ok(self) -> bool:
        return self.connected and self.no_terminal_vertex and self.not_single_cycle

    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.no_terminal_vertex:
            out.append(f"terminal vertices: {list(self.terminal_vertices)}")
        if not self.not_single_cycle:
            out.append(self.cycle_witness or "graph is a cycle")
        if not self.connected:
            out.append(f"disconnected; components: {self.components}")
        return tuple(out)


def validate_entropy_hypotheses(g: MetricGraph) -> HypothesesReport:
    """Check the three standing hypotheses, with witnesses."""
    components = g.components()
    connected = len(components) == 1
    terminal = tuple(x for x in g.vertices if g.valency(x) == 1)
    all_bivalent = all(g.valency(x) == 2 for x in g.vertices)
    is_cycle = connected and all_bivalent
    return HypothesesReport(
        connected=connected,
        components=components,
        no_terminal_vertex=not terminal,
        terminal_vertices=terminal,
        not_single_cycle=not is_cycle,
        cycle_witness="graph is a cycle" if is_cycle else None,
    )


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    mean_residual: float
    worst_edge: str


def verify_fixed_point(
    g: MetricGraph, h: float, x: Mapping[str, float]
) -> ResidualReport:
    """Residuals of the fixed-point system at (h, x); pure check."""
    if set(x) != {e.id for e in g.edges}:
        raise GraphError("vector must assign a value to every oriented edge")
    if any(not v > 0 for v in x.values()):
        raise GraphError("vector entries must be strictly positive")
    worst_edge = ""
    worst = -1.0
    total = 0.0
    for e in g.edges:
        rhs = sum(
            math.exp(-h * float(g.length(f))) * x[f]
            for f in g.out_edges(e.terminus)
            if f != e.reversal
        )
        defect = abs(x[e.id] - rhs)
        total += defect
        if defect > worst:
            worst = defect
            worst_edge = e.id
    return ResidualReport(worst, total / len(g.edges), worst_edge)


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
