"""Graphs of finite groups: degrees, weighted volume, tree entropy, and
n-sheeted coverings.

Only group orders enter any quantity in scope, so a graph of groups is the
underlying graph plus positive integer orders on vertices and unoriented
edges, with each edge order dividing both endpoint orders.  The degree of a
vertex is the valency of its lifts in the universal covering tree.  Entropy
is computed from the edge system that ``spectral.edge_system`` builds for
these orders, whose matrix counts non-backtracking continuations in that
tree; with trivial groups it is exactly the plain graph's edge system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from . import config
from .errors import GraphError
from .graph import Length, MetricGraph, base_id

if TYPE_CHECKING:
    from .entropy import EntropySolution


@dataclass(frozen=True)
class GraphOfGroups:
    """Underlying graph with vertex and edge group orders.

    ``edge_order`` is keyed by unoriented edge id.  When ``has_lengths`` is
    false the graph carries placeholder unit lengths and only unmetrized
    operations apply.
    """

    graph: MetricGraph
    vertex_order: Mapping[str, int]
    edge_order: Mapping[str, int]
    has_lengths: bool = True

    @classmethod
    def create(
        cls,
        graph: MetricGraph,
        vertex_order: Mapping[str, int],
        edge_order: Mapping[str, int],
        has_lengths: bool = True,
    ) -> "GraphOfGroups":
        for x in graph.vertices:
            order = vertex_order.get(x)
            if not isinstance(order, int) or order < 1:
                raise GraphError(f"vertex {x!r}: missing or invalid group order")
        for eid, u, v, _ in graph.unoriented:
            order = edge_order.get(eid)
            if not isinstance(order, int) or order < 1:
                raise GraphError(f"edge {eid!r}: missing or invalid group order")
            for endpoint in (u, v):
                if vertex_order[endpoint] % order:
                    raise GraphError(
                        f"edge {eid!r}: order {order} does not divide the order "
                        f"{vertex_order[endpoint]} of vertex {endpoint!r}"
                    )
        return cls(graph, dict(vertex_order), dict(edge_order), has_lengths)

    def order_of_edge(self, oriented_id: str) -> int:
        return self.edge_order[base_id(oriented_id)]

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.vertex_order.values()) and all(
            v == 1 for v in self.edge_order.values()
        )


def degree(gog: GraphOfGroups, x: str) -> int:
    """Valency of any lift of x in the covering tree."""
    g = gog.graph
    total = sum(
        Fraction(gog.vertex_order[x], gog.order_of_edge(eid)) for eid in g.out_edges(x)
    )
    return int(total)


def gog_volume(gog: GraphOfGroups) -> Length:
    """Half the sum over oriented edges of length divided by edge order."""
    if not gog.has_lengths:
        raise GraphError("graph of groups has no lengths")
    g = gog.graph
    total = sum(
        g.length(e.id) / gog.order_of_edge(e.id) for e in g.edges
    )
    return total / 2


def _require_degrees(gog: GraphOfGroups, bound: int = 3) -> dict[str, int]:
    degrees = {x: degree(gog, x) for x in gog.graph.vertices}
    bad = [x for x, d in degrees.items() if d < bound]
    if bad:
        raise GraphError(f"vertices of tree degree < {bound}: {bad}")
    return degrees


def gog_entropy(
    gog: GraphOfGroups,
    *,
    root_tol: float = config.ROOT_TOL,
    residual_tol: float = config.RESIDUAL_TOL,
) -> EntropySolution:
    """Volume entropy of the covering tree metric.

    Solves for unit spectral radius of the multiplicity-weighted matrix;
    reduces exactly to the plain solver when all orders are 1.
    """
    from . import spectral
    from .entropy import solve_unit_radius

    if not gog.has_lengths:
        raise GraphError("graph of groups has no lengths")
    _require_degrees(gog)
    g = gog.graph
    if len(g.components()) > 1:
        raise GraphError("graph of groups must be connected")
    system = spectral.edge_system(g, (gog.vertex_order, gog.edge_order))
    if not system.irreducible:
        raise GraphError("multiplicity matrix is reducible")
    return solve_unit_radius(system, root_tol=root_tol, residual_tol=residual_tol)


def gog_minimal_entropy(gog: GraphOfGroups) -> float:
    """Closed-form minimum of the entropy over volume-1 length distances."""
    degrees = _require_degrees(gog)
    return 0.5 * sum(
        degrees[x] * math.log(degrees[x] - 1) / gog.vertex_order[x]
        for x in gog.graph.vertices
    )


@dataclass(frozen=True)
class GogMinimalMetric:
    h_min: float
    lengths: dict[str, float]


def gog_minimal_metric(gog: GraphOfGroups) -> GogMinimalMetric:
    """Minimizing lengths (proportional to log of the product of branching
    numbers at the endpoints) normalized to weighted volume 1."""
    degrees = _require_degrees(gog)
    g = gog.graph
    raw = {
        eid: math.log((degrees[u] - 1) * (degrees[v] - 1))
        for eid, u, v, _ in g.unoriented
    }
    weighted = sum(raw[eid] / gog.edge_order[eid] for eid in raw)
    scale = 1.0 / weighted
    lengths = {eid: scale * value for eid, value in raw.items()}
    return GogMinimalMetric(gog_minimal_entropy(gog), lengths)


@dataclass(frozen=True)
class CoveringMap:
    """Order-level morphism of graphs of groups with fiber data.

    A cover is frozen, so what ``covering_inequality`` needs of it at every
    metric is worked out on first use and kept: ``report`` and the private
    ``_metrizable_source`` and ``_bound``.
    """

    source: GraphOfGroups
    target: GraphOfGroups
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, str]
    sheets: int

    @classmethod
    def create(
        cls,
        source: GraphOfGroups,
        target: GraphOfGroups,
        vertex_map: Mapping[str, str],
        edge_map: Mapping[str, str],
    ) -> "CoveringMap":
        for y in source.graph.vertices:
            if vertex_map.get(y) not in target.graph.vertices:
                raise GraphError(f"vertex map must send {y!r} to a target vertex")
        for e in source.graph.edges:
            image = edge_map.get(e.id)
            if image not in target.graph.edge_index:
                raise GraphError(f"edge map must send {e.id!r} to a target edge")
        x0 = target.graph.vertices[0]
        sheets = sum(
            Fraction(target.vertex_order[x0], source.vertex_order[y])
            for y in source.graph.vertices
            if vertex_map[y] == x0
        )
        return cls(
            source,
            target,
            dict(vertex_map),
            dict(edge_map),
            int(sheets) if sheets.denominator == 1 else 0,
        )

    @cached_property
    def report(self) -> CoveringReport:
        """``check_covering`` of this cover."""
        return check_covering(self)

    @cached_property
    def _metrizable_source(self) -> GraphOfGroups:
        """The source with its group orders checked for a new metric."""
        s = self.source
        return GraphOfGroups.create(s.graph, s.vertex_order, s.edge_order)

    @cached_property
    def _bound(self) -> float:
        """Sheets times the target's minimal entropy, the right side of the
        covering inequality."""
        return self.report.sheets * gog_minimal_entropy(self.target)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class CoveringReport:
    checks: tuple[CheckResult, ...]
    sheets: int | None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_violation(self) -> CheckResult | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None


def check_covering(cover: CoveringMap) -> CoveringReport:
    """Verify the covering invariants and the constancy of the sheet count."""
    src, tgt = cover.source, cover.target
    phi_v, phi_e = cover.vertex_map, cover.edge_map
    checks: list[CheckResult] = []

    bad = next(
        (
            f.id
            for f in src.graph.edges
            if phi_e[f.reversal] != tgt.graph.edge(phi_e[f.id]).reversal
        ),
        None,
    )
    checks.append(
        CheckResult("reversal", bad is None, bad and f"edge {bad} breaks reversal")
    )

    bad = next(
        (
            f.id
            for f in src.graph.edges
            if phi_v[f.origin] != tgt.graph.edge(phi_e[f.id]).origin
        ),
        None,
    )
    checks.append(
        CheckResult("endpoints", bad is None, bad and f"edge {bad} breaks origins")
    )

    witness = None
    for y in src.graph.vertices:
        x = phi_v[y]
        for e in tgt.graph.out_edges(x):
            lifted = sum(
                Fraction(src.vertex_order[y], src.order_of_edge(f))
                for f in src.graph.out_edges(y)
                if phi_e[f] == e
            )
            expected = Fraction(tgt.vertex_order[x], tgt.order_of_edge(e))
            if lifted != expected:
                witness = (
                    f"vertex {y}: edges over {e} contribute {lifted}, expected {expected}"
                )
                break
        if witness:
            break
    checks.append(CheckResult("local-multiplicity", witness is None, witness))

    vertex_sums = {
        x: sum(
            (
                Fraction(tgt.vertex_order[x], src.vertex_order[y])
                for y in src.graph.vertices
                if phi_v[y] == x
            ),
            Fraction(0),
        )
        for x in tgt.graph.vertices
    }
    values = set(vertex_sums.values())
    sheets = None
    if len(values) == 1:
        common = values.pop()
        if common.denominator == 1 and common > 0:
            sheets = int(common)
    witness = None
    if sheets is None:
        witness = f"vertex fiber sums are not a constant integer: {dict(sorted((k, str(v)) for k, v in vertex_sums.items()))}"
    checks.append(CheckResult("vertex-fibers", sheets is not None, witness))

    witness = None
    expected = Fraction(sheets) if sheets is not None else None
    for e in tgt.graph.edges:
        fiber = sum(
            (
                Fraction(tgt.order_of_edge(e.id), src.order_of_edge(f.id))
                for f in src.graph.edges
                if phi_e[f.id] == e.id
            ),
            Fraction(0),
        )
        if expected is None:
            expected = fiber
        if fiber != expected:
            witness = f"edge {e.id}: fiber sum {fiber}, expected {expected}"
            break
    checks.append(CheckResult("edge-fibers", witness is None, witness))

    return CoveringReport(tuple(checks), sheets)


@dataclass(frozen=True)
class CoveringInequalityReport:
    """Both sides of the entropy-volume covering inequality and its gap.

    When the gap is below the equality threshold, the source lengths are
    tested for proportionality to the lift of the minimizing target metric
    and the common ratio is reported.
    """

    lhs: float
    rhs: float
    gap: float
    sheets: int
    equality: bool
    proportional: bool | None
    ratio: float | None


def covering_inequality(
    cover: CoveringMap,
    lengths: Mapping[str, Length] | None = None,
    *,
    equality_gap_tol: float = config.EQUALITY_GAP_TOL,
) -> CoveringInequalityReport:
    """Evaluate entropy times volume on the source against sheets times the
    minimal entropy of the target.

    The checks and the right side depend on the cover alone and run once
    per cover; each call checks the new lengths and solves.
    """
    report = cover.report
    if not report.ok:
        violation = report.first_violation
        raise GraphError(f"invalid covering: {violation.name}: {violation.witness}")
    source = cover.source
    if lengths is not None:
        # The lengths are checked before the orders.
        graph = source.graph.with_lengths(dict(lengths))
        source = replace(cover._metrizable_source, graph=graph)
    elif not source.has_lengths:
        raise GraphError("source has no lengths; provide a metric to compare")
    rhs = cover._bound
    lhs = gog_entropy(source).h * float(gog_volume(source))
    gap = lhs - rhs
    proportional = None
    ratio = None
    if gap < equality_gap_tol:
        minimal = gog_minimal_metric(cover.target)
        ratios = [
            float(source.graph.length(f.id)) / minimal.lengths[base_id(cover.edge_map[f.id])]
            for f in source.graph.edges
        ]
        spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
        proportional = spread <= config.PROPORTIONALITY_TOL
        if proportional:
            ratio = sum(ratios) / len(ratios)
    return CoveringInequalityReport(
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        sheets=report.sheets,
        equality=bool(gap < equality_gap_tol and proportional),
        proportional=proportional,
        ratio=ratio,
    )
