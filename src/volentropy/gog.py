"""Graphs of finite groups: degrees, weighted volume, tree entropy, and
n-sheeted coverings.

Only group orders enter any quantity in scope, so a graph of groups is the
underlying graph plus positive integer orders on vertices and unoriented
edges, with each edge order dividing both endpoint orders.  A plain graph
is the case where every order is 1, and the code here passes the orders to
the plain routines rather than repeating them.  The degree of a vertex is
the valency of its lifts in the universal covering tree, from
``optimizer.tree_degrees``; the minimal entropy and metric are
``optimizer.closed_form`` with the orders.  Entropy is computed from the
edge system that ``spectral.edge_system`` builds for these orders, whose
matrix counts non-backtracking continuations in that tree; with trivial
groups it is exactly the plain graph's edge system.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from . import config
from .errors import GraphError
from .graph import Length, MetricGraph, base_id
from .optimizer import Orders, branching_degrees, closed_form, tree_degrees

if TYPE_CHECKING:
    from .entropy import EntropySolution


@dataclass(frozen=True)
class GraphOfGroups:
    """Underlying graph with vertex and edge group orders.

    ``edge_order`` is keyed by unoriented edge id.  When ``has_lengths`` is
    false the graph carries placeholder unit lengths and only unmetrized
    operations apply.  ``orders`` pairs the two mappings in the form
    ``spectral.edge_system`` and ``optimizer.closed_form`` take.
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
            if not isinstance(order, int) or isinstance(order, bool) or order < 1:
                raise GraphError(f"vertex {x!r}: missing or invalid group order")
        for eid, u, v, _ in graph.unoriented:
            order = edge_order.get(eid)
            if not isinstance(order, int) or isinstance(order, bool) or order < 1:
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
    def orders(self) -> Orders:
        return self.vertex_order, self.edge_order

    @cached_property
    def degrees(self) -> dict[str, int]:
        """Tree degree of each vertex."""
        return dict(zip(self.graph.vertices, tree_degrees(self.graph, self.orders)))

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.vertex_order.values()) and all(
            v == 1 for v in self.edge_order.values()
        )


def degree(gog: GraphOfGroups, x: str) -> int:
    """Valency of any lift of x in the covering tree."""
    try:
        return gog.degrees[x]
    except KeyError:
        raise GraphError(f"unknown vertex {x!r}") from None


def gog_volume(gog: GraphOfGroups) -> Length:
    """Half the sum over oriented edges of length divided by edge order."""
    if not gog.has_lengths:
        raise GraphError("graph of groups has no lengths")
    g = gog.graph
    total = sum(
        g.length(e.id) / gog.order_of_edge(e.id) for e in g.edges
    )
    return total / 2


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
    branching_degrees(gog.graph, gog.orders)
    system = spectral.edge_system(gog.graph, gog.orders)
    if not system.irreducible:
        raise GraphError("multiplicity matrix is reducible")
    return solve_unit_radius(system, root_tol=root_tol, residual_tol=residual_tol)


def gog_minimal_entropy(gog: GraphOfGroups) -> float:
    """Closed-form minimum of the entropy over volume-1 length distances."""
    return closed_form(gog.graph, gog.orders)[0]


@dataclass(frozen=True)
class GogMinimalMetric:
    h_min: float
    lengths: dict[str, float]


def gog_minimal_metric(gog: GraphOfGroups) -> GogMinimalMetric:
    """Minimizing lengths (proportional to log of the product of branching
    numbers at the endpoints) normalized to weighted volume 1."""
    return GogMinimalMetric(*closed_form(gog.graph, gog.orders))


@dataclass(frozen=True)
class CoveringMap:
    """Order-level morphism of graphs of groups.

    ``create`` checks only that the maps land in the target; the covering
    invariants and the sheet count are in ``report``.  A cover is frozen,
    so what ``covering_inequality`` needs of it at every metric is worked
    out on first use and kept: ``report`` and the private
    ``_metrizable_source`` and ``_bound``.
    """

    source: GraphOfGroups
    target: GraphOfGroups
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, str]

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
        return cls(source, target, dict(vertex_map), dict(edge_map))

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
    """Verify the covering invariants and the constancy of the sheet count.

    One pass over the source edges finds the first edge whose image breaks
    reversal or origins, and sums the lifts |G_y| / |G_f| per source
    vertex y and target edge, and the fiber |G_e| / |G_f| per target edge
    e.  One pass over the source vertices sums the fibers |G_x| / |G_y|.
    Each target edge e leaving the image x of y must lift |G_x| / |G_e|
    times at y; the vertex fibers must share one positive integer, the
    sheet count, and the edge fibers must equal it (or, without one, the
    first edge's fiber).
    """
    src, tgt = cover.source, cover.target
    phi_v, phi_e = cover.vertex_map, cover.edge_map

    broken_reversal = broken_origin = None
    lifts: dict[tuple[str, str], int] = defaultdict(int)
    edge_fibers: dict[str, Fraction] = defaultdict(Fraction)
    for f in src.graph.edges:
        image = tgt.graph.edge(phi_e[f.id])
        if broken_reversal is None and phi_e[f.reversal] != image.reversal:
            broken_reversal = f.id
        if broken_origin is None and phi_v[f.origin] != image.origin:
            broken_origin = f.id
        order = src.order_of_edge(f.id)
        lifts[f.origin, image.id] += src.vertex_order[f.origin] // order
        edge_fibers[image.id] += Fraction(tgt.order_of_edge(image.id), order)
    checks = [
        CheckResult(name, bad is None, bad and f"edge {bad} breaks {broken}")
        for name, bad, broken in (
            ("reversal", broken_reversal, "reversal"),
            ("endpoints", broken_origin, "origins"),
        )
    ]

    witness = None
    for y in src.graph.vertices:
        x = phi_v[y]
        for e in tgt.graph.out_edges(x):
            lifted = lifts.get((y, e), 0)
            expected = tgt.vertex_order[x] // tgt.order_of_edge(e)
            if lifted != expected:
                witness = f"vertex {y}: edges over {e} contribute {lifted}, expected {expected}"
                break
        if witness:
            break
    checks.append(CheckResult("local-multiplicity", witness is None, witness))

    vertex_sums = dict.fromkeys(tgt.graph.vertices, Fraction(0))
    for y in src.graph.vertices:
        x = phi_v[y]
        vertex_sums[x] += Fraction(tgt.vertex_order[x], src.vertex_order[y])
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

    fibers = [(e, edge_fibers[e]) for e in tgt.graph.topology.edge_ids]
    expected = Fraction(sheets) if sheets is not None else fibers[0][1]
    witness = next(
        (
            f"edge {e}: fiber sum {fiber}, expected {expected}"
            for e, fiber in fibers
            if fiber != expected
        ),
        None,
    )
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
) -> CoveringInequalityReport:
    """Evaluate entropy times volume on the source against sheets times the
    minimal entropy of the target.

    The checks and the right side depend on the cover alone and run once
    per cover; each call checks the new lengths and solves.  A gap below
    ``config.EQUALITY_GAP_TOL`` is tested for proportionality.
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
    if gap < config.EQUALITY_GAP_TOL:
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
        equality=bool(gap < config.EQUALITY_GAP_TOL and proportional),
        proportional=proportional,
        ratio=ratio,
    )
