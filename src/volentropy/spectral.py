"""Edge systems of graphs and graphs of groups, and Perron-Frobenius radii.

``edge_system`` counts, for each pair of oriented edges with t(e) = i(f),
the lifts of f that continue a lift of e in the covering tree without
backtracking.  With all group orders 1 this is the non-backtracking
adjacency: a 1 exactly when f can follow e and is not its reversal.  The
h-weighted matrix scales column f by exp(-h * length(f)); its spectral
radius drives the entropy solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import config
from .errors import ConvergenceError, GraphError
from .graph import MetricGraph, Topology


@dataclass(frozen=True)
class EdgeSystem:
    """What the solvers need from a graph, read from its topology.

    Oriented edges are indexed in sorted id order.  ``rows``, ``cols`` and
    ``vals`` are the continuation multiplicities as row-major triplets;
    ``lengths``, ``reversal`` and ``edge_orders`` give per edge its float
    length, the index of its reversal and its group order |G_e|;
    ``irreducible`` says whether the triplets' support is strongly
    connected, found by reachability from edge 0 and its reversal.

    Only ``lengths`` depends on the metric.  ``edge_system`` shares the
    other arrays, read-only, among every system built on one topology and
    group orders, and with them ``at_zero``: a slot where the entropy
    solver keeps the Perron root and vector at h = 0, which depend on the
    triplets alone.  A system built by hand gets an empty slot of its own.
    """

    edge_ids: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    lengths: np.ndarray
    reversal: np.ndarray
    edge_orders: np.ndarray
    irreducible: bool
    at_zero: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class EdgeAdjacency:
    """Boolean non-backtracking matrix, stored as successor lists.

    Edge indexing is sorted by oriented edge id and stable across runs.
    """

    order: int
    edge_ids: tuple[str, ...]
    successors: tuple[tuple[int, ...], ...]

    def entry(self, e: str, f: str) -> int:
        i = self.edge_ids.index(e)
        j = self.edge_ids.index(f)
        return 1 if j in self.successors[i] else 0

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.order, self.order))
        for i, row in enumerate(self.successors):
            for j in row:
                out[i, j] = 1.0
        return out


@dataclass(frozen=True)
class TripletMatrix:
    """Sparse square matrix as row-major triplets; ``@`` multiplies a vector."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.weights)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.weights * x[self.cols], minlength=self.shape[0])


@dataclass(frozen=True)
class WeightedEdgeMatrix:
    """The h-weighted matrix: base entries times exp(-h * length(column))."""

    base: EdgeSystem
    h: float
    entries: np.ndarray | TripletMatrix


@dataclass(frozen=True)
class PerronResult:
    radius: float
    vector: dict[str, float]
    iterations: int
    residual: float


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    components: tuple[tuple[str, ...], ...] | None

    def __bool__(self) -> bool:
        return self.irreducible


def edge_system(
    g: MetricGraph,
    orders: tuple[Mapping[str, int], Mapping[str, int]] | None = None,
) -> EdgeSystem:
    """The edge system of g, or of a graph of groups on g.

    ``orders`` holds a graph of groups' vertex orders and edge orders, the
    latter keyed by unoriented edge id; None means every order is 1.
    Everything but the lengths depends only on the topology and the orders,
    so it is built once and kept in the topology's ``solver_memo``, keyed
    by the orders listed in vertex and unoriented edge order (None for a
    plain graph); every graph that ``with_lengths`` makes from g shares it.
    A call then only converts each unoriented length once and spreads it
    to both orientations.
    """
    t = g.topology
    if orders is None:
        key = None
    else:
        vertex_order, edge_order = orders
        key = (
            tuple(vertex_order[x] for x in t.vertices),
            tuple(edge_order[eid] for eid in t.unoriented_ids),
        )
    structure = t.solver_memo.get(key)
    if structure is None:
        structure = t.solver_memo[key] = _structure(t, key)
    # numerator / denominator is float(Fraction), correctly rounded.
    lengths = np.array([
        length if isinstance(length, float) else length.numerator / length.denominator
        for length in g.base_lengths
    ])
    return EdgeSystem(
        edge_ids=t.edge_ids,
        rows=structure.rows,
        cols=structure.cols,
        vals=structure.vals,
        lengths=lengths[structure.base],
        reversal=structure.reversal,
        edge_orders=structure.edge_orders,
        irreducible=structure.irreducible,
        at_zero=structure.at_zero,
    )


@dataclass(frozen=True)
class _Structure:
    """The length-independent part of an edge system, kept per topology and
    group orders.  Its arrays are read-only and it holds no reference to
    the topology; ``base`` numbers each oriented edge's unoriented edge."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    reversal: np.ndarray
    edge_orders: np.ndarray
    base: np.ndarray
    irreducible: bool
    at_zero: dict


def _structure(
    t: Topology, orders: tuple[tuple[int, ...], tuple[int, ...]] | None
) -> _Structure:
    """Triplets, reversal, edge orders and irreducibility of a topology
    with group orders given per vertex and per unoriented edge.

    The triplets come from the topology's index arrays, in row-major order
    with each row's columns ascending.
    """
    origin, terminus, reversal, base = (
        np.array(part, dtype=np.intp) for part in (t.origin, t.terminus, t.reversal, t.base)
    )
    n = len(t.edge_ids)
    if orders is None:
        edge_orders = np.ones(n, dtype=np.intp)
        lifts = edge_orders
    else:
        vertex_orders, unoriented_orders = (np.array(part, dtype=np.intp) for part in orders)
        edge_orders = unoriented_orders[base]
        # A lift of vertex x has |G_x| / |G_f| lifts of each edge f leaving x.
        lifts = vertex_orders[origin] // edge_orders
    # Stable, so each vertex's out-edges keep ascending index order.
    out = origin.argsort(kind="stable")
    degree = np.array(t.valency, dtype=np.intp)
    count = degree[terminus]
    ends = count.cumsum()
    rows = np.arange(n, dtype=np.intp).repeat(count)
    # Each row's candidates are the out-edges of its terminus: the position
    # in ``out`` of that vertex's first out-edge plus the rank in the row.
    first = (degree.cumsum() - degree)[terminus] - ends + count
    cols = out[np.arange(ends[-1]) + first.repeat(count)]
    # One lift of the reversal is the backtrack.
    vals = lifts[cols] - (cols == reversal[rows])
    keep = vals > 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep].astype(float)
    edge_orders = edge_orders.astype(float)
    for part in (rows, cols, vals, reversal, edge_orders, base):
        part.setflags(write=False)
    return _Structure(
        rows, cols, vals, reversal, edge_orders, base,
        irreducible=_strongly_connected(rows, cols, reversal),
        at_zero={},
    )


def _strongly_connected(rows: np.ndarray, cols: np.ndarray, reversal: np.ndarray) -> bool:
    """Whether the support of the triplets is strongly connected.

    The support is invariant under (e, f) -> (rev f, rev e), so the edges
    that reach edge 0 are the reversals of those that rev 0 reaches.  One
    loop grows both forward reaches, from 0 and from rev 0, on two copies of
    the support; each round marks the successors of every edge seen.
    """
    n = len(reversal)
    rows = np.concatenate((rows, rows + n))
    cols = np.concatenate((cols, cols + n))
    seen = np.zeros(2 * n, dtype=bool)
    seen[0] = seen[n + reversal[0]] = True
    reached = 2
    while reached < 2 * n:
        seen[cols[seen[rows]]] = True
        reached, before = np.count_nonzero(seen), reached
        if reached == before:
            return False
    return True


def edge_adjacency(g: MetricGraph) -> EdgeAdjacency:
    """Non-backtracking adjacency of the oriented edges."""
    system = edge_system(g)
    return EdgeAdjacency(system.order, system.edge_ids, _successors(system))


def _successors(system: EdgeSystem) -> tuple[tuple[int, ...], ...]:
    bounds = np.cumsum(np.bincount(system.rows, minlength=system.order))[:-1]
    return tuple(tuple(row.tolist()) for row in np.split(system.cols, bounds))


def strongly_connected_components(
    successors: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Tarjan's algorithm, iterative to avoid recursion limits: each vertex
    on the depth-first path keeps its successor iterator and resumes it."""
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        path = [(root, iter(successors[root]))]
        while path:
            v, succ = path[-1]
            for w in succ:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    path.append((w, iter(successors[w])))
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(sorted(component))
                if path:
                    parent = path[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return components


def is_irreducible(g: MetricGraph) -> IrreducibilityReport:
    """Strong connectivity of the non-backtracking edge digraph.

    Cross-checked against the valency criterion (irreducible iff some vertex
    has valency at least three, for connected graphs without terminal
    vertices); disagreement means an implementation bug and raises.  A
    reducible system's witness is its strongly connected components.
    """
    terminal = [x for x in g.vertices if g.valency(x) == 1]
    if terminal:
        raise GraphError(f"irreducibility requires no terminal vertices; found {terminal}")
    system = edge_system(g)
    has_branch_vertex = any(g.valency(x) >= 3 for x in g.vertices)
    if system.irreducible != has_branch_vertex:
        raise RuntimeError(
            "internal consistency failure: strong connectivity and the "
            "valency criterion disagree"
        )
    if system.irreducible:
        return IrreducibilityReport(True, None)
    witness = tuple(
        tuple(system.edge_ids[i] for i in component)
        for component in strongly_connected_components(_successors(system))
    )
    return IrreducibilityReport(False, witness)


# -- matrix assembly and power iteration ------------------------------------


def assemble(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    h: float,
    lengths: np.ndarray,
) -> np.ndarray | TripletMatrix:
    """Weighted matrix with entry vals * exp(-h * lengths[col])."""
    weighted = vals * np.exp(-h * lengths[cols])
    if n < config.DENSE_EDGE_LIMIT:
        out = np.zeros((n, n))
        out[rows, cols] = weighted
        return out
    return TripletMatrix(rows, cols, weighted, (n, n))


def weighted_matrix(g: MetricGraph, h: float) -> WeightedEdgeMatrix:
    """The h-weighted non-backtracking matrix of g."""
    if h < 0:
        raise GraphError(f"weight exponent must be nonnegative, got {h}")
    system = edge_system(g)
    entries = assemble(
        system.rows, system.cols, system.vals, system.order, float(h), system.lengths
    )
    return WeightedEdgeMatrix(system, float(h), entries)


def perron_at(
    system: EdgeSystem,
    h: float,
    start: np.ndarray | None = None,
    target: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray | TripletMatrix]:
    """Perron root, max-normalized Perron vector and the system's matrix at h.

    Both paths start from ``start``, a positive vector such as the Perron
    vector at a nearby h, or from the all-ones vector.  A ``TripletMatrix``
    (from ``DENSE_EDGE_LIMIT`` edges up) goes through ``power_iteration``,
    which gets ``target`` and may stop early once rho is certified to lie on
    one side of it.
    A dense matrix goes through inverse iteration shifted by its
    Collatz-Wielandt bounds: for positive x, the ratios r = (Mx) / x satisfy
    min r <= rho <= max r (Seneta, *Non-negative Matrices and Markov
    Chains*, 1.1).  The iteration stops once the gap between them is within
    ``POWER_RQ_TOL`` of the upper bound, and returns their midpoint.  With
    ``target`` set it also stops once the gap is within a tenth of the
    distance d from the bounds to ``target``, within d squared and within
    1e-3 of the upper bound: rho is then certified to lie on one side of
    ``target``, and the midpoint is close enough for a quadratic Newton
    step.  Otherwise it solves ((max r + gap) I - M) y = x: the shift is
    above rho, so the system is a nonsingular M-matrix with a positive
    inverse.  If rounding still yields a nonpositive y, or the gap stops
    shrinking, the current vector goes to ``power_iteration``, with
    ``target``; that happens when Perron entries fall below rounding of
    the largest.
    """
    n = system.order
    matrix = assemble(system.rows, system.cols, system.vals, n, h, system.lengths)
    x = np.ones(n) if start is None else start
    gap = math.inf
    while isinstance(matrix, np.ndarray):
        ratios = (matrix @ x) / x
        lower, upper = float(ratios.min()), float(ratios.max())
        width = upper - lower
        if width <= config.POWER_RQ_TOL * upper:
            return 0.5 * (lower + upper), x, matrix
        if target is not None:
            # Within a tenth of the distance to target the side is certain;
            # within its square the midpoint keeps Newton's steps quadratic;
            # and 1e-3 relative caps the error far from target.
            distance = max(lower - target, target - upper)
            if width <= min(0.1 * distance, distance * distance, 1e-3 * upper):
                return 0.5 * (lower + upper), x, matrix
        if not width < gap:
            break
        gap = width
        y = np.linalg.solve((upper + gap) * np.eye(n) - matrix, x)
        if not float(y.min()) > 0.0:
            break
        x = y / float(y.max())
    radius, x, _, _ = power_iteration(matrix, x, target)
    return radius, x, matrix


def left_perron_vector(system: EdgeSystem, x: np.ndarray, h: float) -> np.ndarray:
    """Left Perron vector of the system's matrix at h from its right one.

    The reversal involution conjugates the matrix to its transpose up to
    diagonal scaling, so y_e = exp(-h l_e) x_rev(e) / |G_e| satisfies
    y^T M = rho y^T whenever M x = rho x.
    """
    return np.exp(-h * system.lengths) * x[system.reversal] / system.edge_orders


def power_iteration(
    matrix: np.ndarray | TripletMatrix,
    start: np.ndarray | None = None,
    target: float | None = None,
) -> tuple[float, np.ndarray, int, float]:
    """Dominant eigenvalue, max-normalized eigenvector, steps and residual.

    Power iteration on the shifted matrix M + (lam/4) I, where lam is the
    current Rayleigh quotient, from ``start`` (any positive vector) or from
    the all-ones vector; the matrix must be irreducible nonnegative.  For
    any c > 0, M + cI is primitive (Seneta, *Non-negative Matrices and
    Markov Chains*, 1.1): every eigenvalue lam' != rho of M has
    |lam' + c| < rho + c, so the iteration converges whatever the period of
    M, and the shift leaves the Perron vector unchanged.  It stops when the
    Rayleigh quotient settles to ``POWER_RQ_TOL`` and the residual is within
    ``POWER_RESIDUAL_TOL``.

    With ``target`` set, each step with a positive x also forms the
    Collatz-Wielandt bounds min r <= rho <= max r of r = (Mx) / x (Seneta,
    1.1), and returns their midpoint once the interval excludes ``target``
    by ten times its width: rho is then certified to lie on that side of
    ``target``, which is all an intermediate Newton step needs.
    """
    x = np.ones(matrix.shape[0]) if start is None else start
    y = matrix @ x
    lam = math.inf
    residual = math.inf
    for iteration in range(1, config.POWER_MAX_ITER + 1):
        lam_prev, lam = lam, float(np.dot(x, y) / np.dot(x, x))
        # A quarter of the radius: a larger shift slows the fast-mixing
        # (random cubic) matrices, a smaller one the long-period chains.
        y += 0.25 * lam * x
        peak = float(np.max(y))
        if peak <= 0.0:
            raise ConvergenceError("power iteration collapsed; matrix has a zero row")
        x = y / peak
        y = matrix @ x
        if target is not None and float(x.min()) > 0.0:
            ratios = y / x
            lower, upper = float(ratios.min()), float(ratios.max())
            # A tenth: a smaller factor spends more products per evaluation
            # for little better Newton steps, a larger one more evaluations.
            if upper - lower <= 0.1 * max(lower - target, target - upper):
                radius = 0.5 * (lower + upper)
                return radius, x, iteration, float(np.abs(y - radius * x).max())
        if abs(lam - lam_prev) <= config.POWER_RQ_TOL * lam:
            residual = float(np.max(np.abs(y - lam * x)))
            if residual <= config.POWER_RESIDUAL_TOL:
                if float(np.min(x)) <= 0.0:
                    raise ConvergenceError("Perron vector has a nonpositive entry")
                return lam, x, iteration, residual
    raise ConvergenceError(
        f"power iteration did not converge in {config.POWER_MAX_ITER} iterations "
        f"(last residual {residual:.3e})"
    )


def spectral_radius(m: WeightedEdgeMatrix) -> PerronResult:
    """Perron root and positive eigenvector of a weighted edge matrix."""
    if not m.base.irreducible:
        raise GraphError("spectral radius requires an irreducible edge matrix")
    radius, vec, iterations, residual = power_iteration(m.entries)
    vector = {eid: float(v) for eid, v in zip(m.base.edge_ids, vec)}
    return PerronResult(radius, vector, iterations, residual)
