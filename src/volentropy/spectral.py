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
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import config
from .errors import ConvergenceError, GraphError
from .graph import MetricGraph, base_id


@dataclass(frozen=True)
class EdgeSystem:
    """What the solvers need from a graph, built in one pass over its edges.

    Oriented edges are indexed in sorted id order.  ``rows``, ``cols`` and
    ``vals`` are the continuation multiplicities as row-major triplets;
    ``lengths``, ``reversal`` and ``edge_orders`` give per edge its float
    length, the index of its reversal and its group order |G_e|;
    ``irreducible`` says whether the triplets' support is strongly
    connected, found by reachability from edge 0 and its reversal.
    """

    edge_ids: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    lengths: np.ndarray
    reversal: np.ndarray
    edge_orders: np.ndarray
    irreducible: bool

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
    latter keyed by unoriented edge id; None means every order is 1.  One
    pass over the edges gives origin, terminus and reversal indices; the
    triplets come from index arrays, in row-major order with each row's
    columns ascending.
    """
    vertex_index = {x: i for i, x in enumerate(g.vertices)}
    index = g.edge_index
    n = len(g.edges)
    triples = chain.from_iterable(
        (vertex_index[e.origin], vertex_index[e.terminus], index[e.reversal]) for e in g.edges
    )
    origin, terminus, reversal = np.fromiter(triples, np.intp, 3 * n).reshape(n, 3).T.copy()
    if orders is None:
        edge_orders = np.ones(n, dtype=np.intp)
        lifts = edge_orders
    else:
        vertex_order, edge_order = orders
        edge_orders = np.array([edge_order[base_id(e.id)] for e in g.edges], dtype=np.intp)
        # A lift of vertex x has |G_x| / |G_f| lifts of each edge f leaving x.
        lifts = np.array([vertex_order[x] for x in g.vertices], dtype=np.intp)[origin] // edge_orders
    # Stable, so each vertex's out-edges keep ascending index order.
    out = origin.argsort(kind="stable")
    degree = np.bincount(origin, minlength=len(g.vertices))
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
    rows, cols = rows[keep], cols[keep]
    return EdgeSystem(
        edge_ids=tuple(e.id for e in g.edges),
        rows=rows,
        cols=cols,
        vals=vals[keep].astype(float),
        lengths=np.array([float(g.lengths[e.id]) for e in g.edges]),
        reversal=reversal,
        edge_orders=edge_orders.astype(float),
        irreducible=_strongly_connected(rows, cols, reversal),
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
    if len(g.components()) > 1:
        raise GraphError("irreducibility requires a connected graph")
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
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    h: float,
    lengths: np.ndarray,
    start: np.ndarray | None = None,
    target: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray | TripletMatrix]:
    """Perron root, max-normalized Perron vector and the assembled matrix at h.

    Both paths start from ``start``, a positive vector such as the Perron
    vector at a nearby h, or from the all-ones vector.  A ``TripletMatrix``
    (from ``DENSE_EDGE_LIMIT`` edges up) goes through ``power_iteration``,
    which gets ``target`` and may stop early once rho is certified to lie on
    one side of it.
    A dense matrix goes through inverse iteration shifted by its
    Collatz-Wielandt bounds: for positive x, the ratios r = (Mx) / x satisfy
    min r <= rho <= max r (Seneta, *Non-negative Matrices and Markov
    Chains*, 1.1).  The iteration stops once the gap between them is within
    ``POWER_RQ_TOL`` of the upper bound, and returns their midpoint.
    Otherwise it solves ((max r + gap) I - M) y = x: the shift is above rho,
    so the system is a nonsingular M-matrix with a positive inverse.  If
    rounding still yields a nonpositive y, or the gap stops shrinking, the
    current vector goes to ``power_iteration``, with ``target``; that
    happens when Perron entries fall below rounding of the largest.  The
    inverse iteration itself always runs to full precision.
    """
    matrix = assemble(rows, cols, vals, n, h, lengths)
    x = np.ones(n) if start is None else start
    gap = math.inf
    while isinstance(matrix, np.ndarray):
        ratios = (matrix @ x) / x
        lower, upper = float(ratios.min()), float(ratios.max())
        if upper - lower <= config.POWER_RQ_TOL * upper:
            return 0.5 * (lower + upper), x, matrix
        if not upper - lower < gap:
            break
        gap = upper - lower
        y = np.linalg.solve((upper + gap) * np.eye(n) - matrix, x)
        if not float(y.min()) > 0.0:
            break
        x = y / float(y.max())
    radius, x, _, _ = power_iteration(matrix, x, target)
    return radius, x, matrix


def left_perron_vector(
    x: np.ndarray,
    h: float,
    lengths: np.ndarray,
    reversal: np.ndarray,
    edge_orders: np.ndarray,
) -> np.ndarray:
    """Left Perron vector of the h-weighted matrix from its right one.

    The reversal involution conjugates the matrix to its transpose up to
    diagonal scaling, so y_e = exp(-h l_e) x_rev(e) / |G_e| satisfies
    y^T M = rho y^T whenever M x = rho x; ``edge_orders`` gives |G_e| per
    oriented edge.
    """
    return np.exp(-h * lengths) * x[reversal] / edge_orders


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
