"""Non-backtracking edge adjacency and Perron-Frobenius spectral radius.

The edge adjacency matrix has a 1 in row e, column f exactly when f can
follow e without backtracking (t(e) = i(f) and f is not the reversal of e).
Its h-weighted form scales column f by exp(-h * length(f)); the spectral
radius of that matrix drives the entropy solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from . import config
from .errors import ConvergenceError, GraphError
from .graph import MetricGraph


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

    def nonzero_pairs(self):
        """Yield (row edge id, column edge id) for every 1 entry, row-major."""
        for i, row in enumerate(self.successors):
            for j in row:
                yield self.edge_ids[i], self.edge_ids[j]


@dataclass(frozen=True)
class WeightedEdgeMatrix:
    """The h-weighted matrix: base entries times exp(-h * length(column))."""

    base: EdgeAdjacency
    h: float
    entries: np.ndarray | sparse.csr_matrix


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


def edge_adjacency(g: MetricGraph) -> EdgeAdjacency:
    """Non-backtracking adjacency of the oriented edges."""
    ids = tuple(e.id for e in g.edges)
    index = g.edge_index
    successors = []
    for e in g.edges:
        row = tuple(
            index[f] for f in g.out_edges(e.terminus) if f != e.reversal
        )
        successors.append(row)
    return EdgeAdjacency(len(ids), ids, tuple(successors))


def strongly_connected_components(
    successors: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Tarjan's algorithm, iterative to avoid recursion limits."""
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
        work = [(root, 0)]
        while work:
            v, start = work.pop()
            if start == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            succ = successors[v]
            for i in range(start, len(succ)):
                w = succ[i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components


def is_irreducible(g: MetricGraph) -> IrreducibilityReport:
    """Strong connectivity of the non-backtracking edge digraph.

    Cross-checked against the valency criterion (irreducible iff some vertex
    has valency at least three, for connected graphs without terminal
    vertices); disagreement means an implementation bug and raises.
    """
    if len(g.components()) > 1:
        raise GraphError("irreducibility requires a connected graph")
    terminal = [x for x in g.vertices if g.valency(x) == 1]
    if terminal:
        raise GraphError(f"irreducibility requires no terminal vertices; found {terminal}")
    adj = edge_adjacency(g)
    components = strongly_connected_components(adj.successors)
    irreducible = len(components) == 1
    has_branch_vertex = any(g.valency(x) >= 3 for x in g.vertices)
    if irreducible != has_branch_vertex:
        raise RuntimeError(
            "internal consistency failure: strong connectivity and the "
            "valency criterion disagree"
        )
    if irreducible:
        return IrreducibilityReport(True, None)
    witness = tuple(
        tuple(adj.edge_ids[i] for i in component) for component in components
    )
    return IrreducibilityReport(False, witness)


# -- matrix assembly and power iteration ------------------------------------


def _triplets(adj: EdgeAdjacency) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = [], []
    for i, row in enumerate(adj.successors):
        rows.extend([i] * len(row))
        cols.extend(row)
    return (
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.ones(len(rows)),
    )


def assemble(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    h: float,
    lengths: np.ndarray,
) -> np.ndarray | sparse.csr_matrix:
    """Weighted matrix with entry vals * exp(-h * lengths[col])."""
    weighted = vals * np.exp(-h * lengths[cols])
    if n < config.DENSE_EDGE_LIMIT:
        out = np.zeros((n, n))
        out[rows, cols] = weighted
        return out
    return sparse.csr_matrix((weighted, (rows, cols)), shape=(n, n))


def weighted_matrix(g: MetricGraph, h: float) -> WeightedEdgeMatrix:
    """The h-weighted non-backtracking matrix of g."""
    if h < 0:
        raise GraphError(f"weight exponent must be nonnegative, got {h}")
    adj = edge_adjacency(g)
    rows, cols, vals = _triplets(adj)
    lengths = np.array([float(g.length(e)) for e in adj.edge_ids])
    entries = assemble(rows, cols, vals, adj.order, float(h), lengths)
    return WeightedEdgeMatrix(adj, float(h), entries)


def perron_at(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    h: float,
    lengths: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray | sparse.csr_matrix]:
    """Perron root, max-normalized Perron vector and the assembled matrix at h.

    A dense matrix (below ``DENSE_EDGE_LIMIT`` edges) is solved by a full
    eigendecomposition: the Perron root is the eigenvalue of largest real
    part, and no iteration can stall on a periodic matrix.  A sparse matrix
    goes through ``power_iteration`` from the all-ones vector.
    """
    matrix = assemble(rows, cols, vals, n, h, lengths)
    if not isinstance(matrix, np.ndarray):
        radius, vec, _, _ = power_iteration(matrix)
        return radius, vec, matrix
    values, vectors = np.linalg.eig(matrix)
    k = int(np.argmax(values.real))
    vec = np.abs(vectors[:, k].real)
    vec /= np.max(vec)
    if float(np.min(vec)) <= 0.0:
        raise ConvergenceError("Perron vector has a nonpositive entry")
    return float(values[k].real), vec, matrix


def left_perron_vector(
    x: np.ndarray,
    h: float,
    lengths: np.ndarray,
    reversal: np.ndarray,
    edge_orders: np.ndarray | None = None,
) -> np.ndarray:
    """Left Perron vector of the h-weighted matrix from its right one.

    The reversal involution conjugates the matrix to its transpose up to
    diagonal scaling, so y_e = exp(-h l_e) x_rev(e) / |G_e| satisfies
    y^T M = rho y^T whenever M x = rho x; ``edge_orders`` gives |G_e| per
    oriented edge and defaults to 1 (a plain graph).
    """
    y = np.exp(-h * lengths) * x[reversal]
    return y if edge_orders is None else y / edge_orders


def power_iteration(
    matrix: np.ndarray | sparse.csr_matrix,
    *,
    rq_tol: float = config.POWER_RQ_TOL,
    residual_tol: float = config.POWER_RESIDUAL_TOL,
    max_iter: int = config.POWER_MAX_ITER,
) -> tuple[float, np.ndarray, int, float]:
    """Dominant eigenvalue and max-normalized eigenvector.

    Deterministic power iteration from the all-ones vector; the matrix must
    be irreducible nonnegative.  Periodic matrices make the plain iteration
    oscillate, so on detected oscillation the iteration restarts on M + I,
    whose spectral radius is shifted by exactly 1 and whose Perron vector is
    unchanged.
    """
    n = matrix.shape[0]
    x = np.ones(n)
    shift = 0.0
    lam = lam1 = math.inf
    oscillating = 0
    stalled = 0
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        y = matrix @ x
        if shift:
            y = y + x
        lam2, lam1, lam = lam1, lam, float(np.dot(x, y) / np.dot(x, x))
        peak = float(np.max(y))
        if peak <= 0.0:
            raise ConvergenceError("power iteration collapsed; matrix has a zero row")
        x = y / peak
        if math.isfinite(lam1) and abs(lam - lam1) <= rq_tol * abs(lam):
            z = matrix @ x
            if shift:
                z = z + x
            residual = float(np.max(np.abs(z - lam * x)))
            if residual <= residual_tol:
                radius = lam - shift
                if float(np.min(x)) <= 0.0:
                    raise ConvergenceError("Perron vector has a nonpositive entry")
                return radius, x, iteration, residual
            stalled += 1
        else:
            stalled = 0
        if not shift and math.isfinite(lam2):
            near_period_two = abs(lam - lam2) <= max(1e-13, 1e-10 * abs(lam))
            moving = abs(lam - lam1) > max(1e-12, 100.0 * rq_tol * abs(lam))
            oscillating = oscillating + 1 if (near_period_two and moving) else 0
            if oscillating >= 64 or stalled >= 64 or 2 * iteration >= max_iter:
                shift = 1.0
                x = np.ones(n)
                lam = lam1 = math.inf
                oscillating = 0
                stalled = 0
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )


def spectral_radius(
    m: WeightedEdgeMatrix,
    *,
    rq_tol: float = config.POWER_RQ_TOL,
    residual_tol: float = config.POWER_RESIDUAL_TOL,
    max_iter: int = config.POWER_MAX_ITER,
) -> PerronResult:
    """Perron root and positive eigenvector of a weighted edge matrix."""
    components = strongly_connected_components(m.base.successors)
    if len(components) != 1:
        raise GraphError("spectral radius requires an irreducible edge matrix")
    radius, vec, iterations, residual = power_iteration(
        m.entries, rq_tol=rq_tol, residual_tol=residual_tol, max_iter=max_iter
    )
    vector = {eid: float(v) for eid, v in zip(m.base.edge_ids, vec)}
    return PerronResult(radius, vector, iterations, residual)
