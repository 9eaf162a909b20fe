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
from .graph import MetricGraph, Topology, float_order


@dataclass(frozen=True)
class EdgeSystem:
    """What the solvers need from a graph, read from its topology.

    Oriented edges are indexed in sorted id order.  ``rows``, ``cols`` and
    ``vals`` are the continuation multiplicities as row-major triplets;
    ``lengths``, ``reversal`` and ``edge_orders`` give per edge its float
    length, the index of its reversal and its group order |G_e|;
    ``irreducible`` says whether the triplets' support is strongly
    connected, found by reachability from edge 0 and its reversal.

    Only ``lengths`` depends on the metric.  ``edge_system`` keeps one
    system per topology and group orders in the topology's
    ``solver_memo``, with read-only arrays, and hands out copies that
    differ from it only in ``lengths``.  They share ``at_zero``, a slot
    where the entropy solver keeps the Perron root and vector at h = 0,
    which depend on the triplets alone; ``base``, the unoriented edge of
    each oriented edge, through which ``edge_system`` spreads the lengths;
    and ``layout``, the triplets grouped for the gather product (see
    ``_row_groups``), which ``perron_at`` and ``weighted_matrix`` pass to
    ``assemble``.
    A system built by hand gets an empty slot of its own and needs no
    ``base`` or ``layout``.
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
    base: np.ndarray | None = field(default=None, repr=False, compare=False)
    layout: tuple | None = field(default=None, repr=False, compare=False)

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
class GatherMatrix:
    """The sparse weighted matrix: entry vals * weights[col], with the
    triplets grouped by ``_row_groups``; ``@`` multiplies a vector.

    A product forms z = weights * x once, gathers z over each group's block
    of columns, scales it by the block's multiplicities (unless they are all
    1) and sums the block over its first axis, that is, over each row's
    entries in triplet order, one after the other, as ``np.bincount`` over
    the triplets would.  A group that holds every row needs no scatter.
    """

    weights: np.ndarray
    layout: tuple
    shape: tuple[int, int]
    nnz: int

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        z = self.weights * x
        out = np.empty(self.shape[0])
        for rows, cols, vals in self.layout:
            block = z[cols] if vals is None else vals * z[cols]
            if rows is None:
                return block.sum(axis=0)
            out[rows] = block.sum(axis=0)
        return out


def _row_groups(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> tuple:
    """The triplets of an n-row matrix grouped by entries per row, for
    ``GatherMatrix``.

    One group (rows, cols, vals) per distinct count c, rows with no entries
    included: ``rows`` lists the rows with c entries, ascending, and
    ``cols`` and ``vals`` are (c, len(rows)) blocks whose column k holds the
    columns and multiplicities of row rows[k] in triplet order.  ``vals`` is
    None where every multiplicity is 1, and ``rows`` is None when the group
    holds every row, as for a regular graph.  The arrays are read-only.
    """
    # Stable, so each row keeps its entries in triplet order.
    order = rows.argsort(kind="stable")
    cols, vals = cols[order], vals[order]
    counts = np.bincount(rows, minlength=n)
    starts = counts.cumsum() - counts
    groups = []
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        members = np.flatnonzero(counts == c)
        at = starts[members] + np.arange(c)[:, None]
        group = (
            None if len(members) == n else members,
            cols[at],
            None if (vals[at] == 1.0).all() else vals[at],
        )
        for part in group:
            if part is not None:
                part.setflags(write=False)
        groups.append(group)
    return tuple(groups)


@dataclass(frozen=True)
class WeightedEdgeMatrix:
    """The h-weighted matrix: base entries times exp(-h * length(column))."""

    base: EdgeSystem
    h: float
    entries: np.ndarray | GatherMatrix


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
    so the first call builds the whole system and keeps it in the
    topology's ``solver_memo``, keyed by the orders listed in vertex and
    unoriented edge order (None for a plain graph); every graph that
    ``with_lengths`` makes from g shares it.  Each call converts each
    unoriented length once, spreads it to both orientations through the
    memo's ``base`` and returns a copy of the memo's system with these
    lengths.  Building a plain graph's system checks it against the
    valency criterion (see ``_build``) and raises RuntimeError if they
    disagree.
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
    # numerator / denominator is float(Fraction), correctly rounded.
    lengths = np.array([
        length if isinstance(length, float) else length.numerator / length.denominator
        for length in g.base_lengths
    ])
    memo = t.solver_memo.get(key)
    if memo is None:
        memo = t.solver_memo[key] = _build(t, key, lengths)
    # Positional: dataclasses.replace costs about half as much again.
    return EdgeSystem(
        memo.edge_ids, memo.rows, memo.cols, memo.vals, lengths[memo.base], memo.reversal,
        memo.edge_orders, memo.irreducible, memo.at_zero, memo.base, memo.layout,
    )


def _build(
    t: Topology,
    orders: tuple[tuple[int, ...], tuple[int, ...]] | None,
    lengths: np.ndarray,
) -> EdgeSystem:
    """The edge system of a topology with group orders given per vertex and
    per unoriented edge, and with the given unoriented lengths; its arrays
    are read-only and it holds no reference to the topology.

    The triplets come from the topology's index arrays, in row-major order
    with each row's columns ascending.  A lift of vertex x has
    |G_x| // |G_f| lifts of each edge f leaving x, divided in Python ints,
    since group orders may exceed any machine integer, and kept as floats
    like the edge orders; either beyond the float range raises GraphError.
    ``_row_groups`` groups the triplets once, here, as the system's
    ``layout``.  For a plain graph, strong connectivity must
    agree with the valency criterion: a connected graph's system is
    irreducible exactly when no vertex has valency 1 and some vertex has
    valency at least 3.
    """
    origin, terminus, reversal, base = (
        np.array(part, dtype=np.intp) for part in (t.origin, t.terminus, t.reversal, t.base)
    )
    n = len(t.edge_ids)
    if orders is None:
        edge_orders = lifts = np.ones(n)
    else:
        vertex_orders, unoriented_orders = orders
        edge_orders = np.array([
            float_order(order, f"edge {eid!r}: group order")
            for order, eid in zip(unoriented_orders, t.unoriented_ids)
        ])[base]
        lifts = np.array([
            float_order(
                vertex_orders[x] // unoriented_orders[b],
                f"vertex {t.vertices[x]!r}: index of the group of edge {t.unoriented_ids[b]!r}",
            )
            for x, b in zip(t.origin, t.base)
        ])
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
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    irreducible = _strongly_connected(rows, cols, reversal)
    if orders is None and irreducible != (1 not in t.valency and max(t.valency) >= 3):
        raise RuntimeError(
            "internal consistency failure: strong connectivity and the "
            "valency criterion disagree"
        )
    lengths = lengths[base]
    layout = _row_groups(rows, cols, vals, n)
    for part in (rows, cols, vals, lengths, reversal, edge_orders, base):
        part.setflags(write=False)
    return EdgeSystem(
        t.edge_ids, rows, cols, vals, lengths, reversal, edge_orders, irreducible, {}, base,
        layout,
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

    A graph with terminal vertices raises GraphError.  Otherwise the flag
    is the edge system's, which ``edge_system`` has checked against the
    valency criterion (irreducible iff some vertex has valency at least
    three).  A reducible system's witness is its strongly connected
    components.
    """
    terminal = [x for x in g.vertices if g.valency(x) == 1]
    if terminal:
        raise GraphError(f"irreducibility requires no terminal vertices; found {terminal}")
    system = edge_system(g)
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
    layout: tuple | None = None,
) -> np.ndarray | GatherMatrix:
    """Weighted matrix with entry vals * exp(-h * lengths[col]).

    One weight exp(-h * length) per oriented edge.  Below
    ``DENSE_EDGE_LIMIT`` edges the matrix is a dense array; from it up, a
    ``GatherMatrix`` on ``layout``, the triplets as ``_row_groups`` groups
    them (an ``EdgeSystem`` from ``edge_system`` carries it), or grouped
    here when it is None.
    """
    weights = np.exp(-h * lengths)
    if n < config.DENSE_EDGE_LIMIT:
        out = np.zeros((n, n))
        out[rows, cols] = vals * weights[cols]
        return out
    if layout is None:
        layout = _row_groups(rows, cols, vals, n)
    return GatherMatrix(weights, layout, (n, n), len(vals))


def weighted_matrix(g: MetricGraph, h: float) -> WeightedEdgeMatrix:
    """The h-weighted non-backtracking matrix of g."""
    if h < 0:
        raise GraphError(f"weight exponent must be nonnegative, got {h}")
    system = edge_system(g)
    entries = assemble(
        system.rows, system.cols, system.vals, system.order, float(h), system.lengths,
        system.layout,
    )
    return WeightedEdgeMatrix(system, float(h), entries)


def perron_at(
    system: EdgeSystem,
    h: float,
    start: np.ndarray | None = None,
    target: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray | GatherMatrix]:
    """Perron root, max-normalized Perron vector and the system's matrix at h.

    Both paths start from ``start``, a positive vector such as the Perron
    vector at a nearby h or an extrapolation of Perron vectors to h, or
    from the all-ones vector.  The matrix comes from ``assemble`` with the
    system's ``layout``.  A ``GatherMatrix``
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
    matrix = assemble(
        system.rows, system.cols, system.vals, n, h, system.lengths, system.layout
    )
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
    matrix: np.ndarray | GatherMatrix,
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
