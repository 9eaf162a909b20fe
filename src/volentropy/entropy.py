"""Volume entropy: the unique h > 0 where the weighted matrix has unit
spectral radius.

The Perron root rho(h) of the h-weighted non-backtracking matrix starts
above 1 (the graph is not a cycle), and log rho(h) is decreasing and, by
Kingman's theorem (Kingman 1961), convex in h.  Newton's method on
log rho, started at the lower bound log rho(0) / l_max, therefore rises
monotonically to the root.  Its derivative needs the left Perron vector,
which the reversal involution gives from the right one without a second
eigensolve.  Each step aims a third of the root tolerance short of the
root, so no iterate lands within rounding of it; a safeguard bisects back
inside the bracket if rounding pushes an iterate past the root anyway, and
a final probe the same distance past the root closes a sign bracket
narrower than the root tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import config, spectral
from .errors import ConvergenceError, GraphError
from .graph import MetricGraph, validate_entropy_hypotheses
from .spectral import edge_adjacency, is_irreducible


@dataclass(frozen=True)
class EntropySolution:
    """Entropy value with the fixed-point vector and solver diagnostics.

    ``vector`` is the Perron vector at the solved h, max-normalized;
    ``bracket`` is the final sign bracket (radius above 1 at its left end,
    below 1 at its right), ``residual`` the max-norm defect of the
    fixed-point system, and ``iterations`` the number of radius evaluations
    (Perron solves) the root finder made.
    """

    h: float
    vector: dict[str, float]
    bracket: tuple[float, float]
    residual: float
    iterations: int


@dataclass(frozen=True)
class UnitRadiusSolution:
    h: float
    vector: np.ndarray
    bracket: tuple[float, float]
    residual: float
    evaluations: int


def solve_unit_radius(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    lengths: np.ndarray,
    *,
    reversal: np.ndarray,
    edge_orders: np.ndarray | None = None,
    root_tol: float = config.ROOT_TOL,
    residual_tol: float = config.RESIDUAL_TOL,
) -> UnitRadiusSolution:
    """Solve radius(h) = 1 for a weighted nonnegative edge matrix.

    The matrix at weight h has entry vals * exp(-h * lengths[col]); the
    caller guarantees irreducibility.  ``reversal`` maps each edge index to
    the index of its reversal and ``edge_orders`` gives each edge's group
    order (1 when omitted); together they yield the left Perron vector.
    """
    radius0, _, _ = spectral.perron_at(rows, cols, vals, n, 0.0, lengths)
    evaluations = 1
    if not radius0 > 1.0:
        raise GraphError(
            f"spectral radius at h=0 is {radius0:.6g}; it must exceed 1 for the "
            "entropy to be positive"
        )
    # rho(0) exp(-h l_max) <= rho(h) <= rho(0) exp(-h l_min) brackets the root.
    lo, hi = 0.0, math.log(radius0) / float(np.min(lengths))
    hi_probed = False
    margin = root_tol / 3.0
    h = math.log(radius0) / float(np.max(lengths))
    while True:
        if evaluations >= config.ROOT_MAX_EVALUATIONS:
            raise ConvergenceError(
                f"entropy root not bracketed to {root_tol:.1e} in {evaluations} "
                f"evaluations (bracket {lo!r}, {hi!r})"
            )
        radius, x, _ = spectral.perron_at(rows, cols, vals, n, h, lengths)
        evaluations += 1
        if radius > 1.0:
            lo = h
        else:
            hi, hi_probed = h, True
        if hi_probed and hi - lo < root_tol:
            break
        y = spectral.left_perron_vector(x, h, lengths, reversal, edge_orders)
        step = math.log(radius) * float(y @ x) / float(y @ (lengths * x))
        if radius > 1.0 and step + margin < root_tol:
            # Converged: a probe just past the root closes the bracket.
            h = h + step + margin
        elif lo < h + step - margin < hi:
            h = h + step - margin
        else:
            h = 0.5 * (lo + hi)
    h = 0.5 * (lo + hi)
    _, vec, matrix = spectral.perron_at(rows, cols, vals, n, h, lengths)
    evaluations += 1
    residual = float(np.max(np.abs(vec - matrix @ vec)))
    if residual > residual_tol:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    return UnitRadiusSolution(h, vec, (lo, hi), residual, evaluations)


def volume_entropy(
    g: MetricGraph,
    *,
    root_tol: float = config.ROOT_TOL,
    residual_tol: float = config.RESIDUAL_TOL,
) -> EntropySolution:
    """Volume entropy of a metric graph, with its fixed-point vector."""
    report = validate_entropy_hypotheses(g)
    if not report.ok:
        raise GraphError(f"entropy hypotheses violated: {'; '.join(report.failures())}")
    if not is_irreducible(g):
        raise GraphError("edge adjacency matrix is reducible")
    adj = edge_adjacency(g)
    rows, cols, vals = spectral._triplets(adj)
    lengths = np.array([float(g.length(e)) for e in adj.edge_ids])
    reversal = np.array([g.edge_index[e.reversal] for e in g.edges])
    solution = solve_unit_radius(
        rows, cols, vals, adj.order, lengths, reversal=reversal,
        root_tol=root_tol, residual_tol=residual_tol,
    )
    vector = {eid: float(v) for eid, v in zip(adj.edge_ids, solution.vector)}
    return EntropySolution(
        solution.h, vector, solution.bracket, solution.residual, solution.evaluations
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


def entropy_volume_product(g: MetricGraph, **kwargs) -> float:
    """h_vol times volume; invariant under rescaling the metric."""
    from .graph import volume

    return volume_entropy(g, **kwargs).h * float(volume(g))
