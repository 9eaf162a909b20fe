"""Volume entropy: the unique h > 0 where the weighted matrix has unit
spectral radius.

The Perron root rho(h) of the h-weighted non-backtracking matrix starts
above 1 (the graph is not a cycle), and log rho(h) is decreasing and, by
Kingman's theorem (Kingman 1961), convex in h.  Newton's method on
log rho, started at its tangent root from h = 0 (a lower bound, at least
log rho(0) / l_max), therefore rises monotonically to the root.  Its
derivative needs the left Perron vector, which the reversal involution
gives from the right one without a second Perron solve.  Each step aims a
third of the root tolerance short of the root, so no iterate lands within
rounding of it; a safeguard bisects back inside the bracket if rounding
pushes an iterate past the root anyway, and a final probe the same
distance past the root closes a sign bracket narrower than the root
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config, spectral
from .errors import ConvergenceError, GraphError
from .graph import (  # noqa: F401  (ResidualReport, verify_fixed_point re-exported)
    MetricGraph,
    ResidualReport,
    validate_entropy_hypotheses,
    verify_fixed_point,
    volume,
)


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


def solve_unit_radius(
    system: spectral.EdgeSystem,
    *,
    root_tol: float = config.ROOT_TOL,
    residual_tol: float = config.RESIDUAL_TOL,
) -> EntropySolution:
    """Solve radius(h) = 1 for the weighted matrix of an edge system.

    The matrix at weight h has entry vals * exp(-h * lengths[col]); the
    caller guarantees irreducibility.  The system's reversal index and edge
    orders yield the left Perron vector from the right one.  Since
    h(alpha * lengths) = h(lengths) / alpha, the root is found for lengths
    scaled to a longest edge of 1 and scaled back, so ``root_tol`` bounds
    the bracket width times the longest length at any length scale.  Each
    radius evaluation starts from the Perron vector of the one before.  The
    Newton evaluations pass target 1, so power iteration may stop once rho
    is certified to lie on one side of 1; the evaluation at h = 0, which
    sets the bracket's right end, and the final one run to full precision.
    """
    rows, cols, vals, n = system.rows, system.cols, system.vals, system.order
    scale = float(system.lengths.max())
    lengths = system.lengths / scale
    radius0, x, _ = spectral.perron_at(rows, cols, vals, n, 0.0, lengths)
    evaluations = 1
    if not radius0 > 1.0:
        raise GraphError(
            f"spectral radius at h=0 is {radius0:.6g}; it must exceed 1 for the "
            "entropy to be positive"
        )
    # rho(0) exp(-h l_max) <= rho(h) <= rho(0) exp(-h l_min) brackets the root.
    lo, hi = 0.0, math.log(radius0) / float(lengths.min())
    hi_probed = False
    margin = root_tol / 3.0
    # log rho is convex, so its tangent root at h = 0 is below the root.
    y = spectral.left_perron_vector(x, 0.0, lengths, system.reversal, system.edge_orders)
    h = math.log(radius0) * float(y @ x) / float(y @ (lengths * x))
    while True:
        if evaluations >= config.ROOT_MAX_EVALUATIONS:
            raise ConvergenceError(
                f"entropy root not bracketed to {root_tol:.1e} in {evaluations} "
                f"evaluations (bracket {lo!r}, {hi!r})"
            )
        radius, x, _ = spectral.perron_at(
            rows, cols, vals, n, h, lengths, start=x, target=1.0
        )
        evaluations += 1
        if radius > 1.0:
            lo = h
        else:
            hi, hi_probed = h, True
        if hi_probed and hi - lo < root_tol:
            break
        y = spectral.left_perron_vector(x, h, lengths, system.reversal, system.edge_orders)
        step = math.log(radius) * float(y @ x) / float(y @ (lengths * x))
        if radius > 1.0 and step + margin < root_tol:
            # Converged: a probe just past the root closes the bracket.
            h = h + step + margin
        elif lo < h + step - margin < hi:
            h = h + step - margin
        else:
            h = 0.5 * (lo + hi)
    h = 0.5 * (lo + hi)
    _, vec, matrix = spectral.perron_at(rows, cols, vals, n, h, lengths, start=x)
    evaluations += 1
    residual = float(abs(vec - matrix @ vec).max())
    if residual > residual_tol:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    vector = dict(zip(system.edge_ids, vec.tolist()))
    return EntropySolution(h / scale, vector, (lo / scale, hi / scale), residual, evaluations)


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
    system = spectral.edge_system(g)
    if not system.irreducible:
        # The hypotheses leave a branch vertex, so this is the valency criterion.
        raise RuntimeError(
            "internal consistency failure: strong connectivity and the "
            "valency criterion disagree"
        )
    return solve_unit_radius(system, root_tol=root_tol, residual_tol=residual_tol)


def entropy_volume_product(g: MetricGraph, **kwargs) -> float:
    """h_vol times volume; invariant under rescaling the metric."""
    return volume_entropy(g, **kwargs).h * float(volume(g))
