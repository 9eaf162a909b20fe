"""Volume entropy: the unique h > 0 where the weighted matrix has unit
spectral radius.

The Perron root rho(h) of the h-weighted non-backtracking matrix starts
above 1 (the graph is not a cycle), and log rho(h) is decreasing and, by
Kingman's theorem (Kingman 1961), convex in h.  Newton's method on
log rho, started at its tangent root from h = 0 (a lower bound, at least
log rho(0) / l_max), therefore rises monotonically to the root.  Its
derivative needs the left Perron vector, which the reversal involution
gives from the right one without a second Perron solve.  Each step aims a
third of the root tolerance, or two ulps of h where those are wider,
short of the root, so no iterate lands within rounding of it; a safeguard
bisects back inside the bracket if rounding pushes an iterate past the
root anyway, and a final probe the same distance past the root closes a
sign bracket narrower than the root tolerance, or one of adjacent doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import config, spectral
from .errors import ConvergenceError, GraphError
from .graph import (  # noqa: F401  (ResidualReport, verify_fixed_point re-exported)
    MetricGraph,
    ResidualReport,
    require_entropy_hypotheses,
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
    the bracket width times the longest length at any length scale.  Where
    the scaled root is so large (from 2**13 up, for the default
    ``root_tol``) that adjacent doubles near it lie more than ``root_tol``
    apart, the bracket closes to adjacent doubles instead.  Each Newton
    step aims a third of ``root_tol`` short of the root, or two ulps of h
    where those are wider (from a scaled root of 2**10 up, for the default
    ``root_tol``); a step from below whose aim does not get past the
    bracket's left end counts as converged, so the next probe lands as far
    past the root instead of bisecting the bracket.  A radius that
    evaluates to exactly 1 counts as below 1 and steps as the double just
    below 1 would.  The first Newton evaluation starts from the Perron
    vector at h = 0, and each later one, the final one included, from the
    secant extrapolation of the last two Perron vectors to its h (see
    ``_warm_start``), on either Perron path; the iterations' stopping
    rules do not depend on the start.  The Newton
    evaluations pass target 1, so either Perron path may stop once rho is
    certified to lie on one side of 1; the evaluation at h = 0, which sets
    the bracket's right end, and the final one run to full precision.  The
    evaluation at h = 0 is solved once per topology and group orders and
    reused (see ``_perron_at_zero``), and it is counted in ``iterations``
    whether it was solved or reused.
    """
    scale = float(system.lengths.max())
    system = replace(system, lengths=system.lengths / scale)
    lengths = system.lengths
    radius0, x = _perron_at_zero(system)
    evaluations = 1
    if not radius0 > 1.0:
        raise GraphError(
            f"spectral radius at h=0 is {radius0:.6g}; it must exceed 1 for the "
            "entropy to be positive"
        )
    # rho(0) exp(-h l_max) <= rho(h) <= rho(0) exp(-h l_min) brackets the root.
    lo, hi = 0.0, math.log(radius0) / float(lengths.min())
    hi_probed = False
    # log rho is convex, so its tangent root at h = 0 is below the root.
    y = spectral.left_perron_vector(system, x, 0.0)
    h = math.log(radius0) * float(y @ x) / float(y @ (lengths * x))
    # The last two evaluations' (h, Perron vector), for the warm starts.
    solved = ((0.0, x),)
    while True:
        if evaluations >= config.ROOT_MAX_EVALUATIONS:
            raise ConvergenceError(
                f"entropy root not bracketed to {root_tol:.1e} in {evaluations} "
                f"evaluations (bracket {lo!r}, {hi!r})"
            )
        radius, x, _ = spectral.perron_at(system, h, start=_warm_start(h, solved), target=1.0)
        solved = (solved[-1], (h, x))
        evaluations += 1
        if radius > 1.0:
            lo = h
        else:
            hi, hi_probed = h, True
        # No double lies strictly inside a bracket whose midpoint rounds onto
        # an end: the bracket is as narrow as floats allow.
        if hi_probed and (hi - lo < root_tol or not lo < 0.5 * (lo + hi) < hi):
            break
        y = spectral.left_perron_vector(system, x, h)
        # A radius that rounds to exactly 1 counts as below 1; it steps as the
        # double just below 1 would, or the aim would creep down by the margin
        # on a radius that reads 1 over many doubles.
        log_radius = math.log(radius) if radius != 1.0 else math.log1p(-2.0**-53)
        step = log_radius * float(y @ x) / float(y @ (lengths * x))
        # Two ulps at least, so that an aim past or short of the root does
        # not round onto it.
        margin = max(root_tol / 3.0, 2.0 * math.ulp(h))
        if radius > 1.0 and (step + margin < root_tol or not h + step - margin > lo):
            # Converged, or the aim short of the root does not get past lo:
            # a probe just past the root closes the bracket.
            h = h + step + margin
        elif lo < h + step - margin < hi:
            h = h + step - margin
        else:
            h = 0.5 * (lo + hi)
    h = 0.5 * (lo + hi)
    _, vec, matrix = spectral.perron_at(system, h, start=_warm_start(h, solved))
    evaluations += 1
    residual = float(abs(vec - matrix @ vec).max())
    if residual > residual_tol:
        raise ConvergenceError(
            f"fixed-point residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    vector = dict(zip(system.edge_ids, vec.tolist()))
    return EntropySolution(h / scale, vector, (lo / scale, hi / scale), residual, evaluations)


def _warm_start(h: float, solved):
    """Start vector for the evaluation at h, from the last two evaluations'
    (h, Perron vector) pairs, oldest first (one pair after h = 0 alone).

    The secant extrapolation x1 + t (x1 - x0), t = (h - h1) / (h1 - h0),
    of the Perron vectors x0 at h0 and x1 at h1, max-normalized; x1 itself
    if only one pair is known or the extrapolation has an entry that is not
    positive.  Consecutive evaluations are at distinct h.
    """
    h1, x1 = solved[-1]
    if len(solved) == 1:
        return x1
    h0, x0 = solved[0]
    guess = x1 + (h - h1) / (h1 - h0) * (x1 - x0)
    if not float(guess.min()) > 0.0:
        return x1
    return guess / float(guess.max())


def _perron_at_zero(system: spectral.EdgeSystem):
    """Perron root and vector at h = 0, solved on the first call for the
    system's ``at_zero`` slot and read from it after.

    At h = 0 every weight exp(-h * length) is exactly 1, so the pair
    depends on the triplets alone, and every system that ``edge_system``
    builds on one topology and group orders shares the slot.  The pair is
    kept per Perron path, dense or iterative, since the two round apart.
    The vector is read-only, as the Newton evaluations start from it.
    """
    dense = system.order < config.DENSE_EDGE_LIMIT
    if dense not in system.at_zero:
        radius0, x, _ = spectral.perron_at(system, 0.0)
        x.setflags(write=False)
        system.at_zero[dense] = radius0, x
    return system.at_zero[dense]


def volume_entropy(
    g: MetricGraph,
    *,
    root_tol: float = config.ROOT_TOL,
    residual_tol: float = config.RESIDUAL_TOL,
) -> EntropySolution:
    """Volume entropy of a metric graph, with its fixed-point vector.

    The hypotheses leave a vertex of valency at least three and none of
    valency one, so by the valency criterion, which ``edge_system`` checks
    when it builds the system, the system is irreducible.
    """
    require_entropy_hypotheses(g)
    return solve_unit_radius(
        spectral.edge_system(g), root_tol=root_tol, residual_tol=residual_tol
    )


def entropy_volume_product(g: MetricGraph, **kwargs) -> float:
    """h_vol times volume; invariant under rescaling the metric."""
    return volume_entropy(g, **kwargs).h * float(volume(g))
