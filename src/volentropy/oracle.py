"""Exact counting of non-backtracking paths by metric length.

A path e1...en counts for radius r when its first n-1 lengths sum to less
than r and its first n lengths sum to at least r.  All lengths must be
rational: they are rescaled by the least common denominator to an integer
grid, and a dynamic program over (edge, accumulated grid length) produces
exact arbitrary-precision counts.  This module deliberately shares no code
with the spectral machinery; it is the independent check on the solver.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import config
from .errors import GraphError
from .graph import MetricGraph, require_entropy_hypotheses


@dataclass(frozen=True)
class PathCount:
    """Exact number of combinatorial paths of metric length r."""

    r: Fraction
    count: int
    by_terminal_edge: Mapping[str, int] | None = None


@dataclass(frozen=True)
class EntropyEstimate:
    """Least-squares growth rate of log path counts, with an error band."""

    h_est: float
    band: float
    grid: tuple[Fraction, ...]
    counts: tuple[int, ...]


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise GraphError(f"{where} must be rational for the exact oracle, got {value!r}")


def _require_rational_graph(g: MetricGraph) -> None:
    if not g.is_rational:
        raise GraphError("the exact oracle requires rational edge lengths")
    require_entropy_hypotheses(g)


def _successors(g: MetricGraph) -> list[list[int]]:
    index = g.edge_index
    table = []
    for e in g.edges:
        table.append([index[f] for f in g.out_edges(e.terminus) if f != e.reversal])
    return table


def _count_completions(
    g: MetricGraph, start_edges: Sequence[str], radii: Sequence[Fraction]
) -> list[tuple[int, dict[str, int]]]:
    """Exact counts for several radii in one dynamic-programming pass.

    Returns, per radius, the total count and the breakdown by terminal edge.
    """
    for r in radii:
        if not r > 0:
            raise GraphError(f"radius must be positive, got {r}")
    denominator = math.lcm(
        *(length.denominator for length in g.lengths.values()),
        *(r.denominator for r in radii),
    )
    grid_lengths = [int(g.length(e.id) * denominator) for e in g.edges]
    thresholds = sorted(set(int(r * denominator) for r in radii))
    r_max = thresholds[-1]
    cells, cap = len(g.edges) * r_max, config.ORACLE_CELL_CAP
    if cells > cap:
        raise GraphError(
            f"path-count grid needs {cells} cells, above the cap {cap}; "
            f"reduce the radius or the length denominators"
        )
    threshold_index = {t: i for i, t in enumerate(thresholds)}
    totals = [0] * len(thresholds)
    by_terminal: list[dict[int, int]] = [{} for _ in thresholds]

    def complete(prefix: int, total: int, edge: int, count: int) -> None:
        lo = bisect_right(thresholds, prefix)
        hi = bisect_right(thresholds, total)
        for t in range(lo, hi):
            totals[t] += count
            bucket = by_terminal[t]
            bucket[edge] = bucket.get(edge, 0) + count

    successors = _successors(g)
    index = g.edge_index
    frontier: dict[int, dict[int, int]] = {}
    for eid in start_edges:
        e = index[eid]
        total = grid_lengths[e]
        complete(0, total, e, 1)
        if total < r_max:
            bucket = frontier.setdefault(total, {})
            bucket[e] = bucket.get(e, 0) + 1

    for s in range(1, r_max):
        states = frontier.pop(s, None)
        if not states:
            continue
        for e, count in states.items():
            for f in successors[e]:
                total = s + grid_lengths[f]
                complete(s, total, f, count)
                if total < r_max:
                    bucket = frontier.setdefault(total, {})
                    bucket[f] = bucket.get(f, 0) + count

    ids = tuple(e.id for e in g.edges)
    results = []
    for r in radii:
        t = threshold_index[int(r * denominator)]
        breakdown = {ids[e]: c for e, c in sorted(by_terminal[t].items())}
        results.append((totals[t], breakdown))
    return results


def count_paths(
    g: MetricGraph,
    x0: str,
    r,
    *,
    with_breakdown: bool = False,
) -> PathCount:
    """Exact number of combinatorial paths of length r starting at x0."""
    _require_rational_graph(g)
    radius = _as_fraction(r, "radius")
    starts = g.out_edges(x0)
    (total, breakdown), = _count_completions(g, starts, [radius])
    return PathCount(radius, total, breakdown if with_breakdown else None)


def count_paths_between(g: MetricGraph, e: str, f: str, r) -> int:
    """Exact number of paths of length r with initial edge e and terminal
    edge f."""
    _require_rational_graph(g)
    radius = _as_fraction(r, "radius")
    g.edge(e)
    g.edge(f)
    (_, breakdown), = _count_completions(g, [e], [radius])
    return breakdown.get(f, 0)


def estimate_entropy(g: MetricGraph, x0: str, r_max) -> EntropyEstimate:
    """Growth-rate estimate of the path counts from x0.

    Fits log count against r over ``config.ORACLE_FIT_POINTS`` evenly
    spaced radii in [r_max/2, r_max]; the band combines the fit standard
    error with the a-priori width of the last counting shell.  The
    estimate is approximate by nature.
    """
    _require_rational_graph(g)
    radius_max = _as_fraction(r_max, "r_max")
    points = config.ORACLE_FIT_POINTS
    denominator = math.lcm(
        *(length.denominator for length in g.lengths.values()),
        radius_max.denominator,
    )
    # Evenly spaced targets in [r_max/2, r_max], snapped to the integer
    # length grid; counts are constant between grid points, and off-grid
    # sampling aliases against that step structure and biases the slope.
    r_top = radius_max * denominator
    targets = [r_top / 2 + (r_top / 2) * j / (points - 1) for j in range(points)]
    snapped = sorted({max(1, round(t)) for t in targets})
    if len(snapped) < 4:
        raise GraphError(
            f"degenerate fit: only {len(snapped)} grid points in "
            f"[{radius_max / 2}, {radius_max}]"
        )
    grid = [Fraction(s, denominator) for s in snapped]
    shell = radius_max - _as_fraction(g.l_max, "l_max")
    radii = list(grid) + ([shell] if shell > 0 else [])
    results = _count_completions(g, g.out_edges(x0), radii)
    counts = [total for total, _ in results[: len(grid)]]
    if counts[-1] < 1000:
        raise GraphError(
            f"only {counts[-1]} paths at r_max={radius_max}; "
            f"increase r_max until at least 1000"
        )
    xs = [float(r) for r in grid]
    ys = [math.log(c) for c in counts]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    intercept = y_mean - slope * x_mean
    residuals = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    variance = sum(r * r for r in residuals) / (len(xs) - 2)
    stderr = math.sqrt(variance / sxx)
    if shell > 0:
        shell_count = results[len(grid)][0]
        apriori = (math.log(counts[-1]) - math.log(shell_count)) / float(radius_max)
    else:
        apriori = math.inf
    return EntropyEstimate(slope, stderr + apriori, tuple(grid), tuple(counts))
