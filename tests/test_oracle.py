"""Exact path counting and growth-rate estimation."""

import math
from fractions import Fraction

import pytest

from volentropy import (
    count_paths,
    count_paths_between,
    estimate_entropy,
    volume_entropy,
)
from volentropy.errors import GraphError

from builders import cycle, dumbbell, graph_doc, theta
from volentropy import build_graph

LOG2 = math.log(2)


def test_theta_small_radii():
    g = theta()
    assert count_paths(g, "a", 1).count == 3
    assert count_paths(g, "a", 2).count == 6
    assert count_paths(g, "a", Fraction(3, 2)).count == 6


@pytest.mark.parametrize("n", range(1, 21))
def test_theta_closed_form(n):
    assert count_paths(theta(), "a", n).count == 3 * 2 ** (n - 1)


def test_breakdown_sums_to_total():
    g = theta((1, 1, 2))
    for r in (1, 2, 3, Fraction(7, 2)):
        result = count_paths(g, "a", r, with_breakdown=True)
        assert sum(result.by_terminal_edge.values()) == result.count


def test_count_paths_between_examples():
    g = theta()
    assert count_paths_between(g, "e1+", "e1+", 1) == 1
    assert count_paths_between(g, "e1+", "e2-", 2) == 1
    assert count_paths_between(g, "e1+", "e1-", 2) == 0


def test_aggregation_identity():
    g = dumbbell((1, 2, 1))
    for r in range(1, 11):
        total = count_paths(g, "a", r).count
        decomposed = sum(
            count_paths_between(g, e, f.id, r)
            for e in g.out_edges("a")
            for f in g.edges
        )
        assert decomposed == total


def test_monotone_on_grid():
    g = theta()
    counts = [count_paths(g, "a", n).count for n in range(1, 11)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_cycle_rejected():
    with pytest.raises(GraphError, match="hypotheses"):
        count_paths(cycle(4), "v0", 3)


def test_irrational_lengths_rejected():
    g = theta().with_lengths({"e1": 1.0, "e2": 1.0, "e3": 1.0})
    with pytest.raises(GraphError, match="rational"):
        count_paths(g, "a", 2)
    with pytest.raises(GraphError, match="rational"):
        count_paths(theta(), "a", 1.5)


def test_cell_cap():
    # Radius 10**7 on the grid of 1/997 needs about 6e10 cells.
    g = theta((Fraction(1, 997), 1, 1))
    with pytest.raises(GraphError, match="cells"):
        count_paths(g, "a", 10**7)


def test_estimate_theta_within_two_percent():
    est = estimate_entropy(theta(), "a", 20)
    assert est.h_est == pytest.approx(LOG2, rel=0.02)
    assert est.band > 0


def test_estimate_dumbbell_within_two_percent():
    g = dumbbell()
    est = estimate_entropy(g, "a", 20)
    assert est.h_est == pytest.approx(volume_entropy(g).h, rel=0.02)


def test_estimate_matches_solver():
    for g in (theta((1, 1, 2)), dumbbell()):
        h = volume_entropy(g).h
        est = estimate_entropy(g, "a", 40)
        assert est.h_est == pytest.approx(h, rel=0.02)


def test_estimate_requires_enough_paths():
    with pytest.raises(GraphError, match="1000|paths"):
        estimate_entropy(theta(), "a", 5)


def test_counts_are_exact_integers():
    result = count_paths(theta(), "a", 60)
    assert result.count == 3 * 2**59


def test_independent_of_base_point_growth():
    # growth rate is base-point independent even when counts differ
    g = dumbbell((1, 2, 1))
    ha = estimate_entropy(g, "a", 40).h_est
    hb = estimate_entropy(g, "b", 40).h_est
    assert ha == pytest.approx(hb, rel=0.02)


def test_solver_within_reported_band():
    for g in (theta(), theta((1, 1, 2)), dumbbell()):
        h = volume_entropy(g).h
        est = estimate_entropy(g, "a", 40)
        assert abs(h - est.h_est) <= est.band


def test_sandwich_bound():
    # counts sit between exp((h - eps) r) and exp((h + eps) r) past the
    # start of the fit window, with eps derived from the fit itself
    for g in (theta(), theta((1, 1, 2))):
        h = volume_entropy(g).h
        est = estimate_entropy(g, "a", 40)
        xs = [float(r) for r in est.grid]
        ys = [math.log(c) for c in est.counts]
        intercept = (sum(ys) - est.h_est * sum(xs)) / len(xs)
        r0 = xs[0]
        eps = abs(intercept) / r0 + est.band + 0.02
        for r, y in zip(xs, ys):
            assert (h - eps) * r <= y <= (h + eps) * r


def test_oracle_module_is_independent_of_the_solver():
    # build contract: the oracle shares no code with the spectral or entropy
    # machinery it cross-checks (only the shared graph data model)
    import ast
    import pathlib

    import volentropy.oracle as oracle_module

    tree = ast.parse(pathlib.Path(oracle_module.__file__).read_text())
    forbidden = {"spectral", "entropy", "numpy", "scipy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = {module} | {alias.name for alias in node.names}
            names = {n.split(".")[0] for n in names if n}
        else:
            continue
        assert not (names & forbidden), f"oracle imports {names & forbidden}"
