"""Closed-form minimization, vertex splitting, and the sampled minimality
property."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from volentropy import (
    biregular_minimum,
    min_entropy_free_rank,
    minimal_entropy,
    minimal_metric,
    minimize_with_reduction,
    sample_normalized_metrics,
    split_vertex,
    volume,
    volume_entropy,
)
from volentropy import config, optimizer, spectral, verify_fixed_point
from volentropy.graph import base_id
from volentropy.errors import ConvergenceError, GraphError

from builders import (
    complete, complete_bipartite, cycle, dumbbell, subdivide, subdivided_theta, theta,
)

LOG2 = math.log(2)
LOG3 = math.log(3)
LOG6 = math.log(6)


def test_minimal_entropy_golden():
    assert minimal_entropy(theta()) == pytest.approx(3 * LOG2, rel=1e-12)
    assert minimal_entropy(complete(4)) == pytest.approx(6 * LOG2, rel=1e-12)
    assert minimal_entropy(complete_bipartite(3, 4)) == pytest.approx(6 * LOG6, rel=1e-12)
    assert minimal_entropy(dumbbell()) == pytest.approx(3 * LOG2, rel=1e-12)


def test_minimal_entropy_ignores_lengths():
    assert minimal_entropy(theta((1, 5, Fraction(1, 7)))) == pytest.approx(3 * LOG2)


def test_minimal_entropy_requires_branching():
    with pytest.raises(GraphError, match="valency"):
        minimal_entropy(subdivided_theta())


def test_minimal_metric_golden_lengths():
    for g, expected in (
        (theta(), Fraction(1, 3)),
        (complete(4), Fraction(1, 6)),
        (complete_bipartite(3, 4), Fraction(1, 12)),
        (dumbbell(), Fraction(1, 3)),
    ):
        result = minimal_metric(g)
        for value in result.lengths.values():
            assert value == pytest.approx(float(expected), rel=1e-12)
        assert sum(result.lengths.values()) == pytest.approx(1.0, abs=1e-12)


def test_minimal_metric_characterization():
    # exp(h * length(e)) equals the geometric mean of the branching numbers
    g = complete_bipartite(3, 4)
    result = minimal_metric(g)
    for eid, u, v, _ in g.unoriented:
        assert math.exp(result.h_min * result.lengths[eid]) == pytest.approx(
            math.sqrt(g.k(u) * g.k(v)), rel=1e-9
        )


def test_minimal_metric_perron_data():
    g = complete_bipartite(3, 4)
    result = minimal_metric(g)
    assert max(result.perron.values()) == pytest.approx(1.0)
    # y values depend only on the initial vertex and match z
    metered = g.with_lengths(result.lengths)
    for e in g.edges:
        y = math.exp(-result.h_min * metered.length(e.id)) * result.perron[e.id]
        assert y == pytest.approx(result.z[e.origin], rel=1e-9)
    # the vertex relation exp(h l(e)) z_i = k_t z_t
    for e in g.edges:
        lhs = math.exp(result.h_min * result.lengths[eid_base(e.id)]) * result.z[e.origin]
        assert lhs == pytest.approx(g.k(e.terminus) * result.z[e.terminus], rel=1e-9)


def eid_base(oriented):
    return oriented[:-1]


def test_solver_agrees_with_closed_form():
    for g in (theta(), complete(4), complete_bipartite(3, 4), dumbbell()):
        result = minimal_metric(g)
        solved = volume_entropy(g.with_lengths(result.lengths))
        assert solved.h == pytest.approx(result.h_min, rel=1e-9)


def test_minimize_with_reduction_subdivided_theta():
    g = subdivided_theta()
    result = minimize_with_reduction(g)
    assert result.h_min == pytest.approx(3 * LOG2, rel=1e-9)
    assert result.canonical == "chain-totals-only"
    assert result.chain_totals["e3a"] == pytest.approx(1 / 3, rel=1e-9)
    assert result.lengths["e3a"] == pytest.approx(1 / 6, rel=1e-9)
    assert result.lengths["e3b"] == pytest.approx(1 / 6, rel=1e-9)
    assert result.lengths["e1"] == pytest.approx(1 / 3, rel=1e-9)
    assert sum(result.lengths.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(result.z) == {"a", "b"}
    solved = volume_entropy(g.with_lengths(result.lengths))
    assert solved.h == pytest.approx(result.h_min, rel=1e-9)


CHAIN_GRAPHS = {
    "theta-2": subdivided_theta,
    "theta-3:5:7": lambda: subdivide(theta(), {"e1": 3, "e2": 5, "e3": 7}),
    "dumbbell-4:3:2": lambda: subdivide(dumbbell(), {"l1": 4, "br": 3, "l2": 2}),
    "k4-2:6:3": lambda: subdivide(complete(4), {"e1": 2, "e4": 6, "e6": 3}),
    # 118 oriented edges: the reference solve takes the iterative path.
    "k5-40:11": lambda: subdivide(complete(5), {"e2": 40, "e7": 11}),
}


@pytest.mark.parametrize("name", sorted(CHAIN_GRAPHS))
def test_pulled_back_perron_against_numeric_solve(name):
    # The exact pull-back against a Perron solve on the unreduced graph at
    # the reduced h_min, the check it replaces.
    g = CHAIN_GRAPHS[name]()
    result = minimize_with_reduction(g)
    metered = g.with_lengths(result.lengths)
    system = spectral.edge_system(metered)
    _, vec, _ = spectral.perron_at(system, result.h_min)
    # Power iteration stops at a Rayleigh-quotient tolerance, the dense
    # inverse iteration at a Collatz-Wielandt gap.
    rel = 1e-12 if system.order < config.DENSE_EDGE_LIMIT else 1e-10
    assert set(result.perron) == set(system.edge_ids)
    for eid, v in zip(system.edge_ids, vec.tolist()):
        assert result.perron[eid] == pytest.approx(v, rel=rel)
    assert verify_fixed_point(metered, result.h_min, result.perron).max_residual <= 1e-12
    assert set(result.z) == {x for x in g.vertices if g.valency(x) >= 3}
    for x, z in result.z.items():
        for f in g.out_edges(x):
            weight = math.exp(-result.h_min * result.lengths[base_id(f)])
            assert z == pytest.approx(weight * result.perron[f], rel=1e-12)


def test_minimize_with_reduction_trivalent_passthrough():
    g = theta()
    result = minimize_with_reduction(g)
    assert result.canonical == "exact"
    assert result.chains is None
    assert result.lengths == minimal_metric(g).lengths


def test_minimal_metric_failed_check_raises(monkeypatch):
    # No real graph fails the closed-form fixed-point check; force it.
    monkeypatch.setattr(config, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceError, match="closed-form minimizer"):
        minimal_metric(theta())


def test_minimize_with_reduction_failed_check_raises(monkeypatch):
    # No real graph fails the pulled-back fixed-point check; force it by
    # handing the pull-back a reduced Perron vector with one entry 1 % off.
    # The reduced minimizer passes its own check before it is altered.
    solve_reduced = optimizer.minimal_metric

    def off_by_one_percent(g):
        result = solve_reduced(g)
        perron = dict(result.perron)
        perron["e3a+"] *= 1.01
        return replace(result, perron=perron)

    monkeypatch.setattr(optimizer, "minimal_metric", off_by_one_percent)
    with pytest.raises(ConvergenceError, match="pulled-back minimizer"):
        minimize_with_reduction(subdivided_theta())


def test_minimize_with_reduction_rejects_cycle():
    with pytest.raises(GraphError):
        minimize_with_reduction(cycle(4))


def test_biregular_minimum():
    h, length = biregular_minimum(2, 2, 6)
    assert h == pytest.approx(3 * LOG2) and length == Fraction(1, 3)
    h, length = biregular_minimum(2, 3, 24)
    assert h == pytest.approx(6 * LOG6) and length == Fraction(1, 12)
    # the regular closed form agrees with the vertex sum on K5
    h, length = biregular_minimum(3, 3, 20)
    assert h == pytest.approx(5 * math.log(9))
    assert h == pytest.approx(minimal_entropy(complete(5)), rel=1e-12)
    assert length == Fraction(1, 10)


def test_biregular_minimum_validation():
    with pytest.raises(GraphError):
        biregular_minimum(1, 2, 6)
    with pytest.raises(GraphError):
        biregular_minimum(2, 2, 7)
    with pytest.raises(GraphError):
        biregular_minimum(2, 3, 26)


def test_min_entropy_free_rank():
    assert min_entropy_free_rank(2) == pytest.approx(3 * LOG2)
    assert min_entropy_free_rank(3) == pytest.approx(6 * LOG2)
    assert min_entropy_free_rank(6) == pytest.approx(15 * LOG2)
    assert min_entropy_free_rank(2) == pytest.approx(minimal_entropy(theta()), rel=1e-12)
    assert min_entropy_free_rank(2) == pytest.approx(minimal_entropy(dumbbell()), rel=1e-12)
    with pytest.raises(GraphError):
        min_entropy_free_rank(1)


def test_split_vertex_decreases_minimum():
    g = complete(5)
    x = "v0"
    out = g.out_edges(x)
    split = split_vertex(g, x, (out[2:], out[:2]))
    assert minimal_entropy(split) == pytest.approx(8 * LOG3 + 3 * LOG2, rel=1e-12)
    assert minimal_entropy(split) < minimal_entropy(g)
    # rank is preserved
    def rank(graph):
        return len(graph.unoriented) - len(graph.vertices) + 1

    assert rank(split) == rank(g) == 6


def test_split_vertex_validation():
    g = theta()
    with pytest.raises(GraphError, match="valency"):
        split_vertex(g, "a", ((), g.out_edges("a")))
    k5 = complete(5)
    out = k5.out_edges("v0")
    with pytest.raises(GraphError, match="two edges"):
        split_vertex(k5, "v0", (out[1:], out[:1]))
    with pytest.raises(GraphError, match="partition"):
        split_vertex(k5, "v0", (out, out[:2]))


def test_split_vertex_loop_handling():
    from builders import build_graph, graph_doc

    g = build_graph(graph_doc(
        ["a"],
        [("p", "a", "a", 1), ("q", "a", "a", 1)],
    ))
    split = split_vertex(g, "a", (("p+", "p-"), ("q+", "q-")))
    assert len(split.vertices) == 2
    # figure-eight splits into a dumbbell: two trivalent vertices
    assert minimal_entropy(split) == pytest.approx(3 * LOG2, rel=1e-12)
    assert min_entropy_free_rank(2) == pytest.approx(minimal_entropy(split))
    # splitting one loop across the partition turns it into a plain edge
    split2 = split_vertex(g, "a", (("p+", "q+"), ("p-", "q-")))
    records = {rec[0]: rec for rec in split2.unoriented}
    assert records["p"][1] != records["p"][2]


def test_sampled_minimality_small():
    g = theta()
    h_min = minimal_entropy(g)
    opt = minimal_metric(g).lengths
    for lengths in sample_normalized_metrics(g, 25, seed=1):
        h = volume_entropy(g.with_lengths(lengths)).h
        assert h >= h_min - 1e-9
        if h <= h_min + 1e-9:
            for eid in opt:
                assert lengths[eid] == pytest.approx(opt[eid], abs=1e-6)


def test_sample_normalized_metrics_deterministic():
    a = list(sample_normalized_metrics(theta(), 3, seed=7))
    b = list(sample_normalized_metrics(theta(), 3, seed=7))
    assert a == b
    for lengths in a:
        assert sum(lengths.values()) == pytest.approx(1.0, abs=1e-12)
