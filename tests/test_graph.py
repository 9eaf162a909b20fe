"""Metric graph construction, hypotheses, volume, scaling, reduction."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volentropy import (
    MetricGraph,
    build_graph,
    normalize,
    scale_metric,
    series_reduce,
    validate_entropy_hypotheses,
    volume,
)
from volentropy.errors import GraphError
from volentropy.graph import reversal_id

from builders import (
    complete,
    cycle,
    dumbbell,
    graph_doc,
    path_graph,
    single_loop,
    subdivided_theta,
    theta,
)


def test_theta_construction():
    g = theta()
    assert len(g.edges) == 6
    assert g.valency("a") == 3 and g.valency("b") == 3
    assert g.k("a") == 2
    assert g.unoriented_ids == ("e1", "e2", "e3")


def test_loop_counts_twice():
    g = single_loop()
    assert len(g.edges) == 2
    assert g.valency("a") == 2


def test_nonpositive_length_rejected():
    with pytest.raises(GraphError, match="non-positive length"):
        build_graph(graph_doc(["a", "b"], [("e1", "a", "b", 0)]))


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphError, match="dangling endpoint"):
        MetricGraph.from_unoriented(["a"], [("e1", "a", "b", Fraction(1))])


def test_disconnected_reports_components():
    with pytest.raises(GraphError, match="components"):
        MetricGraph.from_unoriented(
            ["a", "b", "c", "d"],
            [("e1", "a", "b", Fraction(1)), ("e2", "c", "d", Fraction(1)),
             ("e3", "a", "b", Fraction(1)), ("e4", "c", "d", Fraction(1))],
        )


def test_duplicate_edge_id_rejected():
    with pytest.raises(GraphError, match="duplicate edge id"):
        MetricGraph.from_unoriented(
            ["a", "b"], [("e1", "a", "b", Fraction(1)), ("e1", "a", "b", Fraction(1))]
        )


def test_reversal_involution_on_theta():
    g = theta()
    for e in g.edges:
        assert reversal_id(e.id) == e.reversal
        assert g.edge(e.reversal).reversal == e.id
        assert e.reversal != e.id
        assert g.edge(e.reversal).origin == e.terminus
        assert g.edge(e.reversal).terminus == e.origin
        assert g.length(e.id) == g.length(e.reversal)


def test_hypotheses_theta_pass():
    assert validate_entropy_hypotheses(theta()).ok


def test_hypotheses_cycle_fails_with_witness():
    report = validate_entropy_hypotheses(cycle(4))
    assert not report.ok
    assert not report.not_single_cycle
    assert report.cycle_witness == "graph is a cycle"
    assert report.no_terminal_vertex


def test_hypotheses_path_fails_terminal():
    report = validate_entropy_hypotheses(path_graph())
    assert not report.ok
    assert report.terminal_vertices == ("a", "b")
    assert report.not_single_cycle


def test_volume_examples():
    assert volume(theta()) == 3
    assert volume(theta((Fraction(1, 3),) * 3)) == 1
    assert volume(complete(4, Fraction(1, 6))) == 1


def test_normalize():
    g = normalize(theta())
    assert volume(g) == 1
    assert set(l for _, _, _, l in g.unoriented) == {Fraction(1, 3)}
    assert normalize(g).lengths == g.lengths
    d = normalize(dumbbell((2, 2, 2)))
    assert set(l for _, _, _, l in d.unoriented) == {Fraction(1, 3)}


def test_scale_metric():
    g = scale_metric(theta(), 2)
    assert set(l for _, _, _, l in g.unoriented) == {Fraction(2)}
    assert scale_metric(theta(), 1).lengths == theta().lengths
    with pytest.raises(GraphError):
        scale_metric(theta(), 0)
    with pytest.raises(GraphError):
        scale_metric(theta(), Fraction(-1, 2))
    with pytest.raises(GraphError, match="^edge 'e1': non-finite length inf$"):
        scale_metric(theta(), float("inf"))


def test_series_reduce_subdivided_theta():
    g = subdivided_theta()
    reduced, chains = series_reduce(g)
    assert set(reduced.vertices) == {"a", "b"}
    assert all(reduced.valency(x) == 3 for x in reduced.vertices)
    assert volume(reduced) == volume(g)
    assert chains["e3a"] == ("e3a+", "e3b+")
    assert reduced.length("e3a+") == 1


def test_series_reduce_identity_on_theta():
    g = theta()
    reduced, chains = series_reduce(g)
    assert reduced.unoriented == g.unoriented
    assert all(chain == (cid + "+",) for cid, chain in chains.items())


def test_series_reduce_long_chain():
    # dumbbell with the bridge subdivided three times
    edges = [
        ("l1", "a", "a", 1),
        ("b1", "a", "m1", Fraction(1, 4)),
        ("b2", "m1", "m2", Fraction(1, 4)),
        ("b3", "m2", "m3", Fraction(1, 4)),
        ("b4", "m3", "b", Fraction(1, 4)),
        ("l2", "b", "b", 1),
    ]
    g = build_graph(graph_doc(["a", "b", "m1", "m2", "m3"], edges))
    reduced, chains = series_reduce(g)
    assert set(reduced.vertices) == {"a", "b"}
    assert reduced.length("b1+") == 1
    assert chains["b1"] == ("b1+", "b2+", "b3+", "b4+")


def test_series_reduce_chain_closing_into_loop():
    # triangle plus a parallel edge: the bivalent corner collapses and the
    # result is a theta, not a loop
    edges = [
        ("e1", "a", "b", 1),
        ("e2", "b", "c", 1),
        ("e3", "c", "a", 1),
        ("e4", "a", "b", 1),
    ]
    g = build_graph(graph_doc(["a", "b", "c"], edges))
    reduced, _ = series_reduce(g)
    assert set(reduced.vertices) == {"a", "b"}
    loops = [rec for rec in reduced.unoriented if rec[1] == rec[2]]
    assert not loops
    # a subdivided loop closes back into a loop at the branch vertex
    g2 = build_graph(graph_doc(
        ["a", "m"],
        [("p1", "a", "a", 1), ("p2", "a", "a", 1), ("q1", "a", "m", 1), ("q2", "m", "a", 1)],
    ))
    reduced2, chains2 = series_reduce(g2)
    assert set(reduced2.vertices) == {"a"}
    assert any(rec[1] == rec[2] == "a" and rec[3] == 2 for rec in reduced2.unoriented)


def test_series_reduce_rejects_cycle():
    with pytest.raises(GraphError, match="cycle"):
        series_reduce(cycle(4))


def test_series_reduce_rejects_terminal():
    with pytest.raises(GraphError, match="terminal"):
        series_reduce(path_graph())


# -- randomized invariants ---------------------------------------------------

positive_fractions = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20))


@st.composite
def metric_graphs(draw):
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(1, 6))
    edges = []
    for idx in range(m):
        u = vertices[draw(st.integers(0, n - 1))]
        v = vertices[draw(st.integers(0, n - 1))]
        edges.append((f"e{idx}", u, v, draw(positive_fractions)))
    try:
        return MetricGraph.from_unoriented(vertices, edges)
    except GraphError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(metric_graphs())
def test_involution_and_length_symmetry(g):
    for e in g.edges:
        assert g.edge(e.reversal).reversal == e.id
        assert e.reversal != e.id
        assert g.length(e.id) == g.length(e.reversal)


@settings(max_examples=80, deadline=None)
@given(metric_graphs(), positive_fractions)
def test_volume_scaling_exact(g, alpha):
    assert volume(scale_metric(g, alpha)) == alpha * volume(g)


@settings(max_examples=80, deadline=None)
@given(metric_graphs())
def test_normalize_exact_and_idempotent(g):
    n1 = normalize(g)
    assert volume(n1) == 1
    assert normalize(n1).lengths == n1.lengths


@settings(max_examples=50, deadline=None)
@given(metric_graphs())
def test_series_reduce_preserves_volume(g):
    report = validate_entropy_hypotheses(g)
    assume(report.ok)
    reduced, chains = series_reduce(g)
    assert volume(reduced) == volume(g)
    assert all(reduced.valency(x) >= 3 for x in reduced.vertices)
    total = sum(len(chain) for chain in chains.values())
    assert total == len(g.unoriented)


# -- full error texts of the build -------------------------------------------

ONE = Fraction(1)


def build_error(vertices, records):
    with pytest.raises(GraphError) as info:
        MetricGraph.from_unoriented(vertices, records)
    return str(info.value)


def test_build_error_texts():
    assert build_error([], []) == "graph has no vertices"
    assert build_error(["a", "b", "a"], [("e1", "a", "b", ONE)]) == "duplicate vertex names"
    for eid in ("", "e+", "e-"):
        assert build_error(["a"], [(eid, "a", "a", ONE)]) == (
            f"bad edge id {eid!r}: must not end with '+' or '-'"
        )
    assert build_error(["a", "b"], [("e1", "a", "b", ONE), ("e1", "b", "a", ONE)]) == (
        "duplicate edge id 'e1'"
    )
    assert build_error(["a"], [("e1", "b", "a", ONE)]) == "edge 'e1': dangling endpoint 'b'"
    assert build_error(["a"], [("e1", "a", "c", ONE)]) == "edge 'e1': dangling endpoint 'c'"
    assert build_error(["a"], [("e1", "a", "a", "1")]) == "edge 'e1': unsupported length type str"
    assert build_error(["a"], [("e1", "a", "a", None)]) == (
        "edge 'e1': unsupported length type NoneType"
    )
    assert build_error(["a"], [("e1", "a", "a", 0)]) == "edge 'e1': non-positive length 0"
    assert build_error(["a"], [("e1", "a", "a", Fraction(-1, 2))]) == (
        "edge 'e1': non-positive length -1/2"
    )
    assert build_error(["a"], [("e1", "a", "a", -0.5)]) == "edge 'e1': non-positive length -0.5"
    for bad in ("nan", "inf", "-inf"):
        assert build_error(["a"], [("e1", "a", "a", float(bad))]) == (
            f"edge 'e1': non-finite length {bad}"
        )
    assert build_error(["a", "b", "c"], [("e1", "a", "b", ONE)]) == "isolated vertex 'c'"


def test_build_reports_the_first_failure():
    # Records are checked in input order, each completely, before the
    # valency and connectivity checks over the whole graph.
    records = [("e2", "a", "a", 0), ("e1", "a", "z", ONE)]
    assert build_error(["a"], records) == "edge 'e2': non-positive length 0"
    assert build_error(["a"], records[::-1]) == "edge 'e1': dangling endpoint 'z'"
    assert build_error(["a", "b", "c"], [("e", "a", "b", ONE), ("e+", "a", "b", ONE)]) == (
        "bad edge id 'e+': must not end with '+' or '-'"
    )
    # An isolated vertex is also a component of its own: valency comes first.
    assert build_error(["b", "a", "c"], [("e1", "a", "a", ONE)]) == "isolated vertex 'b'"


def test_disconnected_error_gives_every_component():
    records = [
        ("e1", "z", "a", ONE), ("e2", "c", "b", ONE),
        ("e3", "d", "d", ONE), ("e4", "b", "y", ONE),
    ]
    assert build_error(["z", "y", "d", "c", "b", "a"], records) == (
        "graph is disconnected; components: (('a', 'z'), ('b', 'c', 'y'), ('d',))"
    )


def with_lengths_error(g, lengths):
    with pytest.raises(GraphError) as info:
        g.with_lengths(lengths)
    return str(info.value)


def test_with_lengths_error_texts():
    g = theta()
    assert with_lengths_error(g, {"e2": ONE}) == "missing lengths for edges: ['e1', 'e3']"
    assert with_lengths_error(g, {"e1": ONE, "e2": ONE, "x": ONE}) == (
        "missing lengths for edges: ['e3']"
    )
    # The first bad length in unoriented id order is reported.
    assert with_lengths_error(g, {"e3": "2", "e2": 0, "e1": ONE}) == (
        "edge 'e2': non-positive length 0"
    )
    assert with_lengths_error(g, {"e3": "2", "e2": ONE, "e1": ONE}) == (
        "edge 'e3': unsupported length type str"
    )
    assert with_lengths_error(g, {"e3": ONE, "e2": ONE, "e1": -1.0}) == (
        "edge 'e1': non-positive length -1.0"
    )
    for bad in ("nan", "inf", "-inf"):
        assert with_lengths_error(g, {"e3": ONE, "e2": ONE, "e1": float(bad)}) == (
            f"edge 'e1': non-finite length {bad}"
        )


@settings(max_examples=80, deadline=None)
@given(metric_graphs(), st.data())
def test_with_lengths_matches_a_fresh_build(g, data):
    values = st.one_of(positive_fractions, st.integers(1, 9), st.floats(1e-3, 1e3))
    new = {eid: data.draw(values) for eid in g.unoriented_ids}
    copy = g.with_lengths(new)
    fresh = MetricGraph.from_unoriented(
        g.vertices, [(eid, u, v, new[eid]) for eid, u, v, _ in g.unoriented]
    )
    assert copy.edges == fresh.edges
    assert copy.edge_index == fresh.edge_index
    assert all(copy.out_edges(x) == fresh.out_edges(x) for x in g.vertices)
    assert copy.unoriented == fresh.unoriented
    assert copy.lengths == fresh.lengths
    assert copy.vertices == fresh.vertices
    assert copy.topology is g.topology
