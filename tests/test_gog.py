"""Graphs of finite groups and the covering inequality."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from volentropy import (
    GraphOfGroups,
    check_covering,
    covering_inequality,
    degree,
    gog_entropy,
    gog_minimal_entropy,
    gog_minimal_metric,
    gog_volume,
    minimal_entropy,
    minimal_metric,
    volume,
    volume_entropy,
)
from volentropy.documents import cover_from_document, gog_from_document, graph_to_document
from volentropy.errors import GraphError
from volentropy.spectral import edge_system

from builders import (
    THETA_DOC,
    complete,
    complete_bipartite,
    double_cover_doc,
    dumbbell,
    graph_doc,
    theta,
)

LOG2 = math.log(2)
LOG6 = math.log(6)


def segment(orders, edge_order=1, length=1):
    ox, oy = orders
    return gog_from_document({
        "vertices": ["x", "y"],
        "edges": [{"u": "x", "v": "y", "length": length, "id": "e"}],
        "groups": {"vertex_orders": {"x": ox, "y": oy}, "edge_orders": {"e": edge_order}},
    })


def trivial(doc):
    return gog_from_document(doc)


def test_degree_examples():
    g = trivial(THETA_DOC)
    assert degree(g, "a") == 3
    seg = segment((3, 3))
    assert degree(seg, "x") == 3 and degree(seg, "y") == 3
    loop = gog_from_document({
        "vertices": ["x"],
        "edges": [{"u": "x", "v": "x", "length": 1, "id": "e"}],
        "groups": {"vertex_orders": {"x": 4}, "edge_orders": {"e": 2}},
    })
    assert degree(loop, "x") == 4
    with pytest.raises(GraphError, match="^unknown vertex 'z'$"):
        degree(loop, "z")


def test_divisibility_enforced():
    with pytest.raises(GraphError, match="divide"):
        segment((3, 3), edge_order=2)


def test_boolean_orders_rejected():
    # bool is an int subclass, but True is no group order.
    g = theta()
    vertex_order = dict.fromkeys(g.vertices, 1)
    edge_order = dict.fromkeys(g.unoriented_ids, 1)
    with pytest.raises(GraphError, match="^vertex 'a': missing or invalid group order$"):
        GraphOfGroups.create(g, {**vertex_order, "a": True}, edge_order)
    with pytest.raises(GraphError, match="^edge 'e2': missing or invalid group order$"):
        GraphOfGroups.create(g, vertex_order, {**edge_order, "e2": True})


def test_gog_volume():
    assert gog_volume(segment((3, 3))) == 1
    assert gog_volume(segment((4, 4), edge_order=2)) == Fraction(1, 2)
    g = trivial(THETA_DOC)
    assert gog_volume(g) == volume(theta())


def test_gog_volume_requires_lengths():
    bare = gog_from_document({
        "vertices": ["x", "y"],
        "edges": [{"u": "x", "v": "y", "id": "e"}],
        "groups": {"vertex_orders": {"x": 3, "y": 3}},
    })
    with pytest.raises(GraphError, match="lengths"):
        gog_volume(bare)
    with pytest.raises(GraphError, match="lengths"):
        gog_entropy(bare)
    # the closed-form minimum needs no metric
    assert gog_minimal_entropy(bare) == pytest.approx(LOG2)


def test_segment_entropies():
    assert gog_entropy(segment((3, 3))).h == pytest.approx(LOG2, rel=1e-9)
    assert gog_entropy(segment((3, 4))).h == pytest.approx(0.5 * LOG6, rel=1e-9)


def test_loop_entropy_four_regular_tree():
    loop = gog_from_document({
        "vertices": ["x"],
        "edges": [{"u": "x", "v": "x", "length": 1, "id": "e"}],
        "groups": {"vertex_orders": {"x": 4}, "edge_orders": {"e": 2}},
    })
    assert gog_entropy(loop).h == pytest.approx(math.log(3), rel=1e-9)


def test_gog_minimal_entropy_segments():
    assert gog_minimal_entropy(segment((3, 3))) == pytest.approx(LOG2, rel=1e-12)
    assert gog_minimal_entropy(segment((3, 4))) == pytest.approx(0.5 * LOG6, rel=1e-12)


def test_gog_minimal_metric_segments():
    result = gog_minimal_metric(segment((3, 3)))
    assert result.lengths["e"] == pytest.approx(1.0, rel=1e-12)
    assert result.h_min == pytest.approx(LOG2, rel=1e-12)
    result = gog_minimal_metric(segment((3, 4)))
    # log(2 * 3) over (3 log 2) / 3 + (4 log 3) / 4, exactly 1 in floats.
    assert result.lengths["e"] == 1.0
    assert result.h_min == pytest.approx(0.5 * LOG6, rel=1e-12)


def test_gog_minimizer_consistency():
    for gog in (segment((3, 3)), segment((8, 6), edge_order=2), trivial(THETA_DOC)):
        result = gog_minimal_metric(gog)
        metered = GraphOfGroups.create(
            gog.graph.with_lengths(result.lengths),
            gog.vertex_order,
            gog.edge_order,
        )
        assert gog_volume(metered) == pytest.approx(1.0, abs=1e-12)
        assert gog_entropy(metered).h == pytest.approx(result.h_min, rel=1e-9)


def test_trivial_groups_reduce_to_plain_operations():
    # K5,7 has 70 oriented edges: it is solved by power iteration.  The
    # closed form is shared, so trivial groups give the plain bits.
    graphs = (
        theta(), dumbbell(), complete(4), complete(5), complete_bipartite(3, 4),
        complete_bipartite(5, 7),
    )
    for graph in graphs:
        gog = trivial(graph_to_document(graph))
        ones = (dict.fromkeys(graph.vertices, 1), dict.fromkeys(graph.unoriented_ids, 1))
        plain, grouped = edge_system(graph), edge_system(graph, ones)
        for part in ("rows", "cols", "vals", "edge_orders"):
            assert np.array_equal(getattr(plain, part), getattr(grouped, part))
        assert gog_volume(gog) == volume(graph)
        for x in graph.vertices:
            assert degree(gog, x) == graph.valency(x)
        assert gog_entropy(gog).h == volume_entropy(graph).h
        assert gog_minimal_entropy(gog) == minimal_entropy(graph)
        minimal = gog_minimal_metric(gog)
        plain = minimal_metric(graph)
        assert minimal.h_min == plain.h_min
        assert minimal.lengths == plain.lengths


@pytest.mark.parametrize(
    "gog, solver_error, closed_form_error",
    [
        (segment((3 * 10**400, 4 * 10**400), 10**400),
         "edge 'e': group order", "vertex 'x': group order"),
        (segment((3 * 10**400, 4 * 10**400)),
         "vertex 'x': index of the group of edge 'e'", "vertex 'x': tree degree"),
    ],
    ids=["edge-order", "index"],
)
def test_orders_beyond_the_float_range(gog, solver_error, closed_form_error):
    # The tree degrees are exact Python ints; their float conversions, and
    # those of the orders, fail.
    for solve, what in ((gog_entropy, solver_error), (gog_minimal_entropy, closed_form_error)):
        with pytest.raises(GraphError) as info:
            solve(gog)
        assert str(info.value) == f"{what} exceeds the float range (about 1.8e308)"


def test_gog_entropy_requires_degree_three():
    with pytest.raises(GraphError, match="degree"):
        gog_entropy(segment((2, 2)))


def test_identity_cover():
    doc = {
        "source": THETA_DOC,
        "target": THETA_DOC,
        "vmap": {"a": "a", "b": "b"},
        "emap": {"e1": "e1", "e2": "e2", "e3": "e3"},
    }
    cover = cover_from_document(doc)
    report = check_covering(cover)
    assert report.ok and report.sheets == 1
    ineq = covering_inequality(cover)
    assert ineq.lhs >= ineq.rhs - 1e-9
    assert ineq.rhs == pytest.approx(3 * LOG2, rel=1e-12)


def test_double_cover_valid_two_sheets():
    cover = cover_from_document(double_cover_doc())
    report = check_covering(cover)
    assert report.ok
    assert report.sheets == 2


def test_double_cover_equality_case():
    cover = cover_from_document(double_cover_doc())
    ineq = covering_inequality(cover)
    assert ineq.lhs == pytest.approx(6 * LOG2, rel=1e-9)
    assert ineq.rhs == pytest.approx(6 * LOG2, rel=1e-12)
    assert ineq.equality and ineq.proportional
    assert ineq.ratio == pytest.approx(0.5, rel=1e-9)


def test_double_cover_perturbed_strict():
    lengths = {
        "f1": Fraction(1, 5), "f2": Fraction(1, 6), "f3": Fraction(2, 15),
        "f4": Fraction(1, 6), "f5": Fraction(1, 6), "f6": Fraction(1, 6),
    }
    assert sum(lengths.values()) == 1
    cover = cover_from_document(double_cover_doc())
    ineq = covering_inequality(cover, lengths)
    assert ineq.gap > 0
    assert not ineq.equality


def test_cover_work_runs_once_per_cover(monkeypatch):
    # The covering checks and the target's minimal entropy depend on the
    # cover alone: the first call works them out, later calls only check
    # the new lengths and solve, and an invalid cover raises every time.
    from volentropy import gog

    calls = []
    for name in ("check_covering", "gog_minimal_entropy"):
        def counted(*args, _original=getattr(gog, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(gog, name, counted)
    lengths = {f"f{i}": Fraction(1, 6) for i in range(1, 7)}
    lengths["f1"], lengths["f2"] = Fraction(1, 5), Fraction(2, 15)
    cover = cover_from_document(double_cover_doc())
    first = covering_inequality(cover, lengths)
    assert covering_inequality(cover, lengths) == first
    assert calls == ["check_covering", "gog_minimal_entropy"]
    with pytest.raises(GraphError, match="length"):
        covering_inequality(cover, {**lengths, "f1": 0})
    doc = double_cover_doc()
    doc["emap"] = {"f1": "e1", "f2": "e1", "f3": "e1", "f4": "e1", "f5": "e3", "f6": "e3"}
    invalid = cover_from_document(doc)
    for _ in range(2):
        with pytest.raises(GraphError, match="^invalid covering: local-multiplicity"):
            covering_inequality(invalid, lengths)


def test_double_cover_stalled_metric():
    # A +-30 % perturbation of the cover's metric at which power iteration
    # on the periodic edge matrix stalls for 500000 steps near the root.
    lengths = {
        "f1": 0.20077028763586582, "f2": 0.15677585064691013, "f3": 0.15580927126475883,
        "f4": 0.20147993713348877, "f5": 0.14158802392915157, "f6": 0.1435766293898248,
    }
    cover = cover_from_document(double_cover_doc())
    start = time.perf_counter()
    ineq = covering_inequality(cover, lengths)
    assert time.perf_counter() - start < 2.0
    assert ineq.gap > 0
    assert not ineq.equality


def test_invalid_cover_witness():
    doc = double_cover_doc()
    doc["emap"] = {"f1": "e1", "f2": "e1", "f3": "e1", "f4": "e1", "f5": "e3", "f6": "e3"}
    cover = cover_from_document(doc)
    report = check_covering(cover)
    assert not report.ok
    violation = report.first_violation
    assert violation is not None and violation.witness


def _witnesses(doc):
    report = check_covering(cover_from_document(doc))
    return report.sheets, {c.name: c.witness for c in report.checks if not c.ok}


def test_cover_witness_texts():
    # f5 moved onto e1: two lifts of e1 at a1, and three edges over e1.
    doc = double_cover_doc()
    doc["emap"]["f5"] = "e1"
    assert _witnesses(doc) == (2, {
        "local-multiplicity": "vertex a1: edges over e1+ contribute 2, expected 1",
        "edge-fibers": "edge e1+: fiber sum 3, expected 2",
    })
    # |G_a1| = 2 leaves half a sheet over a, so there is no sheet count
    # and the edge fibers are compared with the first one.
    doc["source"]["groups"] = {"vertex_orders": {"a1": 2}}
    assert _witnesses(doc) == (None, {
        "local-multiplicity": "vertex a1: edges over e1+ contribute 4, expected 1",
        "vertex-fibers": "vertex fiber sums are not a constant integer: {'a': '3/2', 'b': '2'}",
        "edge-fibers": "edge e2+: fiber sum 2, expected 3",
    })
    # Every source edge over e1 or e3: e1's fiber is 4 and e2's is 0.
    doc = double_cover_doc()
    doc["emap"] = {"f1": "e1", "f2": "e1", "f3": "e1", "f4": "e1", "f5": "e3", "f6": "e3"}
    assert _witnesses(doc) == (2, {
        "local-multiplicity": "vertex a1: edges over e1+ contribute 2, expected 1",
        "edge-fibers": "edge e1+: fiber sum 4, expected 2",
    })


def test_cover_reversal_violation_detected():
    from volentropy.gog import CoveringMap

    base = cover_from_document(double_cover_doc())
    edge_map = dict(base.edge_map)
    edge_map["f1-"] = "e1-"  # should be the reversal of the image of f1+
    edge_map["f1+"] = "e1-"
    broken = CoveringMap.create(base.source, base.target, base.vertex_map, edge_map)
    report = check_covering(broken)
    assert not report.ok
    assert any(c.name == "reversal" and not c.ok for c in report.checks)
