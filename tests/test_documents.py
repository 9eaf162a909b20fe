"""Document parsing, serialization stability, and error reporting."""

from fractions import Fraction

import pytest

from volentropy.documents import (
    canonical_text,
    cover_from_document,
    gog_from_document,
    graph_from_document,
    graph_to_document,
    parse_rational,
)
from volentropy.errors import DocumentError, GraphError

from builders import THETA_DOC, double_cover_doc, theta


def test_parse_rational():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational("2/7", "x") == Fraction(2, 7)
    assert parse_rational(" 5 ", "x") == Fraction(5)
    with pytest.raises(DocumentError, match="float"):
        parse_rational(0.5, "x")
    with pytest.raises(DocumentError):
        parse_rational("p/q", "x")
    with pytest.raises(DocumentError):
        parse_rational(True, "x")


def test_graph_from_document_assigns_ids():
    g = graph_from_document({
        "vertices": ["a", "b"],
        "edges": [
            {"u": "a", "v": "b", "length": 1},
            {"u": "a", "v": "b", "length": 1, "id": "e1"},
            {"u": "a", "v": "b", "length": "1/2"},
        ],
    })
    assert set(g.unoriented_ids) == {"e1", "e2", "e3"}


def test_graph_from_document_field_errors():
    with pytest.raises(DocumentError, match="unknown fields"):
        graph_from_document({"vertices": ["a"], "edges": [], "bogus": 1})
    with pytest.raises(DocumentError, match="missing length"):
        graph_from_document({
            "vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}],
        })
    with pytest.raises(DocumentError, match=r"edges\[0\].length"):
        graph_from_document({
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "length": 0.25}],
        })
    with pytest.raises(GraphError, match="non-positive"):
        graph_from_document({
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "length": "-1/2"}],
        })


def test_round_trip():
    g = theta((1, Fraction(1, 2), 3))
    doc = graph_to_document(g)
    again = graph_from_document(doc)
    assert again.unoriented == g.unoriented
    assert again.vertices == g.vertices


def test_canonical_text_is_stable():
    g = theta((1, Fraction(7, 3), 2))
    a = canonical_text(graph_to_document(g))
    b = canonical_text(graph_to_document(graph_from_document(graph_to_document(g))))
    assert a == b


def test_gog_defaults_to_trivial_orders():
    gog = gog_from_document(THETA_DOC)
    assert gog.vertex_order == dict.fromkeys(gog.graph.vertices, 1)
    assert gog.edge_order == dict.fromkeys(gog.graph.unoriented_ids, 1)
    assert gog.has_lengths


def test_gog_group_errors():
    with pytest.raises(DocumentError, match="unknown name"):
        gog_from_document({
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "length": 1, "id": "e"}],
            "groups": {"vertex_orders": {"zz": 3}},
        })
    with pytest.raises(DocumentError, match="positive integer"):
        gog_from_document({
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "length": 1, "id": "e"}],
            "groups": {"vertex_orders": {"a": 0}},
        })


def test_cover_document_parsing():
    cover = cover_from_document(double_cover_doc())
    assert cover.report.sheets == 2
    assert cover.edge_map["f1+"] == "e1+"
    assert cover.edge_map["f1-"] == "e1-"


def test_cover_document_missing_entries():
    doc = double_cover_doc()
    del doc["vmap"]["a1"]
    with pytest.raises(DocumentError, match="vmap"):
        cover_from_document(doc)
    doc = double_cover_doc()
    doc["emap"]["f9"] = "e1"
    with pytest.raises(DocumentError, match="unknown source edges"):
        cover_from_document(doc)


def test_cover_document_oriented_ids():
    doc = double_cover_doc()
    doc["emap"]["f1"] = "e1-"
    cover = cover_from_document(doc)
    assert cover.edge_map["f1+"] == "e1-"
    assert cover.edge_map["f1-"] == "e1+"


def document_error(doc):
    with pytest.raises(DocumentError) as info:
        graph_from_document(doc)
    return str(info.value)


def test_edge_record_error_texts():
    ab = ["a", "b"]
    assert document_error({"vertices": "a", "edges": []}) == "vertices: must be a list of names"
    assert document_error({"vertices": ab, "edges": {}}) == "edges: must be a list"
    assert document_error({"vertices": ab, "edges": [["a", "b"]]}) == "edges[0]: must be a mapping"
    assert document_error({"vertices": ab, "edges": [
        {"u": "a", "v": "b", "length": 1},
        {"u": "a", "v": "b", "w": 1, "length": 1, "colour": "red"},
    ]}) == "edges[1]: unknown fields ['colour', 'w']"
    # Unknown fields are reported before missing ones.
    assert document_error({"vertices": ab, "edges": [{"u": "a", "weight": 1}]}) == (
        "edges[0]: unknown fields ['weight']"
    )
    assert document_error({"vertices": ab, "edges": [{"u": "a", "length": 1}]}) == (
        "edges[0]: missing endpoint field 'v'"
    )
    assert document_error({"vertices": ab, "edges": [{"u": "a", "v": 2, "length": 1}]}) == (
        "edges[0]: endpoints must be vertex names"
    )
    assert document_error({"vertices": ab, "edges": [{"u": "a", "v": "b", "id": 7}]}) == (
        "edges[0].id: must be a string"
    )
    assert document_error({"vertices": ab, "edges": [
        {"u": "a", "v": "b", "length": 1, "id": "e1"},
        {"u": "a", "v": "b", "length": 1, "id": "e1"},
    ]}) == "edges[1].id: duplicate edge id 'e1'"
    assert document_error({"vertices": ab, "edges": [{"u": "a", "v": "b"}]}) == (
        "edges[0]: missing length"
    )
    assert document_error({"vertices": ab, "edges": [{"u": "a", "v": "b", "length": "x"}]}) == (
        "edges[0].length: not a rational: 'x'"
    )


def test_non_mapping_documents_rejected():
    for parse in (graph_from_document, gog_from_document, cover_from_document):
        for doc in ([], None, 5, "ab"):
            with pytest.raises(DocumentError, match="^document: must be a mapping$"):
                parse(doc)


def test_mixed_type_keys_rejected():
    # YAML keys need not be strings; the unknown ones are listed sorted by str.
    ab = ["a", "b"]
    edge = {"u": "a", "v": "b", "length": 1}
    assert document_error({"vertices": ab, "edges": [edge], 1: 2, "x": 3}) == (
        "document: unknown fields [1, 'x']"
    )
    assert document_error({"vertices": ab, "edges": [{**edge, 2: 0, "w": 1}]}) == (
        "edges[0]: unknown fields [2, 'w']"
    )
    with pytest.raises(DocumentError, match=r"^groups: unknown fields \[1, 'x'\]$"):
        gog_from_document({"vertices": ab, "edges": [edge], "groups": {1: 2, "x": 3}})


def test_generated_ids_skip_explicit_ones():
    g = graph_from_document({
        "vertices": ["a", "b"],
        "edges": [
            {"u": "a", "v": "b", "length": 1},
            {"u": "a", "v": "b", "length": 2, "id": "e1"},
            {"u": "a", "v": "b", "length": 3},
            {"u": "a", "v": "b", "length": 4, "id": "e3"},
            {"u": "b", "v": "a", "length": 5},
        ],
    })
    assert g.unoriented == (
        ("e1", "a", "b", 2), ("e2", "a", "b", 1), ("e3", "a", "b", 4),
        ("e4", "a", "b", 3), ("e5", "b", "a", 5),
    )
