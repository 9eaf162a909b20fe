"""Graph, group, and covering documents (YAML; JSON is accepted too).

A graph document looks like::

    vertices: [a, b]
    edges:
      - {u: a, v: b, length: 1, id: e1}
      - {u: a, v: b, length: "1/2", id: e2}
    groups:                      # optional, for graphs of groups
      vertex_orders: {a: 3, b: 3}
      edge_orders: {e1: 1}

Lengths are integers or "p/q" strings; floats are rejected to keep the data
model exact.  Edge ids default to e1, e2, ... in input order.  A covering
document holds ``source``/``target`` graph documents plus ``vmap`` (vertex
to vertex) and ``emap`` (unoriented source edge id to target oriented edge
id; a bare id means the forward orientation).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from typing import Any

import yaml

from .errors import DocumentError
from .graph import MetricGraph, oriented_id

_GRAPH_KEYS = {"vertices", "edges", "groups"}
_COVER_KEYS = {"source", "target", "vmap", "emap"}
_EDGE_KEYS = {"u", "v", "length", "id"}


def parse_rational(value: Any, where: str) -> Fraction:
    """Parse an integer or "p/q" string into a Fraction."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: floats are not exact; write rationals as 'p/q' strings"
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: not a rational: {value!r}") from exc
    raise DocumentError(f"{where}: expected a rational, got {type(value).__name__}")


def format_rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def load_document(path: str | Path) -> Mapping:
    """Load a YAML/JSON document from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise DocumentError(f"{path}: parse error{where}: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{path}: document must be a mapping")
    return doc


def _check_keys(doc: Any, allowed: set[str], where: str) -> None:
    # A library caller may pass any value as a document.
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{where}: must be a mapping")
    unknown = doc.keys() - allowed
    if unknown:
        raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")


def _edge_records(doc: Mapping, require_lengths: bool):
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise DocumentError("vertices: must be a list of names")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise DocumentError("edges: must be a list")
    # Explicit ids, which generated ones skip; gathered at the first edge
    # without an id.
    explicit = None
    records = []
    used_ids = set()
    missing_lengths = False
    counter = 0
    # Locations such as "edges[3]" are formatted only where an error is
    # raised: one per edge cost about a quarter of this loop on big documents.
    for i, entry in enumerate(edges):
        if not isinstance(entry, Mapping):
            raise DocumentError(f"edges[{i}]: must be a mapping")
        if not entry.keys() <= _EDGE_KEYS:
            _check_keys(entry, _EDGE_KEYS, f"edges[{i}]")
        try:
            u, v = entry["u"], entry["v"]
        except KeyError as exc:
            raise DocumentError(f"edges[{i}]: missing endpoint field {exc}") from None
        if not isinstance(u, str) or not isinstance(v, str):
            raise DocumentError(f"edges[{i}]: endpoints must be vertex names")
        eid = entry.get("id")
        if eid is None:
            if explicit is None:
                explicit = {
                    e["id"] for e in edges
                    if isinstance(e, Mapping) and isinstance(e.get("id"), str)
                }
            counter += 1
            while f"e{counter}" in explicit or f"e{counter}" in used_ids:
                counter += 1
            eid = f"e{counter}"
        elif not isinstance(eid, str):
            raise DocumentError(f"edges[{i}].id: must be a string")
        if eid in used_ids:
            raise DocumentError(f"edges[{i}].id: duplicate edge id {eid!r}")
        used_ids.add(eid)
        if "length" in entry:
            length = entry["length"]
            # parse_rational returns a Fraction as it is, and starts each
            # error text with the location it is given.
            if type(length) is not Fraction:
                try:
                    length = parse_rational(length, "length")
                except DocumentError as exc:
                    raise DocumentError(f"edges[{i}].{exc}") from exc.__cause__
        elif require_lengths:
            raise DocumentError(f"edges[{i}]: missing length")
        else:
            missing_lengths = True
            length = Fraction(1)
        records.append((eid, u, v, length))
    return vertices, records, missing_lengths


def graph_from_document(doc: Mapping) -> MetricGraph:
    """Parse a graph document (lengths required)."""
    _check_keys(doc, _GRAPH_KEYS, "document")
    vertices, records, _ = _edge_records(doc, require_lengths=True)
    return MetricGraph.from_unoriented(vertices, records)


def _orders(block: Any, names: tuple[str, ...], where: str) -> dict[str, int]:
    orders = {name: 1 for name in names}
    if block is None:
        return orders
    if not isinstance(block, Mapping):
        raise DocumentError(f"{where}: must be a mapping")
    for name, value in block.items():
        if name not in orders:
            raise DocumentError(f"{where}: unknown name {name!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DocumentError(f"{where}.{name}: order must be a positive integer")
        orders[name] = value
    return orders


def gog_from_document(doc: Mapping):
    """Parse a graph document with an optional groups block.

    Missing orders default to 1 (trivial groups); lengths may be omitted,
    in which case only unmetrized operations apply.
    """
    from .gog import GraphOfGroups

    _check_keys(doc, _GRAPH_KEYS, "document")
    vertices, records, missing_lengths = _edge_records(doc, require_lengths=False)
    graph = MetricGraph.from_unoriented(vertices, records)
    groups = doc.get("groups") or {}
    _check_keys(groups, {"vertex_orders", "edge_orders"}, "groups")
    vertex_order = _orders(groups.get("vertex_orders"), graph.vertices, "groups.vertex_orders")
    edge_order = _orders(groups.get("edge_orders"), graph.unoriented_ids, "groups.edge_orders")
    return GraphOfGroups.create(
        graph, vertex_order, edge_order, has_lengths=not missing_lengths
    )


def _oriented_target_id(value: Any, target: MetricGraph, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{where}: must be an edge id")
    eid = value if value.endswith(("+", "-")) else oriented_id(value)
    if eid not in target.edge_index:
        raise DocumentError(f"{where}: unknown target edge {value!r}")
    return eid


def cover_from_document(doc: Mapping):
    """Parse a covering document into a CoveringMap."""
    from .gog import CoveringMap

    _check_keys(doc, _COVER_KEYS, "document")
    for key in ("source", "target", "vmap", "emap"):
        if key not in doc:
            raise DocumentError(f"document: missing field {key!r}")
    for key in ("source", "target"):
        if not isinstance(doc[key], Mapping):
            raise DocumentError(f"{key}: must be a mapping")
    source = gog_from_document(doc["source"])
    target = gog_from_document(doc["target"])
    vmap_doc, emap_doc = doc["vmap"], doc["emap"]
    if not isinstance(vmap_doc, Mapping) or not isinstance(emap_doc, Mapping):
        raise DocumentError("vmap/emap: must be mappings")
    vertex_map = {}
    for y in source.graph.vertices:
        if y not in vmap_doc:
            raise DocumentError(f"vmap: missing source vertex {y!r}")
        x = vmap_doc[y]
        if x not in target.graph.vertices:
            raise DocumentError(f"vmap.{y}: unknown target vertex {x!r}")
        vertex_map[y] = x
    unknown = set(vmap_doc) - set(source.graph.vertices)
    if unknown:
        raise DocumentError(f"vmap: unknown source vertices {sorted(unknown)}")
    edge_map = {}
    for fid in source.graph.unoriented_ids:
        if fid not in emap_doc:
            raise DocumentError(f"emap: missing source edge {fid!r}")
        image = _oriented_target_id(emap_doc[fid], target.graph, f"emap.{fid}")
        fwd = oriented_id(fid)
        edge_map[fwd] = image
        edge_map[oriented_id(fid, False)] = target.graph.edge(image).reversal
    unknown = set(emap_doc) - set(source.graph.unoriented_ids)
    if unknown:
        raise DocumentError(f"emap: unknown source edges {sorted(unknown)}")
    return CoveringMap.create(source, target, vertex_map, edge_map)


def graph_to_document(g: MetricGraph) -> dict:
    """Serialize a graph to a document dict."""
    edges = []
    for eid, u, v, length in g.unoriented:
        entry: dict[str, Any] = {"u": u, "v": v, "id": eid}
        if isinstance(length, Fraction):
            entry["length"] = format_rational(length)
        else:
            entry["length"] = float(length)
        edges.append(entry)
    return {"vertices": list(g.vertices), "edges": edges}


def canonical_text(doc: Mapping) -> str:
    """Byte-stable serialization: identical inputs give identical output."""
    return yaml.safe_dump(dict(doc), sort_keys=True, default_flow_style=False)
