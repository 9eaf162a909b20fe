"""Span tracing from outside the program.

The tracer rebinds public functions of ``volentropy`` to timing wrappers:
in the defining module, in every ``volentropy`` module that imported the
function by name, and in the package namespace.  Each call records a span
with its name, start, end and parent; a span's self time is its duration
minus the durations of its direct children.  Spans live in memory and are
reduced to layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# Layer name -> (module, attribute) of every traced function.  Methods are
# written "Class.method".  The span name is "<layer>.<attribute>".
TRACED = {
    "graph": ("volentropy.graph", (
        "build_graph", "MetricGraph.from_unoriented", "MetricGraph.with_lengths",
        "validate_entropy_hypotheses", "series_reduce", "normalize", "scale_metric",
        "volume",
    )),
    "spectral": ("volentropy.spectral", (
        "edge_adjacency", "strongly_connected_components", "is_irreducible",
        "assemble", "weighted_matrix", "power_iteration", "spectral_radius",
    )),
    "entropy": ("volentropy.entropy", (
        "volume_entropy", "solve_unit_radius", "verify_fixed_point",
        "entropy_volume_product",
    )),
    "optimizer": ("volentropy.optimizer", (
        "minimal_entropy", "minimal_metric", "minimize_with_reduction",
        "sample_normalized_metrics", "split_vertex", "biregular_minimum",
        "min_entropy_free_rank",
    )),
    "oracle": ("volentropy.oracle", (
        "count_paths", "count_paths_between", "estimate_entropy",
    )),
    "gog": ("volentropy.gog", (
        "gog_entropy", "gog_minimal_entropy", "gog_minimal_metric",
        "check_covering", "covering_inequality", "degree", "gog_volume",
    )),
    "documents": ("volentropy.documents", (
        "load_document", "graph_from_document", "gog_from_document",
        "cover_from_document",
    )),
    "cli": ("volentropy.cli", ("main",)),
}

# Functions that return a generator: the span covers each ``next`` call.
GENERATORS = {"optimizer.sample_normalized_metrics"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    data: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def _wrap(self, name: str, fn):
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def traced():
                    while True:
                        index = tracer.begin(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.end(index)
                        yield item

                return traced()

            return generator_wrapper

        record = RECORDERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if record is not None:
                tracer.spans[index].data.update(record(args, result))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever volentropy binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "volentropy" or key.startswith("volentropy."))
        ]
        for layer, (module_name, attributes) in TRACED.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attribute in attributes:
                name = f"{layer}.{attribute.split('.')[-1]}"
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        self._set(cls, method, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, method, self._wrap(name, raw))
                    continue
                original = getattr(module, attribute)
                wrapped = self._wrap(name, original)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def under(self, root: str) -> list[bool]:
        """For each span: is it a root span named ``root`` or inside one?"""
        flags = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            flags[i] = (s.parent < 0 and s.name == root) or (s.parent >= 0 and flags[s.parent])
        return flags

    def outermost(self, names) -> list[int]:
        """Indices of spans named in ``names`` with no ancestor in ``names``."""
        names = set(names)
        inside = [False] * len(self.spans)
        found = []
        for i, s in enumerate(self.spans):
            # Parents precede children, so the flag of the parent is final.
            ancestor = s.parent >= 0 and (
                inside[s.parent] or self.spans[s.parent].name in names
            )
            inside[i] = ancestor
            if s.name in names and not ancestor:
                found.append(i)
        return found

    def adopt(self, spans: list[Span]) -> None:
        """Append spans recorded elsewhere (a child process) under the open
        span; their parent indices are relative to the given list."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for s in spans:
            parent = top if s.parent < 0 else base + s.parent
            self.spans.append(Span(s.name, s.start, s.end, parent, dict(s.data)))


def _power_record(args, result) -> dict:
    return {"iterations": result[2], "nnz": _nonzeros(args[0])}


def _assemble_record(args, result) -> dict:
    return {"h": args[4]}


def _solve_record(args, result) -> dict:
    return {"evaluations": result.iterations}


def _oracle_record(args, result) -> dict:
    return {"cells": _grid_cells(args[0], args[2])}


# Counts read off a finished call, after its span has ended.
RECORDERS = {
    "spectral.power_iteration": _power_record,
    "spectral.assemble": _assemble_record,
    "entropy.volume_entropy": _solve_record,
    "gog.gog_entropy": _solve_record,
    "oracle.count_paths": _oracle_record,
    "oracle.estimate_entropy": _oracle_record,
}


def _nonzeros(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)
    if nnz is not None:
        return int(nnz)
    import numpy as np

    return int(np.count_nonzero(matrix))


def _grid_cells(g, r) -> int:
    """Edges times radius in grid units: the size of the oracle's DP table."""
    import math
    from fractions import Fraction

    radius = Fraction(r)
    denominator = math.lcm(
        *(length.denominator for length in g.lengths.values()), radius.denominator
    )
    return len(g.edges) * int(radius * denominator)


def span_names(layer: str) -> tuple[str, ...]:
    """All span names of one layer."""
    return tuple(f"{layer}.{a.split('.')[-1]}" for a in TRACED[layer][1])
