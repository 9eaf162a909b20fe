"""Volume entropy of finite metric graphs and graphs of finite groups.

Computes the entropy as the unique weight where the h-weighted
non-backtracking edge matrix has unit Perron root, the closed-form
entropy-minimizing normalized metric, an independent exact path-counting
oracle, and the n-sheeted covering inequality for graphs of groups.

The public names below load their module on first access (PEP 562), so
``import volentropy`` imports no numpy.  numpy is imported by ``spectral``
and by the metric sampler, and ``spectral`` only where a solve runs, in the
entropy solvers.  Graphs, documents, the closed forms and the path-count
oracle run without numpy, and so do the CLI subcommands built on them:
validate, volume, oracle, reduce, gog-minimize and minimize --samples 0.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "entropy": ("EntropySolution", "entropy_volume_product", "volume_entropy"),
    "errors": ("ConvergenceError", "DocumentError", "GraphError", "VolentropyError"),
    "gog": (
        "CoveringInequalityReport", "CoveringMap", "CoveringReport", "GogMinimalMetric",
        "GraphOfGroups", "check_covering", "covering_inequality", "degree",
        "gog_entropy", "gog_minimal_entropy", "gog_minimal_metric", "gog_volume",
    ),
    "graph": (
        "HypothesesReport", "MetricGraph", "OrientedEdge", "ResidualReport",
        "build_graph", "normalize", "scale_metric", "series_reduce",
        "validate_entropy_hypotheses", "verify_fixed_point", "volume",
    ),
    "optimizer": (
        "MinimalMetricResult", "biregular_minimum", "min_entropy_free_rank",
        "minimal_entropy", "minimal_metric", "minimize_with_reduction",
        "sample_normalized_metrics", "split_vertex",
    ),
    "oracle": (
        "EntropyEstimate", "PathCount", "count_paths", "count_paths_between",
        "estimate_entropy",
    ),
    "spectral": (
        "IrreducibilityReport", "WeightedEdgeMatrix", "edge_adjacency", "is_irreducible",
        "spectral_radius", "weighted_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
