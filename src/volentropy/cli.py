"""Command-line front end.

One input document per invocation; results go to stdout either as a
human-readable report or as a single JSON document with a schema_version
field.  Exit status: 0 success, 1 invalid graph or failed validation,
2 numerical failure, 3 usage error.  Only the subcommands that solve for an
entropy load numpy: entropy, gog-entropy, cover-check, and minimize with
samples.  The solver modules are imported where a solve runs, so validate,
volume, oracle, reduce, gog-minimize and minimize --samples 0 start without
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import config, documents, gog, optimizer, oracle
from .errors import ConvergenceError, DocumentError, GraphError
from .graph import series_reduce, validate_entropy_hypotheses, volume

if TYPE_CHECKING:
    from .entropy import EntropySolution
    from .spectral import EdgeSystem

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, accept, requirement):
    """An argparse ``type=`` that converts, then rejects values out of range."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" message
    return parse


_tolerance = _checked(float, lambda v: 0 < v < math.inf, "finite and positive")
_positive = _checked(int, lambda v: v > 0, "positive")
_nonnegative = _checked(int, lambda v: v >= 0, "nonnegative")


def _fmt(value):
    if isinstance(value, Fraction):
        return documents.format_rational(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit(ns: argparse.Namespace, result: dict) -> None:
    if ns.format == "structured":
        payload = {"schema_version": SCHEMA_VERSION, "subcommand": ns.subcommand}
        payload.update(_fmt(result))
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    for key, value in result.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}  {_fmt(v)}")
        elif isinstance(value, (list, tuple)):
            print(f"{key}:")
            for item in value:
                print(f"  {_fmt(item)}")
        else:
            print(f"{key}: {_fmt(value)}")


def _solution_result(solution: EntropySolution) -> dict:
    return {
        "h": solution.h,
        "vector": dict(sorted(solution.vector.items())),
        "residual": solution.residual,
        "bracket": list(solution.bracket),
        "iterations": solution.iterations,
    }


def _matrix_dump(system: EdgeSystem, h: float) -> list[str]:
    ids, lengths = system.edge_ids, system.lengths.tolist()
    return [
        f"{ids[i]} {ids[j]} {v * math.exp(-h * lengths[j])!r}"
        for i, j, v in zip(system.rows.tolist(), system.cols.tolist(), system.vals.tolist())
    ]


# Each handler takes the loaded document and the parsed arguments and
# returns (result, ok); ok False exits with EXIT_INVALID.


def _validate(g, ns):
    report = validate_entropy_hypotheses(g)
    result = {
        "ok": report.ok,
        # Building the graph rejected disconnected documents.
        "connected": True,
        "no_terminal_vertex": report.no_terminal_vertex,
        "not_single_cycle": report.not_single_cycle,
    }
    if report.terminal_vertices:
        result["terminal_vertices"] = list(report.terminal_vertices)
    if report.cycle_witness:
        result["witness"] = report.cycle_witness
    return result, report.ok


def _volume(g, ns):
    return {"volume": volume(g)}, True


def _entropy(g, ns):
    from . import entropy, spectral

    solution = entropy.volume_entropy(
        g, root_tol=ns.tol_root, residual_tol=ns.tol_residual
    )
    result = _solution_result(solution)
    if ns.dump_matrix:
        result["matrix"] = _matrix_dump(spectral.edge_system(g), solution.h)
    return result, True


def _minimize(g, ns):
    minimal = optimizer.minimize_with_reduction(g)
    result = {
        "h_min": minimal.h_min,
        "lengths": dict(sorted(minimal.lengths.items())),
        "perron": dict(sorted(minimal.perron.items())),
        "z": dict(sorted(minimal.z.items())),
        "canonical": minimal.canonical,
    }
    if minimal.chains is not None:
        result["chains"] = {
            cid: list(chain) for cid, chain in sorted(minimal.chains.items())
        }
        result["chain_totals"] = dict(sorted(minimal.chain_totals.items()))
    if ns.samples:
        from . import entropy

        worst = min(
            entropy.volume_entropy(
                g.with_lengths(lengths), root_tol=ns.tol_root, residual_tol=ns.tol_residual
            ).h
            for lengths in optimizer.sample_normalized_metrics(g, ns.samples, ns.seed)
        )
        result["samples"] = ns.samples
        result["min_sampled_h"] = worst
        result["all_samples_above_minimum"] = bool(worst >= minimal.h_min - 1e-9)
    return result, True


def _oracle(g, ns):
    x0 = g.vertices[0] if ns.base_vertex is None else ns.base_vertex
    if x0 not in g.vertices:
        raise GraphError(f"unknown base vertex {x0!r}")
    denominator = math.lcm(*(v.denominator for v in g.lengths.values()))
    estimate = oracle.estimate_entropy(g, x0, Fraction(ns.r_max, denominator))
    return {
        "base_vertex": x0,
        "r_grid": [str(r) for r in estimate.grid],
        "counts": [str(c) for c in estimate.counts],
        "h_est": estimate.h_est,
        "error_band": estimate.band,
    }, True


def _reduce(g, ns):
    reduced, chains = series_reduce(g)
    return {
        "graph": documents.graph_to_document(reduced),
        "chains": {cid: list(chain) for cid, chain in sorted(chains.items())},
    }, True


def _gog_entropy(weighted, ns):
    solution = gog.gog_entropy(
        weighted, root_tol=ns.tol_root, residual_tol=ns.tol_residual
    )
    result = _solution_result(solution)
    result["degrees"] = {x: gog.degree(weighted, x) for x in weighted.graph.vertices}
    if ns.dump_matrix:
        from . import spectral

        result["matrix"] = _matrix_dump(
            spectral.edge_system(weighted.graph, weighted.orders), solution.h
        )
    return result, True


def _gog_minimize(weighted, ns):
    minimal = gog.gog_minimal_metric(weighted)
    return {
        "h_min": minimal.h_min,
        "lengths": dict(sorted(minimal.lengths.items())),
        "degrees": {x: gog.degree(weighted, x) for x in weighted.graph.vertices},
    }, True


def _cover_check(cover, ns):
    report = cover.report
    result = {
        "valid": report.ok,
        "sheets": report.sheets,
        "checks": [
            {"name": c.name, "ok": c.ok, **({"witness": c.witness} if c.witness else {})}
            for c in report.checks
        ],
    }
    if report.ok and cover.source.has_lengths:
        inequality = gog.covering_inequality(cover)
        result["inequality"] = {
            "lhs": inequality.lhs,
            "rhs": inequality.rhs,
            "gap": inequality.gap,
            "equality": inequality.equality,
            "ratio": inequality.ratio,
        }
    return result, report.ok


_SOLVER = (
    ("--tol-root", {"type": _tolerance, "default": config.ROOT_TOL}),
    ("--tol-residual", {"type": _tolerance, "default": config.RESIDUAL_TOL}),
)
_DUMP_MATRIX = (("--dump-matrix", {"action": "store_true"}),)
_SAMPLES = (
    ("--samples", {
        "type": _nonnegative, "default": config.SAMPLE_COUNT,
        "help": "random volume-1 metrics checked against the minimum (0 disables)",
    }),
    ("--seed", {"type": _nonnegative, "default": config.SAMPLE_SEED}),
)
_ORACLE = (
    ("--r-max", {
        "type": _positive, "default": config.ORACLE_R_MAX_GRID,
        "help": "radius in integer grid units",
    }),
    ("--base-vertex", {"default": None}),
)
_graph, _gog = documents.graph_from_document, documents.gog_from_document

# subcommand: (handler, document parser, help text, options besides --format)
_COMMANDS = {
    "validate": (
        _validate, _graph, "check the standing hypotheses for entropy operations", (),
    ),
    "volume": (_volume, _graph, "total length of the unoriented edges", ()),
    "entropy": (
        _entropy, _graph, "solve for the volume entropy and its fixed-point vector",
        _SOLVER + _DUMP_MATRIX,
    ),
    "minimize": (
        _minimize, _graph, "closed-form minimal entropy and minimizing metric",
        _SOLVER + _SAMPLES,
    ),
    "oracle": (_oracle, _graph, "exact path counts and a growth-rate estimate", _ORACLE),
    "reduce": (_reduce, _graph, "eliminate valency-2 vertices", ()),
    "gog-entropy": (
        _gog_entropy, _gog, "entropy of a graph of groups", _SOLVER + _DUMP_MATRIX,
    ),
    "gog-minimize": (
        _gog_minimize, _gog, "minimal entropy and metric of a graph of groups", (),
    ),
    "cover-check": (
        _cover_check, documents.cover_from_document,
        "verify an n-sheeted covering and its entropy inequality", (),
    ),
}

# Checked in order: the first matching class gives the exit status.
_EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (DocumentError, EXIT_USAGE),
    (GraphError, EXIT_INVALID),
    (ConvergenceError, EXIT_NUMERICAL),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="volentropy", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", type=Path, help="input document")
        p.add_argument("--format", choices=("human", "structured"), default="human")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        handler, parse_document, _, _ = _COMMANDS[ns.subcommand]
        result, ok = handler(parse_document(documents.load_document(ns.input)), ns)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        label = "usage error" if isinstance(exc, UsageError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    _emit(ns, result)
    return EXIT_OK if ok else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
