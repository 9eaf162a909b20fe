"""Command-line front end.

One input document per invocation; results go to stdout either as a
human-readable report or as a single JSON document with a schema_version
field.  Exit status: 0 success, 1 invalid graph or failed validation,
2 numerical failure, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import config, documents, entropy, gog, optimizer, oracle, spectral
from .errors import ConvergenceError, DocumentError, GraphError
from .graph import MetricGraph, series_reduce, validate_entropy_hypotheses, volume

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


@dataclass
class RunConfig:
    subcommand: str
    input_path: Path
    tol_root: float = config.ROOT_TOL
    tol_residual: float = config.RESIDUAL_TOL
    r_max: int = config.ORACLE_R_MAX_GRID
    samples: int = config.SAMPLE_COUNT
    seed: int = config.SAMPLE_SEED
    output_format: str = "human"
    dump_matrix: bool = False
    base_vertex: str | None = None


def _build_parser() -> _Parser:
    parser = _Parser(prog="volentropy", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {
        "validate": "check the standing hypotheses for entropy operations",
        "volume": "total length of the unoriented edges",
        "entropy": "solve for the volume entropy and its fixed-point vector",
        "minimize": "closed-form minimal entropy and minimizing metric",
        "oracle": "exact path counts and a growth-rate estimate",
        "reduce": "eliminate valency-2 vertices",
        "gog-entropy": "entropy of a graph of groups",
        "gog-minimize": "minimal entropy and metric of a graph of groups",
        "cover-check": "verify an n-sheeted covering and its entropy inequality",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", type=Path, help="input document")
        p.add_argument("--format", choices=("human", "structured"), default="human")
        p.add_argument("--tol-root", type=float, default=config.ROOT_TOL)
        p.add_argument("--tol-residual", type=float, default=config.RESIDUAL_TOL)
        if name == "oracle":
            p.add_argument(
                "--r-max", type=int, default=config.ORACLE_R_MAX_GRID,
                help="radius in integer grid units",
            )
            p.add_argument("--base-vertex", default=None)
        if name == "minimize":
            p.add_argument(
                "--samples", type=int, default=config.SAMPLE_COUNT,
                help="random volume-1 metrics checked against the minimum (0 disables)",
            )
            p.add_argument("--seed", type=int, default=config.SAMPLE_SEED)
        if name in ("entropy", "gog-entropy"):
            p.add_argument("--dump-matrix", action="store_true")
    return parser


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(subcommand=ns.subcommand, input_path=ns.input)
    cfg.output_format = ns.format
    cfg.tol_root = ns.tol_root
    cfg.tol_residual = ns.tol_residual
    if cfg.tol_root <= 0 or cfg.tol_residual <= 0:
        raise UsageError("tolerances must be positive")
    for name in ("r_max", "samples", "seed", "base_vertex"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if cfg.r_max <= 0:
        raise UsageError("--r-max must be positive")
    if cfg.samples < 0:
        raise UsageError("--samples must be nonnegative")
    if cfg.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if getattr(ns, "dump_matrix", False):
        cfg.dump_matrix = True
    return cfg


def _fmt(value):
    if isinstance(value, Fraction):
        return documents.format_rational(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit(cfg: RunConfig, result: dict) -> None:
    if cfg.output_format == "structured":
        payload = {"schema_version": SCHEMA_VERSION, "subcommand": cfg.subcommand}
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


def _load_graph(cfg: RunConfig) -> MetricGraph:
    return documents.graph_from_document(documents.load_document(cfg.input_path))


def _solution_result(solution: entropy.EntropySolution) -> dict:
    return {
        "h": solution.h,
        "vector": dict(sorted(solution.vector.items())),
        "residual": solution.residual,
        "bracket": list(solution.bracket),
        "iterations": solution.iterations,
    }


def _matrix_dump(system: spectral.EdgeSystem, h: float) -> list[str]:
    ids, lengths = system.edge_ids, system.lengths.tolist()
    return [
        f"{ids[i]} {ids[j]} {v * math.exp(-h * lengths[j])!r}"
        for i, j, v in zip(system.rows.tolist(), system.cols.tolist(), system.vals.tolist())
    ]


def _run_validate(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    report = validate_entropy_hypotheses(g)
    result = {
        "ok": report.ok,
        "connected": report.connected,
        "no_terminal_vertex": report.no_terminal_vertex,
        "not_single_cycle": report.not_single_cycle,
    }
    if not report.connected:
        result["components"] = [list(c) for c in report.components]
    if report.terminal_vertices:
        result["terminal_vertices"] = list(report.terminal_vertices)
    if report.cycle_witness:
        result["witness"] = report.cycle_witness
    _emit(cfg, result)
    return EXIT_OK if report.ok else EXIT_INVALID


def _run_volume(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    _emit(cfg, {"volume": volume(g)})
    return EXIT_OK


def _run_entropy(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    solution = entropy.volume_entropy(
        g, root_tol=cfg.tol_root, residual_tol=cfg.tol_residual
    )
    result = _solution_result(solution)
    if cfg.dump_matrix:
        result["matrix"] = _matrix_dump(spectral.edge_system(g), solution.h)
    _emit(cfg, result)
    return EXIT_OK


def _run_minimize(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    result_obj = optimizer.minimize_with_reduction(g)
    result = {
        "h_min": result_obj.h_min,
        "lengths": dict(sorted(result_obj.lengths.items())),
        "perron": dict(sorted(result_obj.perron.items())),
        "z": dict(sorted(result_obj.z.items())),
        "canonical": result_obj.canonical,
    }
    if result_obj.chains is not None:
        result["chains"] = {
            cid: list(chain) for cid, chain in sorted(result_obj.chains.items())
        }
        result["chain_totals"] = dict(sorted(result_obj.chain_totals.items()))
    if cfg.samples:
        worst = None
        for lengths in optimizer.sample_normalized_metrics(g, cfg.samples, cfg.seed):
            h = entropy.volume_entropy(
                g.with_lengths(lengths),
                root_tol=cfg.tol_root,
                residual_tol=cfg.tol_residual,
            ).h
            worst = h if worst is None else min(worst, h)
        result["samples"] = cfg.samples
        result["min_sampled_h"] = worst
        result["all_samples_above_minimum"] = bool(worst >= result_obj.h_min - 1e-9)
    _emit(cfg, result)
    return EXIT_OK


def _run_oracle(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    x0 = cfg.base_vertex or g.vertices[0]
    if x0 not in g.vertices:
        raise GraphError(f"unknown base vertex {x0!r}")
    denominator = math.lcm(*(v.denominator for v in g.lengths.values()))
    r_max = Fraction(cfg.r_max, denominator)
    estimate = oracle.estimate_entropy(g, x0, r_max)
    _emit(cfg, {
        "base_vertex": x0,
        "r_grid": [str(r) for r in estimate.grid],
        "counts": [str(c) for c in estimate.counts],
        "h_est": estimate.h_est,
        "error_band": estimate.band,
    })
    return EXIT_OK


def _run_reduce(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    reduced, chains = series_reduce(g)
    _emit(cfg, {
        "graph": documents.graph_to_document(reduced),
        "chains": {cid: list(chain) for cid, chain in sorted(chains.items())},
    })
    return EXIT_OK


def _load_gog(cfg: RunConfig) -> gog.GraphOfGroups:
    return documents.gog_from_document(documents.load_document(cfg.input_path))


def _run_gog_entropy(cfg: RunConfig) -> int:
    weighted = _load_gog(cfg)
    solution = gog.gog_entropy(
        weighted, root_tol=cfg.tol_root, residual_tol=cfg.tol_residual
    )
    result = _solution_result(solution)
    result["degrees"] = {x: gog.degree(weighted, x) for x in weighted.graph.vertices}
    if cfg.dump_matrix:
        orders = (weighted.vertex_order, weighted.edge_order)
        result["matrix"] = _matrix_dump(
            spectral.edge_system(weighted.graph, orders), solution.h
        )
    _emit(cfg, result)
    return EXIT_OK


def _run_gog_minimize(cfg: RunConfig) -> int:
    weighted = _load_gog(cfg)
    minimal = gog.gog_minimal_metric(weighted)
    _emit(cfg, {
        "h_min": minimal.h_min,
        "lengths": dict(sorted(minimal.lengths.items())),
        "degrees": {x: gog.degree(weighted, x) for x in weighted.graph.vertices},
    })
    return EXIT_OK


def _run_cover_check(cfg: RunConfig) -> int:
    cover = documents.cover_from_document(documents.load_document(cfg.input_path))
    report = gog.check_covering(cover)
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
    _emit(cfg, result)
    return EXIT_OK if report.ok else EXIT_INVALID


_HANDLERS = {
    "validate": _run_validate,
    "volume": _run_volume,
    "entropy": _run_entropy,
    "minimize": _run_minimize,
    "oracle": _run_oracle,
    "reduce": _run_reduce,
    "gog-entropy": _run_gog_entropy,
    "gog-minimize": _run_gog_minimize,
    "cover-check": _run_cover_check,
}


def run(cfg: RunConfig) -> int:
    try:
        return _HANDLERS[cfg.subcommand](cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
