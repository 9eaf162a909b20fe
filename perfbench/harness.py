"""Measurement loop, statistics, layer reduction and the result line."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import volentropy
from tracer import Tracer, span_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_VERSION = 1
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency
# Hard limit on one measured loop.  A run must end within 180 s, and on a
# few inputs the program's power iteration runs 500000 steps per evaluation;
# an operation still running at this limit is stopped and counted as failed.
LOOP_LIMIT_S = 120.0


class OperationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OperationTimeout(f"operation stopped: the loop reached its {LOOP_LIMIT_S:.0f} s limit")


@dataclass
class Sample:
    kind: str
    seconds: float
    error: str | None
    block: int


def measure(workload, seconds: float, *, blocks: int | None = None,
            tracer: Tracer | None = None, deadline: float | None = None):
    """Run whole blocks until ``seconds`` have passed (or ``blocks`` ran).

    Only the operation itself is timed; input generation, checks and the
    garbage collection between blocks are not.  No operation runs past
    ``deadline`` (a time.perf_counter() value, by default LOOP_LIMIT_S
    from now).
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    if deadline is None:
        deadline = start + LOOP_LIMIT_S
    index = 0
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        while True:
            done = _measure_block(workload, index, deadline, tracer, samples)
            index += 1
            if not done:
                break
            if blocks is not None:
                if index >= blocks:
                    break
            elif time.perf_counter() - start >= seconds:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return samples, index


def _measure_block(workload, index, deadline, tracer, samples) -> bool:
    """Run one block; False when the loop's time limit cut it short."""
    ops = workload.block(index)
    gc.collect()
    for op in ops:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return False
        root = tracer.begin("op") if tracer is not None else -1
        signal.setitimer(signal.ITIMER_REAL, remaining)
        t0 = time.perf_counter()
        error = None
        try:
            out = op.run()
        except Exception as exc:  # a raising operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end(root)
        if error is None:
            try:
                op.check(out)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        samples.append(Sample(op.kind, elapsed, error, index))
    return True


def tail_latency(seconds: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import the program and set the
    workload up, measured from spawn to exit."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
        out.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return out


def peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(which).ru_maxrss / 1024.0  # kB on Linux


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": None,
        "pyyaml": None,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    for name in ("scipy", "yaml"):
        try:
            module = __import__(name)
            info["pyyaml" if name == "yaml" else name] = module.__version__
        except ImportError:
            pass
    return info


def e2e_metrics(samples, setup, rss) -> dict:
    seconds = [s.seconds for s in samples]
    failed = sum(1 for s in samples if s.error)
    tail, _ = tail_latency(seconds)
    return {
        "setup_s": (statistics.median(setup), "s"),
        # Over whole blocks, each with the same mix of kinds.
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(seconds), "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "success_rate": ((len(samples) - failed) / len(samples), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }


LIBRARY_SPANS = tuple(
    name for layer in ("graph", "spectral", "entropy", "optimizer", "oracle", "gog", "documents", "cli")
    for name in span_names(layer)
) + ("cli.interpreter", "cli.import")


def layer_metrics(tracer: Tracer, traced: list[Sample], untraced: list[Sample]) -> dict:
    """Layer numbers from the spans under each "op" root.

    Times are shares of the traced operations' time, so a layer that a
    workload never calls reads 0 % rather than a constant 0 ms; trace.op_ms
    converts a share back to milliseconds per operation.  Counts are per
    operation unless the name says otherwise.
    """
    spans = tracer.spans
    in_op = tracer.under("op")
    roots = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "op"]
    ops = len(roots)
    duration = [s.end - s.start for s in spans]
    self_time = tracer.self_times()
    op_seconds = sum(duration[i] for i in roots)

    def named(*names):
        return [i for i, s in enumerate(spans) if in_op[i] and s.name in names]

    def pct(*names):
        """Share of operation time inside the outermost spans named."""
        return 100.0 * sum(duration[i] for i in tracer.outermost(names) if in_op[i]) / op_seconds

    solves = named("entropy.volume_entropy", "gog.gog_entropy")
    power = named("spectral.power_iteration")
    iterations = sum(spans[i].data["iterations"] for i in power)
    oracle_calls = named("oracle.count_paths", "oracle.estimate_entropy")
    cells = sum(spans[i].data.get("cells", 0) for i in oracle_calls)
    oracle_seconds = sum(duration[i] for i in tracer.outermost(
        ("oracle.count_paths", "oracle.estimate_entropy")) if in_op[i])
    entropy_self = sum(self_time[i] for i, s in enumerate(spans) if in_op[i] and s.name.startswith("entropy."))
    traced_p50 = statistics.median(s.seconds for s in traced)
    untraced_p50 = statistics.median(s.seconds for s in untraced)
    return {
        "entropy.evaluations_per_solve": (
            sum(spans[i].data["evaluations"] for i in solves) / len(solves) if solves else 0.0, "count"),
        "entropy.solve_pct": (pct("entropy.volume_entropy", "gog.gog_entropy"), "%"),
        "entropy.self_pct": (100.0 * entropy_self / op_seconds, "%"),
        "spectral.power_calls": (len(power) / ops, "count"),
        "spectral.power_iters_per_call": (iterations / len(power) if power else 0.0, "count"),
        "spectral.power_pct": (pct("spectral.power_iteration"), "%"),
        "spectral.matvec_flops": (
            sum(2 * spans[i].data["nnz"] * spans[i].data["iterations"] for i in power) / ops, "flop"),
        "spectral.assemble_calls": (len(named("spectral.assemble")) / ops, "count"),
        "spectral.assemble_pct": (pct("spectral.assemble"), "%"),
        "spectral.irreducible_pct": (pct("spectral.is_irreducible", "spectral.strongly_connected_components"), "%"),
        "graph.build_pct": (pct("graph.build_graph", "graph.from_unoriented", "graph.with_lengths"), "%"),
        "graph.validate_pct": (pct("graph.validate_entropy_hypotheses"), "%"),
        "gog.entropy_pct": (pct("gog.gog_entropy"), "%"),
        "gog.check_covering_pct": (pct("gog.check_covering"), "%"),
        "gog.inequality_pct": (pct("gog.covering_inequality"), "%"),
        "optimizer.minimal_metric_pct": (pct("optimizer.minimal_metric"), "%"),
        "optimizer.sample_pct": (pct("optimizer.sample_normalized_metrics"), "%"),
        "oracle.cells": (cells / ops, "count"),
        "oracle.cells_per_s": (cells / oracle_seconds if oracle_seconds else 0.0, "1/s"),
        "oracle.estimate_pct": (pct("oracle.estimate_entropy"), "%"),
        "documents.load_pct": (pct(*span_names("documents")), "%"),
        "cli.interpreter_pct": (pct("cli.interpreter"), "%"),
        "cli.import_pct": (pct("cli.import"), "%"),
        "cli.handler_pct": (pct("cli.main"), "%"),
        "trace.ops": (float(ops), "count"),
        "trace.op_ms": (1000.0 * op_seconds / ops, "ms"),
        "trace.attributed_pct": (pct(*LIBRARY_SPANS), "%"),
        "trace.overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
    }


def by_kind(samples: list[Sample]) -> dict:
    kinds: dict[str, list[Sample]] = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s)
    return {
        kind: {
            "count": len(group),
            "failed": sum(1 for s in group if s.error),
            "p50_ms": 1000.0 * statistics.median(s.seconds for s in group),
            "max_ms": 1000.0 * max(s.seconds for s in group),
        }
        for kind, group in sorted(kinds.items())
    }


def run(args) -> int:
    src = (ROOT / "src").resolve()
    if src not in Path(volentropy.__file__).resolve().parents:
        print(f"error: imported volentropy from {volentropy.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    if args.setup_probe:
        return 0

    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "machine": machine_info(),
        "threads": {var: os.environ.get(var) for var in sorted(
            v for v in os.environ if v.endswith("_NUM_THREADS") or v == "VECLIB_MAXIMUM_THREADS")},
        "warmup_error": None,
    }
    # The warm-up is not counted: a broken program fails the measured
    # operations too, and they are what the result reports.
    warm = workload.warmup()
    try:
        warm.check(warm.run())
    except Exception as exc:
        report["warmup_error"] = f"{type(exc).__name__}: {exc}"
    if args.trace:
        blocks = workload.trace_blocks(args.seconds)
        deadline = time.perf_counter() + LOOP_LIMIT_S
        untraced, _ = measure(workload, args.seconds, blocks=blocks, deadline=deadline)
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            samples, _ = measure(workload, args.seconds, blocks=blocks, tracer=tracer, deadline=deadline)
        finally:
            workload.tracer = None
            tracer.uninstall()
        metrics = layer_metrics(tracer, samples, untraced)
        report["blocks"] = blocks
        report["untraced_p50_ms"] = 1000.0 * statistics.median(s.seconds for s in untraced)
        report["traced_p50_ms"] = 1000.0 * statistics.median(s.seconds for s in samples)
        samples = samples + untraced
    else:
        samples, blocks = measure(workload, args.seconds)
        rss = peak_rss_mb(workload.rss_of)
        setup = setup_seconds(args)
        metrics = e2e_metrics(samples, setup, rss)
        _, percentile = tail_latency([s.seconds for s in samples])
        report["blocks"] = blocks
        report["setup_runs_s"] = setup
        report["tail"] = {
            "percentile": percentile,
            "samples": len(samples),
            "beyond": TAIL_BEYOND if len(samples) > TAIL_BEYOND else 0,
        }
        report["peak_rss_of"] = workload.rss_of

    failed = sum(1 for s in samples if s.error)
    report["by_kind"] = by_kind(samples)
    report["errors"] = sorted({s.error for s in samples if s.error})[:20]
    report["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0
