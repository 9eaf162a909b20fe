"""Reproduce the roadmap's re-anchor numbers as layer counts and times.

    python3 perfbench/baseline.py [--out perfbench/baseline.json] [--runs RUN_OUTPUT...]

Three measurements, each traced with the benchmark's span tracer:

- ``volentropy minimize`` on theta with the default 200 samples, as a CLI
  process: wall time, time in the sampled solves, evaluations per solve;
- one solve of a random 20000-vertex cubic graph: evaluations and time,
  for unit lengths and for lengths drawn from {1/3, 1/2, 2/3, 1};
- K3,4 at unit lengths and at a seeded Dirichlet metric: power iterations
  per evaluation, overall and for the evaluations within 1e-6 of the root;
- the two stalls that keep inputs out of the sweep workload: a perturbed
  metric of theta's double cover (one covering inequality) and one
  evaluation of a Dirichlet sample of K3,4 near its root.

``--runs`` adds the median and spread of saved benchmark runs (see
summarize.py), so one file holds the baseline of every workload.
"""

from __future__ import annotations

import run  # noqa: F401  (pins the BLAS/OpenMP pools before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import volentropy as ve  # noqa: E402
from volentropy import documents, spectral  # noqa: E402

from generators import complete_bipartite_doc, random_cubic_doc, rng_for  # noqa: E402
from harness import machine_info  # noqa: E402
from summarize import summarize  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, result, seconds


def minimize_theta() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["minimize", str(HERE / "fixtures" / "theta.yaml"), "--format", "structured"]
    t0 = time.perf_counter()
    plain = subprocess.run([sys.executable, "-m", "volentropy.cli", *args],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    traced = subprocess.run([sys.executable, str(HERE / "cli_child.py"), *args],
                            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    line = next(ln for ln in traced.stderr.splitlines() if ln.startswith("PERFBENCH_TRACE "))
    spans = json.loads(line.split(" ", 1)[1])["spans"]
    solves = [s for s in spans if s[0] == "entropy.volume_entropy"]
    power = [s for s in spans if s[0] == "spectral.power_iteration"]
    main = next(s for s in spans if s[0] == "cli.main")
    return {
        "command": "volentropy minimize theta.yaml (200 samples)",
        "wall_s": wall,
        "samples": json.loads(plain.stdout)["samples"],
        "handler_s": main[2] - main[1],
        "sampled_solves_s": sum(s[2] - s[1] for s in solves),
        "solves": len(solves),
        "evaluations_per_solve": sum(s[4]["evaluations"] for s in solves) / len(solves),
        "power_iters_per_call": sum(s[4]["iterations"] for s in power) / len(power),
    }


def cubic_20k() -> dict:
    out = {}
    base = random_cubic_doc(20000, rng_for(0))
    unit = {**base, "edges": [{**e, "length": 1} for e in base["edges"]]}
    for label, doc in (("unit_lengths", unit), ("pool_lengths", base)):
        g = ve.build_graph(doc)
        tracer, solution, seconds = _traced(lambda: ve.volume_entropy(g))
        power = [s for s in tracer.spans if s.name == "spectral.power_iteration"]
        out[label] = {
            "h": solution.h,
            "evaluations": solution.iterations,
            "solve_s": seconds,
            "power_s": sum(s.end - s.start for s in power),
            "power_iters_per_call": sum(s.data["iterations"] for s in power) / len(power),
        }
    return out


def k34_near_root() -> dict:
    g_unit = ve.build_graph(complete_bipartite_doc(3, 4))
    sample = next(iter(ve.sample_normalized_metrics(g_unit, 1, seed=0)))
    out = {}
    for label, g in (("unit_lengths", g_unit), ("dirichlet_seed0", g_unit.with_lengths(sample))):
        tracer, solution, seconds = _traced(lambda: ve.volume_entropy(g))
        # Every evaluation assembles the matrix at h, then iterates on it.
        hs = [s.data["h"] for s in tracer.spans if s.name == "spectral.assemble"]
        iters = [s.data["iterations"] for s in tracer.spans if s.name == "spectral.power_iteration"]
        near = [n for h, n in zip(hs, iters) if abs(h - solution.h) <= 1e-6 * solution.h]
        out[label] = {
            "h": solution.h,
            "evaluations": solution.iterations,
            "solve_s": seconds,
            "power_iters_per_evaluation": sum(iters) / len(iters),
            "power_iters_per_evaluation_near_root": sum(near) / len(near),
            "evaluations_near_root": len(near),
        }
    return out


# A metric of theta's double cover, perturbed by up to 30 % as in
# criterion 8, at which one evaluation of the covering inequality runs the
# power iteration to its shift at 500000 steps.
STALLED_COVER_LENGTHS = {
    "f1": 0.20077028763586582, "f2": 0.15677585064691013, "f3": 0.15580927126475883,
    "f4": 0.20147993713348877, "f5": 0.14158802392915157, "f6": 0.1435766293898248,
}
# The first Dirichlet sample of K3,4 drawn with this seed stalls at every
# evaluation near its root h = 35.437...; its full solve takes about 240 s.
STALLED_K34_SEED = 103663338
STALLED_K34_H = 35.4374


def known_stalls() -> dict:
    cover = documents.cover_from_document(documents.load_document(HERE / "fixtures" / "cover.yaml"))
    tracer, report, seconds = _traced(lambda: ve.covering_inequality(cover, STALLED_COVER_LENGTHS))
    iters = [s.data["iterations"] for s in tracer.spans if s.name == "spectral.power_iteration"]
    g = ve.build_graph(complete_bipartite_doc(3, 4))
    sample = next(iter(ve.sample_normalized_metrics(g, 1, seed=STALLED_K34_SEED)))
    metered = g.with_lengths(sample)
    matrix = ve.weighted_matrix(metered, STALLED_K34_H).entries
    t0 = time.perf_counter()
    _, _, k34_iters, _ = spectral.power_iteration(matrix)
    k34_seconds = time.perf_counter() - t0
    return {
        "theta_double_cover": {
            "lengths": STALLED_COVER_LENGTHS,
            "inequality_s": seconds,
            "gap": report.gap,
            "evaluations": len(iters),
            "power_iters_max": max(iters),
            "evaluations_over_100000_iters": sum(1 for n in iters if n > 100_000),
        },
        "k34_dirichlet": {
            "sampler_seed": STALLED_K34_SEED,
            "length_ratio": max(sample.values()) / min(sample.values()),
            "h": STALLED_K34_H,
            "power_iters": k34_iters,
            "evaluation_s": k34_seconds,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--runs", type=Path, nargs="*", default=[], help="saved outputs of run.py")
    args = parser.parse_args()
    result = {
        "schema_version": 1,
        "machine": machine_info(),
        "roadmap_reanchor": {
            "minimize_theta_s": 10.0,
            "entropy_theta_s": 0.75,
            "cubic_20k_solve_s": 2.7,
            "cubic_20k_evaluations": 43,
            "k34_power_iters_per_evaluation_near_root": 1137,
        },
        "minimize_theta": minimize_theta(),
        "cubic_20k": cubic_20k(),
        "k34": k34_near_root(),
        "known_stalls": known_stalls(),
    }
    if args.runs:
        result["benchmark_runs"] = summarize(args.runs)
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
