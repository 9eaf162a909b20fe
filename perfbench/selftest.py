"""Fast self-test of the harness.

    python3 perfbench/selftest.py

Runs every workload on shrunken inputs, untraced and traced, in this
process, and checks: the result line has exactly its four keys; every
metric BENCHMARK.json names is present with its unit and nothing else is;
no operation failed; end-to-end values are positive; a second traced run of
the same seed repeats every count exactly; the traced functions cover most
of the operations' time; every span lies inside its parent.  Finally it
runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without a result.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import run  # noqa: F401  (pins the BLAS/OpenMP pools before numpy loads)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
# Least share of operation time the traced functions must cover.  A CLI
# operation also spends time between import and main and in interpreter
# teardown, which no span covers.
ATTRIBUTED_FLOOR = {"cli": 70.0}


def shrink() -> None:
    workloads.Sweep.SAMPLES = {name: 1 for name in workloads.Sweep.GRAPHS}
    workloads.Sweep.COVERS = 1
    workloads.Large.BLOCK = (("cubic", 100), ("ladder", 6))
    workloads.Cli.CASES = workloads.Cli.CASES[:3] + workloads.Cli.CASES[-1:]


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=0.01, trace=trace,
                              setup_probe=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = harness.run(args)
    lines = out.getvalue().strip().splitlines()
    check(code == 0, f"{workload}: exit status {code}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def spans_nest(workload_name: str) -> None:
    """Every span under an op root, the ones adopted from CLI processes
    included, lies inside its parent span."""
    workload = workloads.WORKLOADS[workload_name](SEED)
    workload.setup()
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        harness.measure(workload, 0.0, blocks=1, tracer=tracer)
    finally:
        workload.tracer = None
        tracer.uninstall()
    spans = tracer.spans
    in_op = tracer.under("op")
    for s, inside in zip(spans, in_op):
        if inside and s.parent >= 0:
            parent = spans[s.parent]
            check(parent.start <= s.start <= s.end <= parent.end,
                  f"{workload_name}: span {s.name} lies outside its parent {parent.name}")


def bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        done = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        check(done.returncode != 0, "benchmark succeeded without the program's sources")
        check(not done.stdout.strip(), "benchmark printed a result without the program's sources")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shrink()
    for w in spec["workloads"]:
        name = w["name"]
        for trace, units in ((0, e2e_units), (1, layer_units)):
            report, result = run_once(name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
            check(result["failed"] == 0 and result["correct"], f"{name}/trace={trace}: {report['errors']}")
            check(result["attempted"] >= 1, f"{name}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units, f"{name}/trace={trace}: metrics {sorted(got)} != {sorted(units)}")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  f"{name}/trace={trace}: non-finite value")
            if trace == 0:
                check(all(v > 0 for v in values), f"{name}: an end-to-end metric is not positive")
                check(report["schema_version"] == harness.SCHEMA_VERSION, "schema version")
                for key in ("nproc", "cpu_model", "caches", "python", "numpy", "scipy"):
                    check(key in report["machine"], f"machine info lacks {key}")
            else:
                attributed = result["metrics"]["trace.attributed_pct"]["value"]
                floor = ATTRIBUTED_FLOOR.get(name, 95.0)
                check(attributed >= floor,
                      f"{name}: traced functions cover {attributed:.1f} % of operation time, below {floor} %")
                _, again = run_once(name, 1)
                for metric, unit in units.items():
                    if unit == "count":
                        check(again["metrics"][metric]["value"] == result["metrics"][metric]["value"],
                              f"{name}: count {metric} differs between identical traced runs")
        spans_nest(name)
        print(f"ok {name}")
    bare_directory_fails()
    print("ok bare directory")


if __name__ == "__main__":
    main()
