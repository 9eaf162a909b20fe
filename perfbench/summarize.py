"""Median and spread of several benchmark runs.

    python3 perfbench/summarize.py RUN_OUTPUT...

Each file holds the standard output of one run of perfbench/run.py.  Runs
are grouped by workload and trace mode.  For every metric it prints the
median and the spread: the distance between the first and third quartile
(statistics.quantiles with n=4) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def load(path: Path) -> tuple[dict, dict]:
    lines = path.read_text().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(paths) -> dict:
    groups: dict[str, list[tuple[dict, dict]]] = {}
    for path in paths:
        report, result = load(Path(path))
        groups.setdefault(f"{report['workload']}/trace={report['trace']}", []).append((report, result))
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name in runs[0][1]["metrics"]:
            values = [result["metrics"][name]["value"] for _, result in runs]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
            metrics[name] = {
                "median": median,
                "spread": spread,
                "unit": runs[0][1]["metrics"][name]["unit"],
                "values": values,
            }
        out[key] = {
            "runs": len(runs),
            "seeds": [report["seed"] for report, _ in runs],
            "failed": sum(result["failed"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            "metrics": metrics,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=Path)
    args = parser.parse_args()
    for key, group in summarize(args.runs).items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, "
              f"{group['failed']} of {group['attempted']} operations failed")
        for name, m in group["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:32s} {m['median']:14.6g} {m['unit']:6s} spread {spread}")


if __name__ == "__main__":
    main()
