"""Regenerate perfbench/reference.json, the values the workloads check against.

    python3 perfbench/make_reference.py

Closed forms are written as formulas evaluated here.  Each value carries the
tolerance it is checked at.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

LOG2 = math.log(2)
LOG6 = math.log(6)

ORACLE_REL_TOL = 0.02  # criterion 3's tolerance, for the CLI's growth estimate


def main() -> None:
    reference = {
        "schema_version": 1,
        "about": (
            "Reference values the benchmark checks outputs against; regenerate "
            "with perfbench/make_reference.py. h_min values are closed forms "
            "(1/2 * sum over vertices of (k+1) log k)."
        ),
        "sweep": {
            "h_min": {
                "theta": {"value": 3 * LOG2, "formula": "3 log 2", "abs_tol": 1e-9},
                "k4": {"value": 6 * LOG2, "formula": "6 log 2", "abs_tol": 1e-9},
                "k34": {"value": 6 * LOG6, "formula": "6 log 6", "abs_tol": 1e-9},
                "dumbbell": {"value": 3 * LOG2, "formula": "3 log 2", "abs_tol": 1e-9},
            },
            "blend_above_min_tol": 1e-3,
            "cover_rhs": {"value": 6 * LOG2, "formula": "2 sheets * 3 log 2 (dumbbell minimum)", "rel_tol": 1e-9},
        },
        "large": {
            "residual_tol": 1e-9,
            "cubic_h_vol_min_per_vertex": {"value": 1.5 * LOG2, "formula": "(1/2) * 3 log 2", "rel_tol": 1e-9},
            "h_bounds": "log 2 / l_max <= h <= log 2 / l_min for graphs with all valencies 3",
        },
        "cli": {
            "validate": {"key": "ok", "value": True},
            "entropy": {"key": "h", "value": LOG2, "abs_tol": 1e-9},
            "minimize": {"key": "h_min", "value": 6 * LOG2, "abs_tol": 1e-9},
            "oracle": {"key": "h_est", "value": LOG2, "rel_tol": ORACLE_REL_TOL},
            "gog-entropy": {"key": "h", "value": LOG2, "abs_tol": 1e-9},
            "gog-minimize": {"key": "h_min", "value": 0.5 * LOG6, "abs_tol": 1e-9},
            "cover-check": {"key": "inequality.lhs", "value": 6 * LOG2, "abs_tol": 1e-9},
        },
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
