"""The three workloads.  Each is a closed loop with one caller: an operation
starts only after the previous one returned.

A workload is a sequence of blocks.  Block ``b`` holds a fixed mix of
operations whose inputs come from ``(seed, b)`` alone, and the harness stops
only at block boundaries, so every run measures the same mix of operation
kinds.  Each operation's output is checked against reference.json (or a
closed form) after its timer stops.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import volentropy as ve
from volentropy import documents

from generators import (
    circular_ladder_doc,
    complete_bipartite_doc,
    complete_doc,
    dumbbell_doc,
    dumbbell_double_cover_doc,
    random_cubic_doc,
    rng_for,
    theta_doc,
)
from tracer import Span

HERE = Path(__file__).resolve().parent
LOG2 = math.log(2)
WARMUP_BLOCK = 2**31 - 1


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises on a wrong output


class Workload:
    name = ""
    # Seconds one block takes on the reference machine; sets how many blocks
    # a traced run replays, so that its counts depend on the seed alone.
    nominal_block_s = 1.0
    # Whose peak resident set is reported: this process or its children.
    rss_of = "self"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.tracer = None  # set by the harness for a traced run

    def setup(self) -> None:
        """Everything an operation needs before the first one runs."""

    def block(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        """One operation from a block the measured loop never reaches."""
        return self.block(WARMUP_BLOCK)[0]

    def trace_blocks(self, seconds: float) -> int:
        return max(1, round(seconds / (2 * self.nominal_block_s)))


# -- sweep -------------------------------------------------------------------


class Sweep(Workload):
    """The paper's minimality experiment (criteria 4 and 8, minimize --samples).

    An operation computes the closed-form minimizer, draws a Dirichlet
    volume-1 metric with the program's sampler, and solves at the blend
    (1 - t) * minimizer + t * sample, which has volume 1: t = SPREAD for
    the sample solves, t = 0.001 for the near-minimum solve of criterion 4.
    Cover operations evaluate the covering inequality of the dumbbell's
    double cover at metrics perturbed by up to 30 % (as criterion 8 does
    for theta's double cover).

    Two inputs are left out because the program's power iteration stalls
    on them for 500000 steps per evaluation, longer than a run may take:
    plain Dirichlet samples (t = 1) of K3,4, about 1 in 250 of which stall
    at every evaluation (about 240 s per solve), and perturbed metrics of
    theta's double cover, which is bipartite like K3,4 and stalls at one or
    two evaluations in about 1 of 30 (5 s to more than 120 s).  baseline.py
    reproduces both.
    """

    name = "sweep"
    nominal_block_s = 1.4
    SPREAD = 0.5
    NEAR_MIN = 0.001
    # Sample solves per block and graph, then one near-minimum solve each.
    SAMPLES = {"theta": 2, "k4": 3, "k34": 3, "dumbbell": 2}
    COVERS = 3
    GRAPHS = {
        "theta": theta_doc,
        "k4": lambda: complete_doc(4),
        "k34": lambda: complete_bipartite_doc(3, 4),
        "dumbbell": dumbbell_doc,
    }

    def setup(self) -> None:
        ref = self.reference["sweep"]
        self.h_min = {name: ref["h_min"][name]["value"] for name in self.GRAPHS}
        self.h_min_tol = {name: ref["h_min"][name]["abs_tol"] for name in self.GRAPHS}
        self.near_min_tol = ref["blend_above_min_tol"]
        self.rhs = ref["cover_rhs"]["value"]
        self.rhs_tol = ref["cover_rhs"]["rel_tol"]
        self.graphs = {name: ve.build_graph(make()) for name, make in self.GRAPHS.items()}
        self.cover = documents.cover_from_document(dumbbell_double_cover_doc())
        self.cover_ids = self.cover.source.graph.unoriented_ids

    def block(self, index: int) -> list[Op]:
        rng = rng_for(self.seed, index)
        ops = []
        for name, g in self.graphs.items():
            count = self.SAMPLES[name]
            sampler = ve.sample_normalized_metrics(g, count + 1, seed=int(rng.integers(2**32)))
            for _ in range(count):
                ops.append(Op(name, self._solve(g, sampler, self.SPREAD), self._check(name, math.inf)))
            ops.append(Op(f"{name}-near-min", self._solve(g, sampler, self.NEAR_MIN),
                          self._check(name, self.near_min_tol)))
        for _ in range(self.COVERS):
            raw = (1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=len(self.cover_ids))) / len(self.cover_ids)
            raw /= raw.sum()
            lengths = dict(zip(self.cover_ids, (float(v) for v in raw)))
            ops.append(Op("cover", self._cover(lengths), self._cover_check))
        return ops

    @staticmethod
    def _solve(g, sampler, t):
        def run():
            minimal = ve.minimal_metric(g)
            sample = next(sampler)
            blend = {e: (1 - t) * length + t * sample[e] for e, length in minimal.lengths.items()}
            return minimal.h_min, ve.volume_entropy(g.with_lengths(blend)).h

        return run

    def _check(self, name, above):
        h_ref, tol = self.h_min[name], self.h_min_tol[name]

        def check(out):
            h_min, h = out
            expect(abs(h_min - h_ref) <= tol, f"{name}: closed-form minimum {h_min}")
            expect(math.isfinite(h) and h_ref - tol <= h <= h_ref + above, f"{name}: h={h}")

        return check

    def _cover(self, lengths):
        return lambda: ve.covering_inequality(self.cover, lengths)

    def _cover_check(self, report) -> None:
        expect(abs(report.rhs - self.rhs) <= self.rhs_tol * self.rhs, f"cover rhs={report.rhs}")
        expect(report.gap > 0 and not report.equality, f"cover gap={report.gap}")
        expect(report.lhs > self.rhs, f"cover lhs={report.lhs}")


# -- large -------------------------------------------------------------------


class Large(Workload):
    """Solves of big sparse graphs: random cubic graphs (fast mixing) and
    circular ladders (slow mixing).  An operation builds the graph from its
    document and solves it; the fixed-point check runs after the timer."""

    name = "large"
    nominal_block_s = 2.9
    # The median falls among the ladders and 2000-vertex graphs; the
    # 4000-vertex graphs, whose cost varies least between seeds, hold the
    # tail percentile.
    BLOCK = (
        ("cubic", 1000),
        ("ladder", 16),
        ("ladder", 16),
        ("cubic", 2000),
        ("cubic", 2000),
        ("cubic", 4000),
        ("cubic", 4000),
    )

    def setup(self) -> None:
        ref = self.reference["large"]
        self.residual_tol = ref["residual_tol"]
        self.h_vol_per_vertex = ref["cubic_h_vol_min_per_vertex"]["value"]
        self.h_vol_tol = ref["cubic_h_vol_min_per_vertex"]["rel_tol"]

    def block(self, index: int) -> list[Op]:
        rng = rng_for(self.seed, index)
        ops = []
        for kind, size in self.BLOCK:
            make = random_cubic_doc if kind == "cubic" else circular_ladder_doc
            doc = make(size, rng)
            ops.append(Op(f"{kind}-{size}", self._solve(doc), self._check(doc)))
        return ops

    @staticmethod
    def _solve(doc):
        def run():
            g = ve.build_graph(doc)
            return g, ve.volume_entropy(g)

        return run

    def _check(self, doc):
        lengths = [Fraction(e["length"]) for e in doc["edges"]]
        vol = float(sum(lengths))
        l_min, l_max = float(min(lengths)), float(max(lengths))
        n = len(doc["vertices"])

        def check(out):
            g, solution = out
            h = solution.h
            # Every vertex has valency 3: growth lies between 2^(r/l_max)
            # and 2^(r/l_min), and h * vol is at least the closed-form minimum.
            expect(LOG2 / l_max * (1 - 1e-9) <= h <= LOG2 / l_min * (1 + 1e-9), f"h={h} out of bounds")
            expect(h * vol >= n * self.h_vol_per_vertex * (1 - self.h_vol_tol), f"h*vol={h * vol} below minimum")
            residual = ve.verify_fixed_point(g, h, solution.vector).max_residual
            expect(residual <= self.residual_tol, f"fixed-point residual {residual:.3e}")

        return check


# -- cli ---------------------------------------------------------------------


class Cli(Workload):
    """One ``python -m volentropy.cli`` process per operation on a fixture
    document; each block runs every subcommand once, in a seeded order."""

    name = "cli"
    nominal_block_s = 3.8
    rss_of = "children"
    CASES = (
        ("validate", "theta.yaml", ()),
        ("entropy", "theta.yaml", ()),
        ("minimize", "k4.yaml", ("--samples", "0")),
        ("oracle", "theta.yaml", ("--r-max", "40")),
        ("gog-entropy", "segment33.yaml", ()),
        ("gog-minimize", "segment34.yaml", ()),
        ("cover-check", "cover.yaml", ()),
    )

    def setup(self) -> None:
        self.root = HERE.parent
        self.expected = self.reference["cli"]
        # Parse every fixture once with the library, so a broken fixture
        # fails here instead of as a failed operation.
        loaders = {"gog-entropy": documents.gog_from_document, "gog-minimize": documents.gog_from_document,
                   "cover-check": documents.cover_from_document}
        for sub, fixture, _ in self.CASES:
            loaders.get(sub, documents.graph_from_document)(documents.load_document(HERE / "fixtures" / fixture))
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def block(self, index: int) -> list[Op]:
        rng = rng_for(self.seed, index)
        return [self._op(*self.CASES[i]) for i in rng.permutation(len(self.CASES)).tolist()]

    def _op(self, sub, fixture, extra):
        args = [sub, str(Path("perfbench") / "fixtures" / fixture), *extra, "--format", "structured"]

        def run():
            if self.tracer is None:
                done = subprocess.run(
                    [sys.executable, "-m", "volentropy.cli", *args],
                    cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
                )
                return done.returncode, done.stdout
            return self._traced_run(args)

        return Op(sub, run, self._check(sub))

    def _traced_run(self, args):
        """Run the CLI under perfbench/cli_child.py and adopt its spans."""
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), *args],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        marker = "PERFBENCH_TRACE "
        line = next((ln for ln in reversed(done.stderr.splitlines()) if ln.startswith(marker)), None)
        if line is None:
            raise RuntimeError(f"traced CLI child wrote no trace: {done.stderr[-500:]}")
        child = json.loads(line[len(marker):])
        spans = [Span("cli.interpreter", spawned, child["started"], -1)]
        spans.append(Span("cli.import", *child["import"], -1))
        offset = len(spans)
        for name, start, end, parent, data in child["spans"]:
            spans.append(Span(name, start, end, parent + offset if parent >= 0 else -1, data))
        self.tracer.adopt(spans)
        return done.returncode, done.stdout

    def _check(self, sub):
        expected = self.expected[sub]

        def check(out):
            code, stdout = out
            expect(code == 0, f"{sub}: exit status {code}")
            doc = json.loads(stdout)
            value = doc
            for key in expected["key"].split("."):
                value = value[key]
            want = expected["value"]
            if isinstance(want, bool):
                expect(value is want, f"{sub}: {expected['key']}={value}")
            elif "rel_tol" in expected:
                expect(abs(value - want) <= expected["rel_tol"] * abs(want), f"{sub}: {expected['key']}={value}")
            else:
                expect(abs(value - want) <= expected["abs_tol"], f"{sub}: {expected['key']}={value}")
            if sub == "cover-check":
                expect(doc["valid"] is True and doc["sheets"] == 2, f"cover-check: {doc.get('checks')}")
                expect(doc["inequality"]["equality"] is True, "cover-check: equality case not recognised")

        return check


WORKLOADS = {w.name: w for w in (Sweep, Large, Cli)}
