#!/usr/bin/env python3
"""Seeded benchmark of ksnet fits and evaluation, driven through `ksnet.cli.main`.

    python3 benchmarks/run.py --workload fit_scatter --seed 1 --seconds 55 --trace 0

Workloads: fit_scatter and fit_grid; README.md says why each exists and which
layer should move which metric.  Every input comes from --seed and
reaches ksnet as a CSV file.  Calls run in-process on one thread as a closed
loop: each call starts when the previous one has returned.

--trace 0 measures the end-to-end metrics with ksnet unpatched.  --trace 1
alternates untraced rounds with rounds traced through spans.py, reports the
per-layer metrics and the tracing overhead, and checks that every count
repeats exactly across the traced rounds.  Both modes check every output.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Files go to .bench_work/ (removed at exit)
and .bench_out/ (span dumps of traced runs) in the repository root.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import inputs
from inputs import D, GAMMA

ROOT = Path(__file__).resolve().parent.parent
DEPTH = 30
FAST_TOLERANCE = Fraction(1, 10**9)  # the fast-path tolerance of acceptance criterion 01
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    samples: Callable[[random.Random], list]
    fit_flags: tuple[str, ...]
    retries: int  # depth retries and final depth the input forces on the fit
    depth: int


WORKLOADS = {
    "fit_scatter": Workload(samples=inputs.scatter_points, fit_flags=(), retries=1, depth=60),
    "fit_grid": Workload(
        samples=inputs.grid_points,
        fit_flags=("--mode", "iterative", "--grid-level", str(inputs.GRID_LEVEL)),
        retries=0,
        depth=30,
    ),
}
FRESH_QUERIES = 160  # eval stage: new random points, which interpolate between knots
FITTED_QUERIES = 40  # and fitted sample points, which hit knots


class Ledger:
    """Operations attempted and failed; an operation fails if any of its checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Timings:
    setup_s: list[float] = field(default_factory=list)
    fit_s: list[float] = field(default_factory=list)
    exact_s: list[float] = field(default_factory=list)
    fast_s: list[float] = field(default_factory=list)
    # per round, {query row: µs} of the library calls
    exact_us: list[dict[int, float]] = field(default_factory=list)
    fast_us: list[dict[int, float]] = field(default_factory=list)
    bound: list[tuple[int, int]] = field(default_factory=list)  # (misses, fast answers) per round


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _fast_problems(values, exact) -> list[str]:
    bad = sum(not math.isfinite(w) for w in values)
    if bad:
        return [f"{bad} non-finite fast values"]
    if exact is None:  # the exact run failed, and that failure is already counted
        return []
    far = sum(abs(Fraction(w) - x) > FAST_TOLERANCE for w, x in zip(values, exact))
    return [f"{far} fast values more than 1e-9 from exact"] if far else []


class Bench:
    """One workload's inputs, checks and timings inside a scratch directory."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        rng = random.Random(seed)
        self.samples = wl.samples(rng)
        self.queries, self.expected = inputs.queries(
            rng, self.samples, FRESH_QUERIES, FITTED_QUERIES
        )
        self.samples_csv = work / "samples.csv"
        self.queries_csv = work / "queries.csv"
        self.model = work / "model.json"
        self.report = work / "fit.json"
        self.exact_csv = work / "exact.csv"
        self.fast_csv = work / "fast.csv"
        inputs.write_samples(self.samples_csv, self.samples)
        inputs.write_points(self.queries_csv, self.queries)
        self.model_bytes: bytes | None = None
        self.ledger = Ledger()
        self.t = Timings()

    def cli(self, argv: list[str]):
        """Exit code and wall seconds of one `ksnet` invocation."""
        cli = sys.modules["ksnet.cli"]
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = "an uncaught exception"
        return rc, perf_counter() - start

    def set_up(self) -> None:
        """The ksnet calls made before a round's timed work: params and inner spec."""
        ksnet = sys.modules["ksnet"]
        start = perf_counter()
        ksnet.make_params(D, GAMMA)
        ksnet.default_inner_spec(GAMMA)
        self.t.setup_s.append(perf_counter() - start)

    def fit(self) -> float:
        self.model.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        rc, seconds = self.cli(
            ["fit", "--d", str(D), "--gamma", str(GAMMA), "--depth", str(DEPTH),
             "--seed", str(self.seed), "--no-timestamp", "--in", str(self.samples_csv),
             "--model", str(self.model), "--out", str(self.report), *self.wl.fit_flags]
        )
        self.t.fit_s.append(seconds)
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                fit = json.loads(self.report.read_text(encoding="utf-8"))["fit"]
                shape = (fit["separation"]["retries"], fit["depth"])
                residual = fit["residual_max"]["exact"]
                data = self.model.read_bytes()
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                if residual != "0":
                    problems.append(f"residual {residual}")
                if shape != (self.wl.retries, self.wl.depth):
                    problems.append(
                        f"(retries, depth) = {shape}, the input forces "
                        f"{(self.wl.retries, self.wl.depth)}"
                    )
                if self.model_bytes is None:
                    self.model_bytes = data
                elif data != self.model_bytes:
                    problems.append("model file differs from the first fit of the same input")
        self.ledger.record("fit", problems)
        return seconds

    def eval_cli(self, numeric: str, out: Path):
        """Rows of one `ksnet eval` call (None if it failed), its seconds and its problems."""
        rc, seconds = self.cli(
            ["eval", "--model", str(self.model), "--in", str(self.queries_csv),
             "--out", str(out), "--numeric", numeric]
        )
        if rc != 0:
            return None, seconds, [f"exit code {rc}"]
        rows = _read_rows(out)
        if len(rows) != len(self.queries):
            return None, seconds, [f"{len(rows)} rows for {len(self.queries)} queries"]
        return rows, seconds, []

    def eval_stage(self) -> float:
        rows, exact_s, problems = self.eval_cli("exact", self.exact_csv)
        self.t.exact_s.append(exact_s)
        exact = None
        if rows is not None:
            exact = [Fraction(w) for w, _ in rows]
            wrong = sum(exact[i] != t for i, t in self.expected.items())
            if wrong:
                problems.append(f"{wrong} fitted sample points miss their target")
        self.ledger.record("eval --numeric exact", problems)

        rows, fast_s, problems = self.eval_cli("fast", self.fast_csv)
        self.t.fast_s.append(fast_s)
        misses = answers = 0
        if rows is not None:
            fast = [(float(w), float(err)) for w, err in rows]
            problems = _fast_problems([w for w, _ in fast], exact)
            if exact is not None and all(map(math.isfinite, itertools.chain(*fast))):
                answers = len(fast)
                misses = sum(
                    abs(Fraction(w) - x) > Fraction(err) for (w, err), x in zip(fast, exact)
                )
        self.ledger.record("eval --numeric fast", problems)
        self.t.bound.append((misses, answers))
        return exact_s + fast_s + self.library_pass(exact)

    def library_pass(self, exact) -> float:
        """Per-call latency of network.evaluate and FastEvaluator.evaluate."""
        network = sys.modules["ksnet.network"]
        try:
            model = network.load(str(self.model))
            fast_eval = network.FastEvaluator(model)
        except Exception:
            traceback.print_exc()
            self.ledger.record("load", ["model does not load"])
            return 0.0
        total_ns = 0
        exact_us: dict[int, float] = {}
        fast_us: dict[int, float] = {}
        self.t.exact_us.append(exact_us)
        self.t.fast_us.append(fast_us)
        for i, x in enumerate(self.queries):
            try:
                start = perf_counter_ns()
                w, _ = network.evaluate(model, x)
                mid = perf_counter_ns()
                wf, _ = fast_eval.evaluate(x)
                end = perf_counter_ns()
            except Exception:
                traceback.print_exc()
                self.ledger.record("library evaluate", ["raised"])
                continue
            total_ns += end - start
            exact_us[i] = (mid - start) / 1000
            fast_us[i] = (end - mid) / 1000
            wrong = (exact is not None and w != exact[i]) or self.expected.get(i, w) != w
            self.ledger.record("network.evaluate", ["differs from the CLI or the target"] if wrong else [])
            self.ledger.record("FastEvaluator.evaluate", _fast_problems([wf], [w]))
        return total_ns / 1e9

    def round(self) -> float:
        """One unit of timed work; returns the seconds spent inside ksnet calls."""
        gc.collect()
        return self.fit() + self.eval_stage()


def _best_latency_p50(per_round: list[dict[int, float]]) -> float:
    """Median over the timed queries of each query's fastest call in the run."""
    best: dict[int, float] = {}
    for one_round in per_round:
        for row, us in one_round.items():
            best[row] = min(us, best.get(row, us))
    return statistics.median(best.values())


def _pooled_p99(per_round: list[dict[int, float]]) -> float:
    calls = [us for one_round in per_round for us in one_round.values()]
    return statistics.quantiles(calls, n=100, method="inclusive")[98]


def measure(bench: Bench, seconds: float):
    start = perf_counter()
    rounds = 0
    # stop before a round would end past --seconds, so a run's length stays predictable
    while rounds < MIN_ROUNDS or (perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        bench.set_up()
        bench.round()
        rounds += 1
    t = bench.t
    n, q = len(bench.samples), len(bench.queries)
    calls = sum(len(r) for r in t.exact_us)
    misses = sum(m for m, _ in t.bound)
    answers = sum(a for _, a in t.bound)
    rows = [
        ("setup_s", statistics.median(t.setup_s), "s", f"median of {len(t.setup_s)} set-ups"),
        ("fit_points_per_s", n / min(t.fit_s), "1/s",
         f"{n} samples, fastest of {len(t.fit_s)} fits"),
        ("eval_exact_points_per_s", q / min(t.exact_s), "1/s",
         f"{q} queries, fastest of {len(t.exact_s)} calls"),
        ("eval_fast_points_per_s", q / min(t.fast_s), "1/s",
         f"{q} queries, fastest of {len(t.fast_s)} calls"),
        ("eval_exact_us_p50", _best_latency_p50(t.exact_us), "us",
         f"median over {q} queries of the fastest of {rounds} calls"),
        ("eval_exact_us_p99", _pooled_p99(t.exact_us), "us", f"{calls} calls"),
        ("eval_fast_us_p99", _pooled_p99(t.fast_us), "us", f"{calls} calls"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "whole process"),
    ]
    extra = [
        ("failed_frac", bench.ledger.failed / bench.ledger.attempted, "frac",
         f"{bench.ledger.failed} of {bench.ledger.attempted} operations"),
        ("fast_bound_miss_frac", misses / answers if answers else 0.0, "frac",
         f"{misses} of {answers} fast answers outside their own bound"),
    ]
    return rows, extra


COUNT_UNITS = {
    "hashmaps.shared_knot_frac": "frac",
    "outer.g_range_per_eval": "ratio",
    "network.save.bytes": "bytes",
    "network.fast_bound_miss_frac": "frac",
}


def measure_traced(bench: Bench, seconds: float, dump: Path):
    from spans import SpanRecorder, instrument

    bench.set_up()
    untraced, traced, per_round = [], [], []
    start = perf_counter()
    pairs = 0
    while pairs < MIN_ROUNDS or (perf_counter() - start) * (pairs + 1) / pairs <= seconds:
        # the untraced round goes first in every other pair, so warm-up favours neither
        if pairs % 2 == 0:
            untraced.append(bench.round())
        recorder = SpanRecorder()
        with instrument(recorder):
            traced.append(bench.round())
        layer = recorder.layer_metrics()
        misses, answers = bench.t.bound[-1]
        layer["network.fast_bound_miss_frac"] = misses / answers if answers else 0.0
        per_round.append(layer)
        if pairs % 2 == 1:
            untraced.append(bench.round())
        pairs += 1
    recorder.write_csv(dump)

    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")} for m in per_round]
    differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
    bench.ledger.record(
        "per-layer counts repeat exactly across traced rounds",
        [f"{', '.join(differing)} differ"] if differing else [],
    )
    rows = []
    for name, value in per_round[0].items():
        if name.endswith(".self_s"):
            value = statistics.median(m[name] for m in per_round)
            rows.append((name, value, "s", f"median of {len(per_round)} traced rounds"))
        else:
            rows.append((name, value, COUNT_UNITS.get(name, "count"), "per round"))
    overhead = min(traced) / min(untraced) - 1
    rows.append(("trace_overhead_frac", overhead, "frac",
                 f"fastest of {len(traced)} traced over fastest of {len(untraced)} untraced rounds"))
    extra = [("failed_frac", bench.ledger.failed / bench.ledger.attempted, "frac",
              f"{bench.ledger.failed} of {bench.ledger.attempted} operations")]
    return rows, extra


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    src = ROOT / "src"
    if not (src / "ksnet" / "cli.py").is_file():
        print(f"error: no ksnet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ksnet.cli  # noqa: F401  (loads every ksnet module before any patching)

    wl = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        bench = Bench(wl, args.seed, work)
        if args.trace:
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            dump = out / f"spans-{args.workload}-seed{args.seed}.csv"
            rows, extra = measure_traced(bench, args.seconds, dump)
        else:
            rows, extra = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {
            "d": D, "gamma": GAMMA, "depth": DEPTH, "target": "product",
            "samples": len(bench.samples),
            "queries": len(bench.queries),
            "fitted_point_queries": len(bench.expected),
        },
    }
    for problem in bench.ledger.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(f"ksnet benchmark, workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        print(f"spans of the last traced round: {dump.relative_to(ROOT)}")
    for name, value, unit, note in rows + extra:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    result = {
        "correct": bench.ledger.failed == 0,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
