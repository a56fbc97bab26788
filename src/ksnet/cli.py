"""Command line front end.

    ksnet fit --d 2 --gamma 6 --depth 30 --in samples.csv --model model.json
    ksnet eval --model model.json --in points.csv --out values.csv
    ksnet check --d 2 --gamma 6 --trials 20
    ksnet bench --sweep-n 50,100,200 --target product --out bench.csv
    ksnet describe --model model.json

Sample CSV: header row, then d coordinate columns and one target column per
row; cells may use decimal or p/q syntax.  Point CSV: the same without the
target column.  Exit codes: 0 success, 2 input or configuration problems,
3 separation failure (the closed-path witness is printed), 4 internal
invariant violations.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AssemblyError,
    CoincidentPoints,
    DomainError,
    InputError,
    InternalInvariantError,
    IterationDiverged,
    ModelFormatError,
    OutsideCube,
    ParameterError,
    PointError,
    SeparationFailure,
)
from .hashmaps import (
    DEFAULT_SERIES_TOLERANCE,
    build_incidence,
    check_ranges,
    make_params,
    separation_check,
)
from .inner import check_depth, default_inner_spec, verify_inner
from .network import assemble, describe, dot, evaluate_batch, load, save
from .outer import SampleSet, fit_exact, fit_iterative, grid_samples, merge_report
from .rationals import parse_rational, plain_ratios

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEPARATION = 3
EXIT_INTERNAL = 4

REPORT_VERSION = 1
# Most points one command builds at once: the grid `check` sweeps and
# `bench --mode iterative` fits (one more level multiplies a grid by about
# gamma**d), all `check` trials together (--trials times --trial-points) and
# a `bench` fit (--sweep-n).
POINT_CAP = 50_000
# Most inner-function samples (--samples) and separation trials (--trials)
# `check` runs; like the caps above, they are refused before any work starts.
SAMPLES_CAP = 100_000
TRIALS_CAP = 10_000

TARGETS = {
    "product": lambda p: math.prod(map(Fraction, p)),
    "sum": lambda p: sum(Fraction(c) for c in p),
    "indicator": lambda p: Fraction(1) if p[0] < Fraction(1, 2) else Fraction(0),
    "reciprocal": lambda p: 1 / (sum(Fraction(c) for c in p) + Fraction(1, 1000)),
}


@dataclass
class JobConfig:
    """One command's validated knobs; bad combinations never reach the math."""

    command: str
    d: int = 2
    gamma: int = 6
    depth: int | None = 30
    grid_level: int = 1
    mode: str = "exact"
    numeric: str = "exact"
    tolerance: Fraction = Fraction(1, 10**6)
    series_tolerance: Fraction = DEFAULT_SERIES_TOLERANCE
    max_iter: int = 100
    damping: Fraction = Fraction(1, 2)
    seed: int = 0
    in_path: str | None = None
    out_path: str | None = None
    model_path: str | None = None
    timestamps: bool = True
    samples: int = 2000
    trials: int = 20
    trial_points: int = 50
    probe_level: int = 1
    sweep_n: tuple[int, ...] = (50, 100, 200)
    target: str = "product"
    dot: bool = False

    def __post_init__(self):
        if self.depth is not None:
            try:
                check_depth(self.depth)
            except DomainError as exc:
                raise InputError(f"--depth: {exc}") from None
        if self.grid_level < 1:
            raise InputError(f"--grid-level must be >= 1, got {self.grid_level}")
        if self.tolerance <= 0:
            raise InputError(f"--tolerance must be positive, got {self.tolerance}")
        if self.series_tolerance <= 0:
            raise InputError(f"--series-tolerance must be positive, got {self.series_tolerance}")
        if self.max_iter < 1:
            raise InputError(f"--max-iter must be >= 1, got {self.max_iter}")
        if not 0 < self.damping <= 1:
            raise InputError(f"--damping must lie in (0, 1], got {self.damping}")
        if self.seed < 0:
            raise InputError(f"--seed must be >= 0, got {self.seed}")
        if not 2 <= self.samples <= SAMPLES_CAP:
            raise InputError(f"--samples must lie in 2..{SAMPLES_CAP}, got {self.samples}")
        if not 1 <= self.trials <= TRIALS_CAP:
            raise InputError(f"--trials must lie in 1..{TRIALS_CAP}, got {self.trials}")
        if not 2 <= self.trial_points <= POINT_CAP:
            raise InputError(f"--trial-points must lie in 2..{POINT_CAP}, got {self.trial_points}")
        if self.trials * self.trial_points > POINT_CAP:
            raise InputError(f"--trials times --trial-points must be at most {POINT_CAP}, "
                             f"got {self.trials} * {self.trial_points}")
        if self.probe_level < 1:
            raise InputError(f"--probe-level must be >= 1, got {self.probe_level}")
        if not all(1 <= n <= POINT_CAP for n in self.sweep_n):
            raise InputError(f"--sweep-n entries must lie in 1..{POINT_CAP}, got {self.sweep_n}")
        if self.command in ("fit", "eval") and not self.in_path:
            raise InputError(f"{self.command} requires --in")
        if self.command in ("fit", "eval", "describe") and not self.model_path:
            raise InputError(f"{self.command} requires --model")

    def to_jsonable(self) -> dict:
        return {
            "command": self.command,
            "d": self.d,
            "gamma": self.gamma,
            "depth": self.depth,
            "grid_level": self.grid_level,
            "mode": self.mode,
            "numeric": self.numeric,
            "tolerance": str(self.tolerance),
            "series_tolerance": str(self.series_tolerance),
            "max_iter": self.max_iter,
            "damping": str(self.damping),
            "seed": self.seed,
            "in": self.in_path,
            "out": self.out_path,
            "model": self.model_path,
        }


def _read_csv_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a field past csv.field_size_limit(), for one
        raise InputError(f"{path}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: empty file, a header row is required")
    return rows


def _parse_cell(cell: str, row_no: int, col_no: int) -> Fraction:
    try:
        return parse_rational(cell)
    except InputError as exc:
        raise InputError(f"row {row_no}, column {col_no}: {exc}") from None


def _read_table(path: str, width: int, columns: str) -> list[tuple[Fraction, ...]]:
    """The parsed data rows of a CSV whose header has `width` cells, described by `columns`.

    Each distinct cell text becomes one Fraction, however often it repeats:
    all of them are read by one plain_ratios guard, or, when it says None,
    one at a time in file order, so that the first bad row or cell is named
    (rows are walked only then, or when a row has the wrong width).
    """
    rows = _read_csv_rows(path)
    if len(rows[0]) != width:
        raise InputError(f"{path}: expected {columns}, got {len(rows[0])}")
    texts = list(dict.fromkeys(itertools.chain.from_iterable(rows[1:])))
    ratios = plain_ratios(texts)
    cells = {} if ratios is None else dict(zip(texts, map(Fraction, *ratios)))
    if ratios is None or not {width}.issuperset(map(len, rows)):
        for row_no, row in enumerate(rows[1:], start=1):
            if len(row) != width:
                raise InputError(f"row {row_no}: expected {width} cells, got {len(row)}")
            for c, cell in enumerate(row):
                if cell not in cells:
                    cells[cell] = _parse_cell(cell, row_no, c + 1)
    return [tuple(map(cells.__getitem__, row)) for row in rows[1:]]


def _read_samples(path: str, d: int) -> SampleSet:
    rows = _read_table(path, d + 1, f"{d + 1} columns ({d} coordinates and a target)")
    if not rows:
        raise InputError(f"{path}: no sample rows")
    try:
        return SampleSet(points=tuple(row[:d] for row in rows), targets=tuple(row[d] for row in rows))
    except OutsideCube as exc:
        raise InputError(f"row {exc.index + 1}, column {exc.axis}: coordinate {exc.value} leaves [0, 1]") from None
    except CoincidentPoints as exc:
        raise InputError(f"duplicate point: rows {exc.first + 1} and {exc.second + 1} coincide") from None


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, out_path: str | None) -> None:
    _emit_text(json.dumps(report, indent=2) + "\n", out_path)


def _csv_text(rows) -> str:
    """What the csv module's writer (default dialect) writes for rows of two or more
    cells, none holding a comma, quote or line break: str of each cell, unquoted,
    and every row ends in \\r\\n.  One join, where the writer copies every character."""
    return "".join([",".join(map(str, row)) + "\r\n" for row in rows])


def _grid_exceeds(gamma: int, level: int, d: int, limit: int) -> bool:
    """Whether the level-`level` grid, (gamma**level + 1)**d points, holds more than `limit`.

    Stops multiplying as soon as the answer is yes, so a huge level costs
    about log_gamma(limit) steps.
    """
    side = 1
    for _ in range(level):
        side *= gamma
        if (side + 1) ** d > limit:
            return True
    return False


def _refuse_large_grid(config: JobConfig, level: int, flag: str) -> None:
    if _grid_exceeds(config.gamma, level, config.d, POINT_CAP):
        raise InputError(
            f"{flag} {level}: the grid has more than {POINT_CAP} points "
            f"for d = {config.d}, gamma = {config.gamma}"
        )


def cmd_fit(config: JobConfig) -> int:
    params = make_params(config.d, config.gamma, config.series_tolerance)
    samples = _read_samples(config.in_path, config.d)
    inner = default_inner_spec(config.gamma)
    started = time.perf_counter()
    if config.mode == "exact":
        outer_fn, fit_rep = fit_exact(samples, params, inner, depth=config.depth)
    else:
        if _grid_exceeds(config.gamma, config.grid_level, config.d, samples.n):
            raise InputError(
                f"iterative mode needs a target at every level-{config.grid_level} "
                f"grid point, but that grid has more points than the {samples.n} "
                "rows given; targets are missing"
            )
        # no more grid points than rows (checked above), and every row a distinct grid
        # point: the rows are the whole grid.  Each distinct coordinate is tested once.
        scale = config.gamma**config.grid_level
        off = [ids.index(g) for values, ids in zip(samples.groups.values, samples.groups.ids)
               for g, (_, m) in enumerate(values) if scale % m]
        if off:
            row = min(off)  # the first row that holds an off-grid coordinate
            raise InputError(f"row {row + 1}: ({', '.join(map(str, samples.points[row]))}) is not a "
                             f"level-{config.grid_level} grid point")
        outer_fn, fit_rep = fit_iterative(samples, params, inner, depth=config.depth, max_iter=config.max_iter,
                                          tolerance=config.tolerance, damping=config.damping)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    meta = {
        "fit_mode": config.mode,
        "depth": fit_rep.depth,
        "sample_hash": samples.canonical_hash(),
        "seed": config.seed,
    }
    if config.mode == "iterative":
        meta["grid_level"] = config.grid_level
    if config.timestamps:
        meta["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    model = assemble(inner, params, outer_fn, meta=meta)
    save(model, config.model_path)
    report = {
        "report_version": REPORT_VERSION,
        "command": "fit",
        "config": config.to_jsonable(),
        "fit": fit_rep.to_jsonable(),
        "class": merge_report(outer_fn),
        "model_path": config.model_path,
    }
    if config.timestamps:
        report["timing_ms"] = elapsed_ms
    _emit_report(report, config.out_path)
    return EXIT_OK


def cmd_eval(config: JobConfig) -> int:
    model = load(config.model_path)
    points = _read_table(config.in_path, model.params.d, f"{model.params.d} coordinate columns")
    try:
        results = evaluate_batch(model, points, depth=config.depth, numeric=config.numeric)
    except PointError as exc:
        raise InputError(f"row {exc.index + 1}: {exc.reason}") from exc
    text = str if config.numeric == "exact" else repr  # cells of digits, '/', '.', 'e', '+' and '-'
    _emit_text(_csv_text([("w", "error_bound"), *((text(w), text(err)) for w, err in results)]), config.out_path)
    return EXIT_OK


def _random_points(rng: random.Random, d: int, n: int) -> list[tuple[Fraction, ...]]:
    """n distinct points of [0, 1]^d with 50-bit dyadic coordinates, sorted."""
    points = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(d)))
    return sorted(points)


def cmd_check(config: JobConfig) -> int:
    params = make_params(config.d, config.gamma, config.series_tolerance)
    _refuse_large_grid(config, config.probe_level, "--probe-level")
    inner = default_inner_spec(config.gamma)
    inner_report = verify_inner(inner, samples=config.samples, depth=config.depth, seed=config.seed)
    range_report = check_ranges(params, inner, probe_level=config.probe_level, depth=config.depth)
    rng = random.Random(config.seed)
    failed = []
    for trial in range(config.trials):
        points = _random_points(rng, config.d, config.trial_points)
        system = build_incidence(params, inner, points, config.depth)
        verdict = separation_check(system)
        if not verdict.separated:
            failed.append({"trial": trial, "verdict": verdict.to_jsonable()})
    trials_passed = not failed
    report = {
        "report_version": REPORT_VERSION,
        "command": "check",
        "config": config.to_jsonable(),
        "passed": inner_report["passed"] and range_report["passed"] and trials_passed,
        "inner": inner_report,
        "ranges": range_report,
        "separation_trials": {
            "passed": trials_passed,
            "trials": config.trials,
            "points_per_trial": config.trial_points,
            "depth": config.depth,
            "failures": len(failed),
            "failed_trials": failed,
        },
    }
    _emit_report(report, config.out_path)
    return EXIT_OK


def cmd_bench(config: JobConfig) -> int:
    params = make_params(config.d, config.gamma, config.series_tolerance)
    if config.mode == "iterative":
        _refuse_large_grid(config, config.grid_level, "--grid-level")
    target = TARGETS[config.target]
    inner = default_inner_spec(config.gamma)
    rows = [
        [
            "n", "d", "gamma", "depth", "mode", "target", "fit_ms", "knot_count",
            "iterations", "convergence_factor", "separation_retries", "final_depth",
            "residual_max",
        ]
    ]

    def row(n, mode, ms, rep, factor):
        return [
            n, config.d, config.gamma, config.depth, mode, config.target, f"{ms:.3f}", rep.knot_count,
            rep.iterations, factor, rep.separation.retries, rep.depth, str(rep.residual_max),
        ]

    for n in config.sweep_n:
        points = _random_points(random.Random(config.seed * 1_000_003 + n), config.d, n)
        samples = SampleSet(points=tuple(points), targets=tuple(target(p) for p in points))
        started = time.perf_counter()
        _, rep = fit_exact(samples, params, inner, depth=config.depth)
        rows.append(row(n, "exact", (time.perf_counter() - started) * 1000.0, rep, ""))
    if config.mode == "iterative":
        started = time.perf_counter()
        _, rep = fit_iterative(
            grid_samples(target, params, config.grid_level),
            params,
            inner,
            depth=config.depth,
            max_iter=config.max_iter,
            tolerance=config.tolerance,
            damping=config.damping,
        )
        ms = (time.perf_counter() - started) * 1000.0
        history = rep.convergence_history
        ratios = [b / a for a, b in zip(history, history[1:]) if a > 0]
        factor = f"{sum(ratios) / len(ratios):.6f}" if ratios else ""
        rows.append(row(rep.separation.n_points, "iterative", ms, rep, factor))
    _emit_text(_csv_text(rows), config.out_path)
    return EXIT_OK


def cmd_describe(config: JobConfig) -> int:
    model = load(config.model_path)
    if config.dot:
        _emit_text(dot(model.params.d) + "\n", config.out_path)
    else:
        _emit_report(describe(model), config.out_path)
    return EXIT_OK


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksnet",
        description="Exact superposition networks: fit, evaluate, check, benchmark, describe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No flag sets a default: an absent flag parses to None and the JobConfig field's default applies.
    def common(p):
        p.add_argument("--d", type=int, help="input dimension (>= 2)")
        p.add_argument("--gamma", type=int, help="digit base (>= 2d+2)")
        p.add_argument("--depth", type=int, help="truncation depth in digits")
        p.add_argument("--seed", type=int, help="RNG seed recorded in outputs")
        p.add_argument("--out", dest="out_path", help="report path (default stdout)")
        p.add_argument("--no-timestamp", dest="timestamps", action="store_false",
                       help="omit timestamps and timings for byte-identical outputs")
        p.add_argument("--series-tolerance", type=parse_rational,
                       help="tail bound target for the mixing-weight series")

    def iterative(p):
        p.add_argument("--grid-level", dest="grid_level", type=int, help="grid refinement level for iterative mode")
        p.add_argument("--tolerance", type=parse_rational, help="iterative stopping tolerance")
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--damping", type=parse_rational)

    fit = sub.add_parser("fit", help="fit a model to a sample CSV")
    common(fit)
    fit.add_argument("--in", dest="in_path", required=True, help="sample CSV (d coordinates + target)")
    fit.add_argument("--model", dest="model_path", required=True, help="output model JSON path")
    fit.add_argument("--mode", choices=("exact", "iterative"))
    iterative(fit)

    ev = sub.add_parser("eval", help="evaluate a model on a point CSV")
    ev.add_argument("--model", dest="model_path", required=True)
    ev.add_argument("--in", dest="in_path", required=True, help="point CSV (d coordinate columns)")
    ev.add_argument("--out", dest="out_path", help="output CSV (default stdout)")
    ev.add_argument("--depth", type=int, help="override the model's stored depth")
    ev.add_argument("--numeric", choices=("exact", "fast"))

    check = sub.add_parser("check", help="run the property suites")
    common(check)
    check.add_argument("--samples", type=int, help="points for the inner-function suite")
    check.add_argument("--trials", type=int, help="random separation trials")
    check.add_argument("--trial-points", dest="trial_points", type=int)
    check.add_argument("--probe-level", dest="probe_level", type=int, help="grid level for the range sweep")

    bench = sub.add_parser("bench", help="timing and size sweeps, CSV output")
    common(bench)
    bench.add_argument("--sweep-n", dest="sweep_n", type=_int_list)
    bench.add_argument("--target", choices=sorted(TARGETS))
    bench.add_argument("--mode", choices=("exact", "iterative"),
                       help="iterative adds a grid-fit row with a convergence factor")
    iterative(bench)

    desc = sub.add_parser("describe", help="topology, constants, and knot counts")
    desc.add_argument("--model", dest="model_path", required=True)
    desc.add_argument("--out", dest="out_path")
    desc.add_argument("--dot", action="store_true", help="emit a graphviz description instead of JSON")

    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "eval": cmd_eval,
    "check": cmd_check,
    "bench": cmd_bench,
    "describe": cmd_describe,
}


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    picked = {k: v for k, v in vars(args).items() if k in JobConfig.__dataclass_fields__ and v is not None}
    if args.command == "eval":
        picked["depth"] = args.depth  # None means: use the model's stored depth
    return JobConfig(**picked)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.command](config)
    except SeparationFailure as exc:
        witness = (
            "[" + ", ".join(map(str, exc.witness)) + "]"
            if exc.witness
            else "unavailable"
        )
        print(f"separation failure: {exc}\nwitness: {witness}", file=sys.stderr)
        return EXIT_SEPARATION
    except (InputError, DomainError, ParameterError, ModelFormatError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalInvariantError, IterationDiverged) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # str() of an exact result past the int-string limit, which no literal may pass
        print(f"error: a result has too many digits to write: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
