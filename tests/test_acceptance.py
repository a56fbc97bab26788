"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines on success;
on failure the offending line appears in the captured output.
"""

import csv
import json
import random
import time
from fractions import Fraction

from ksnet.cli import EXIT_OK, main
from ksnet.errors import ModelFormatError
from ksnet.hashmaps import (
    build_incidence,
    check_ranges,
    make_params,
    separation_check,
)
from ksnet.inner import default_inner_spec, phi_eval, verify_inner
from ksnet.network import FastEvaluator, evaluate, load, save
from ksnet.outer import fit_iterative, grid_samples
from ksnet.rationals import parse_rational

SPEC6 = default_inner_spec(6)
P26 = make_params(2, 6)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_points(seed, n, d=2, bits=50):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.getrandbits(bits), 2**bits) for _ in range(d)))
    return sorted(pts)


def _write_samples(path, points, f):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(len(points[0]))] + ["f"])
        for p in points:
            w.writerow([str(c) for c in p] + [str(f(p))])


def _cli_fit(workdir, name, points, f, *extra):
    samples = workdir / f"{name}.csv"
    model = workdir / f"{name}_model.json"
    report = workdir / f"{name}_report.json"
    _write_samples(samples, points, f)
    rc = main(
        ["fit", "--d", "2", "--gamma", "6", "--depth", "30",
         "--in", str(samples), "--model", str(model),
         "--out", str(report), "--no-timestamp", *extra]
    )
    assert rc == EXIT_OK, f"fit exited {rc}"
    return model, json.loads(report.read_text())


def test_criterion_01_exact_fit_product(tmp_path):
    """300 random samples of x1*x2: rational residual exactly 0, float check
    within 1e-9, fit well under the 60 s budget."""
    points = _random_points(seed=101, n=300)
    started = time.perf_counter()
    model_path, report = _cli_fit(tmp_path, "product", points, lambda p: p[0] * p[1])
    elapsed = time.perf_counter() - started
    residual = report["fit"]["residual_max"]["exact"]
    model = load(model_path)
    fast = FastEvaluator(model)
    worst = max(
        abs(fast.evaluate(p)[0] - float(p[0] * p[1])) for p in points
    )
    ok = residual == "0" and worst <= 1e-9 and elapsed <= 60
    _report(1, ok, f"residual {residual}, fast |err| {worst:.2e} <= 1e-9, {elapsed:.2f}s <= 60s")


def test_criterion_02_indicator_jump(tmp_path):
    """Indicator of x1 < 1/2 fits exactly and the tables keep a jump of at
    least 1/5 - 1e-6 at every sample size."""
    f = lambda p: Fraction(1) if p[0] < Fraction(1, 2) else Fraction(0)
    details = []
    ok = True
    for n in (100, 300, 1000):
        points = _random_points(seed=200 + n, n=n)
        _, report = _cli_fit(tmp_path, f"ind{n}", points, f)
        residual = report["fit"]["residual_max"]["exact"]
        jump = parse_rational(report["class"]["max_jump"])
        ok = ok and residual == "0" and jump >= Fraction(1, 5) - Fraction(1, 10**6)
        details.append(f"n={n}: residual {residual}, max jump {float(jump):.4f}")
    _report(2, ok, "; ".join(details) + " (threshold 0.2 - 1e-6)")


def test_criterion_03_steep_reciprocal(tmp_path):
    """1/(x1 + x2 + 1e-3) fits exactly and the knot values reach at least a
    fifth of the largest target."""
    f = lambda p: 1 / (p[0] + p[1] + Fraction(1, 1000))
    points = _random_points(seed=303, n=300)
    _, report = _cli_fit(tmp_path, "recip", points, f)
    residual = report["fit"]["residual_max"]["exact"]
    max_f = max(abs(f(p)) for p in points)
    max_knot = parse_rational(report["class"]["max_abs_value"])
    ok = residual == "0" and max_knot >= max_f / 5
    _report(3, ok, f"residual {residual}, max |knot| {float(max_knot):.2f} >= max |f|/5 = {float(max_f / 5):.2f}")


def test_criterion_04_separation_trials():
    """100 seeded trials of 50 random points all separate at depth 30; a
    synthetic duplicate pair yields the witness (1, -1)."""
    failures = 0
    for trial in range(100):
        points = _random_points(seed=40_000 + trial, n=50)
        verdict = separation_check(build_incidence(P26, SPEC6, points, 30))
        if not (verdict.separated and verdict.rank == 50):
            failures += 1
    x = (Fraction(1, 3), Fraction(2, 7))
    y = tuple(c + Fraction(1, 6**40) for c in x)
    twin = separation_check(build_incidence(P26, SPEC6, [x, y], 30))
    witness_ok = (not twin.separated) and twin.witness == (Fraction(1), Fraction(-1))
    ok = failures == 0 and witness_ok
    _report(4, ok, f"{100 - failures}/100 trials separated, duplicate witness {twin.witness}")


def test_criterion_05_branch_ranges():
    """Every level-2 grid point lands in [5q, 5q+4] on branch q and the
    branch ranges stay at least 1 apart."""
    report = check_ranges(P26, SPEC6, probe_level=2, depth=30)
    in_range = all(
        br["interval"] == [5 * q, 5 * q + 4]
        and 5 * q <= Fraction(br["observed"][0]) <= Fraction(br["observed"][1]) <= 5 * q + 4
        for q, br in enumerate(report["branches"])
    )
    min_gap = Fraction(report["min_gap"])
    ok = report["passed"] and not report["violations"] and in_range and min_gap >= 1
    _report(5, ok, f"{report['points_checked']} grid points, 0 violations, min gap {float(min_gap):.3f} >= 1")


def test_criterion_06_inner_function_properties():
    """Monotonicity, the Hoelder bound with constant 4 and exponent
    ln2/ln6, the +1 shift identity, range containment, and the endpoint
    values all hold on seeded samples."""
    report = verify_inner(SPEC6, samples=10_000, depth=30, seed=606)
    endpoints = phi_eval(SPEC6, Fraction(0), 1)[0] == 0 and phi_eval(SPEC6, Fraction(1), 1)[0] == 1
    ok = report["passed"] and endpoints
    detail = ", ".join(f"{c['name']} ok" for c in report["checks"])
    _report(6, ok, f"{detail} over 10000 samples (1000 shift pairs), phi(0)=0, phi(1)=1")


def test_criterion_07_mixing_weights():
    """lambda_1 is exactly 1; lambda_2 sums gamma^-e over e = 1, 3, 7, 15
    with the series tail certified below 1e-18."""
    params = make_params(2, 6, Fraction(1, 10**18))
    (lam1, lam2), (tail1, tail2), (_, terms) = params.lam, params.lam_tails, params.series_terms
    expected = sum(Fraction(1, 6**e) for e in (1, 3, 7, 15))
    ok = (
        lam1 == 1
        and tail1 == 0
        and lam2 == expected == Fraction(80542626049, 470184984576)
        and terms == 4
        and tail2 <= Fraction(1, 10**18)
    )
    _report(7, ok, f"lambda_1 = 1, lambda_2 = {lam2} (4 terms), tail {float(tail2):.2e} <= 1e-18")


def test_criterion_08_iterative_convergence():
    """Damped iteration on x1 + x2 over the level-1 grid never increases the
    residual and finalizes to an exactly zero residual."""
    outer, report = fit_iterative(
        grid_samples(lambda p: p[0] + p[1], P26, 1), P26, SPEC6, damping=Fraction(1, 2)
    )
    h = report.convergence_history
    monotone = all(b <= a for a, b in zip(h, h[1:]))
    ok = monotone and report.residual_max == 0 and report.mode == "iterative"
    _report(8, ok, f"{len(h)} rounds, history non-increasing, finalized residual {report.residual_max}")


def test_criterion_09_serialization(tmp_path):
    """save -> load -> save is byte-identical, reloaded models evaluate
    identically at 100 random points, and corrupted files are rejected."""
    points = _random_points(seed=909, n=40)
    model_path, _ = _cli_fit(tmp_path, "ser", points, lambda p: p[0] - p[1] / 2)
    model = load(model_path)
    blob = save(model)
    stable = save(load(blob)) == blob == model_path.read_bytes()
    probes = _random_points(seed=910, n=100)
    reloaded = load(blob)
    agree = all(evaluate(reloaded, p) == evaluate(model, p) for p in probes)
    try:
        load(blob[: len(blob) - 40])
        rejected = False
    except ModelFormatError:
        rejected = True
    ok = stable and agree and rejected
    _report(9, ok, f"byte-identical round trip, 100/100 evaluations equal, truncated file rejected")


def test_criterion_10_deterministic_cli(tmp_path):
    """Two cmd_fit runs with the same configuration and --no-timestamp write
    byte-identical model files."""
    points = _random_points(seed=111, n=60)
    model_a, _ = _cli_fit(tmp_path, "det_a", points, lambda p: p[0] * p[1])
    model_b, _ = _cli_fit(tmp_path, "det_b", points, lambda p: p[0] * p[1])
    ok = model_a.read_bytes() == model_b.read_bytes()
    _report(10, ok, "repeated fit produced byte-identical models")
