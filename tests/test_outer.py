"""Outer function: interpolation, exact fitting, damped iteration."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ksnet
from ksnet.errors import (
    DomainError,
    InputError,
    InternalInvariantError,
    IterationDiverged,
    ParameterError,
    SeparationFailure,
)
from ksnet.hashmaps import build_incidence, make_params, separation_check
from ksnet.inner import default_inner_spec
from ksnet import outer as outer_module
from ksnet.network import assemble, evaluate, save
from ksnet.outer import (
    KnotLookup,
    OuterFunction,
    SampleSet,
    _min_norm_solution,
    _verify_zero_residual,
    fit_exact,
    fit_iterative,
    grid_samples,
    merge_report,
    run_damped_iteration,
)
from oracle import KnotTable, dense, g_range, outer_from_tables, rows, tables

SPEC6 = default_inner_spec(6)
P26 = make_params(2, 6)


def _random_samples(seed, n, f, bits=50):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.getrandbits(bits), 2**bits) for _ in range(2)))
    pts = sorted(pts)
    return SampleSet(points=tuple(pts), targets=tuple(f(p) for p in pts))


def test_knot_table_validation():
    empty = ((),) * 4
    with pytest.raises(ParameterError, match="strictly increasing"):
        OuterFunction(2, 1, ((1, 1),) + empty, ((0, 0),) + empty, ((1, 1),) + empty)
    with pytest.raises(ParameterError, match="1 knots but 0 values"):
        OuterFunction(2, 1, ((1,),) + empty, ((),) + empty, ((),) + empty)


def test_sample_set_validation():
    p = (Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(InputError):
        SampleSet(points=(p, p), targets=(Fraction(1), Fraction(2)))
    with pytest.raises(DomainError):
        SampleSet(points=((Fraction(3, 2), Fraction(0)),), targets=(Fraction(1),))
    with pytest.raises(InputError, match="point 1 has 1 coordinates, expected 2"):
        SampleSet(points=(p, (Fraction(1, 2),)), targets=(Fraction(1), Fraction(2)))
    with pytest.raises(DomainError, match="point 1: coordinate 1 must lie in \\[0, 1\\], got 3/2"):
        SampleSet(points=(p, (Fraction(3, 2), Fraction(0))), targets=(Fraction(1), Fraction(2)))
    s = SampleSet(points=(p,), targets=(Fraction(1),))
    assert s.n == 1 and s.d == 2
    assert s.canonical_hash() == SampleSet(points=(p,), targets=(Fraction(1),)).canonical_hash()
    other = SampleSet(points=(p,), targets=(Fraction(2),))
    assert s.canonical_hash() != other.canonical_hash()


def _toy_outer():
    t0 = KnotTable(ys=(Fraction(0), Fraction(1), Fraction(2)), gs=(Fraction(0), Fraction(5), Fraction(1)))
    empty = KnotTable(ys=(), gs=())
    return outer_from_tables(2, (t0, empty, empty, empty, empty))


def g_eval(outer, y):
    """The outer function at a rational y, through the integer lookup."""
    lookup = KnotLookup(outer, y.denominator)
    num, _, den = lookup.branch(y.numerator * lookup.lift, 0)
    return Fraction(num, den * lookup.value_den)


def test_g_eval_interpolation():
    out = _toy_outer()
    assert g_eval(out, Fraction(1)) == 5
    assert g_eval(out, Fraction(1, 2)) == Fraction(5, 2)
    assert g_eval(out, Fraction(3, 2)) == 3
    # clamping beyond the table ends
    assert g_eval(out, Fraction(-10)) == 0
    assert g_eval(out, Fraction(4)) == 1
    # an empty branch interval falls back to the globally nearest knot
    assert g_eval(out, Fraction(7)) == 1


def test_g_eval_empty_everywhere():
    empty = KnotTable(ys=(), gs=())
    model = assemble(SPEC6, P26, outer_from_tables(2, (empty,) * 5))
    with pytest.raises(DomainError, match="no knots"):
        evaluate(model, (Fraction(1), Fraction(1, 2)))


def test_g_range_includes_interior_knots():
    out = _toy_outer()
    assert g_range(out, Fraction(1, 2), Fraction(3, 2)) == (Fraction(5, 2), Fraction(5))
    assert g_range(out, Fraction(1), Fraction(1)) == (Fraction(5), Fraction(5))
    lo, hi = g_range(out, Fraction(0), Fraction(2))
    assert (lo, hi) == (Fraction(0), Fraction(5))


def test_single_point_fit_spreads_evenly():
    """With one sample the minimum-norm answer puts f/5 on each of its knots."""
    f = Fraction(7, 11)
    samples = SampleSet(points=((Fraction(1, 3), Fraction(2, 3)),), targets=(f,))
    outer, report = fit_exact(samples, P26, SPEC6)
    assert report.residual_max == 0
    assert report.knot_count == 5
    values = [g for t in tables(outer) for g in t.gs]
    assert values == [f / 5] * 5


def test_fit_exact_reproduces_samples():
    samples = _random_samples(0, 25, lambda p: p[0] * p[1])
    outer, report = fit_exact(samples, P26, SPEC6)
    assert report.residual_max == 0
    assert report.mode == "exact"
    assert report.separation.separated
    system = build_incidence(P26, SPEC6, samples.points, report.depth)
    lookup = {}
    for table in tables(outer):
        lookup.update(zip(table.ys, table.gs))
    knot_value = {j: lookup[Fraction(y, system.unit)] for j, y in enumerate(system.knots)}
    for row, target in zip(rows(system), samples.targets):
        assert sum(knot_value[j] for j in row) == target


def test_residual_recheck_sums_knot_values_exactly():
    """The integer re-check accepts the exact solve and refuses a target off by
    the smallest step its denominator allows."""
    samples = _random_samples(4, 30, lambda p: 1 / (p[0] + p[1] + Fraction(1, 1000)))
    system = build_incidence(P26, SPEC6, samples.points, 30)
    g = _min_norm_solution(system, samples.targets)
    assert len({den for _, den in g}) > 1
    _verify_zero_residual(system, samples.targets, g)
    for j in (0, 17, 29):
        targets = list(samples.targets)
        targets[j] += Fraction(1, targets[j].denominator * 10**40)
        with pytest.raises(InternalInvariantError, match=f"point {j}"):
            _verify_zero_residual(system, targets, g)


@pytest.mark.parametrize("shared", [False, True], ids=["singletons", "shared"])
def test_residual_recheck_reads_the_filled_tables(monkeypatch, shared):
    """One knot value changed in the tables a fit fills, after the solve, fails the
    re-check, on a system of singletons and on one whose points share knots."""
    if shared:
        step = Fraction(1, 6**5)
        points = tuple((Fraction(7, 36) + i * step, Fraction(13, 36) + k * step) for i in (-1, 1) for k in (-1, 1))
        samples, depth = SampleSet(points=points, targets=(1, 2, 3, 5)), 2
    else:
        samples, depth = _random_samples(4, 30, lambda p: p[0] - p[1]), 30
    assert bool(build_incidence(P26, SPEC6, samples.points, depth).components) is shared
    fill = outer_module._outer_table

    def corrupt(*args):
        table = fill(*args)
        gn = [list(values) for values in table.gn]
        gn[2][0] += 1
        return dataclasses.replace(table, gn=tuple(map(tuple, gn)))

    monkeypatch.setattr(outer_module, "_outer_table", corrupt)
    with pytest.raises(InternalInvariantError, match="nonzero residual"):
        fit_exact(samples, P26, SPEC6, depth)
    with pytest.raises(InternalInvariantError, match="nonzero residual"):
        fit_iterative(samples, P26, SPEC6, depth, max_iter=3)
    monkeypatch.undo()
    _, report = fit_exact(samples, P26, SPEC6, depth)
    assert (report.residual_max, report.depth) == (0, depth)


def test_fit_exact_is_minimum_norm():
    """The exact coefficients match the float pseudoinverse solution."""
    samples = _random_samples(1, 12, lambda p: p[0] + 2 * p[1])
    outer, report = fit_exact(samples, P26, SPEC6)
    system = build_incidence(P26, SPEC6, samples.points, report.depth)
    matrix = np.array(dense(system), dtype=float)
    targets = np.array([float(t) for t in samples.targets])
    expected = np.linalg.pinv(matrix) @ targets
    lookup = {}
    for table in tables(outer):
        lookup.update(zip(table.ys, table.gs))
    got = np.array([float(lookup[Fraction(y, system.unit)]) for y in system.knots])
    assert np.allclose(got, expected, atol=1e-9)


def test_fit_exact_raises_on_unseparated_samples():
    x = (Fraction(1, 3), Fraction(1, 3))
    y = tuple(c + Fraction(1, 6**241) for c in x)
    samples = SampleSet(points=(x, y), targets=(Fraction(0), Fraction(1)))
    with pytest.raises(SeparationFailure) as info:
        fit_exact(samples, P26, SPEC6)
    assert info.value.witness == (Fraction(1), Fraction(-1))


def test_fit_exact_constant_target():
    samples = _random_samples(2, 15, lambda p: Fraction(4, 7))
    outer, report = fit_exact(samples, P26, SPEC6)
    assert report.residual_max == 0
    rep = merge_report(outer)
    assert rep["total_knots"] == report.knot_count
    lo, hi = map(Fraction, rep["value_range"])
    assert lo <= Fraction(4, 35) <= hi


def test_merge_report_fields():
    samples = _random_samples(3, 20, lambda p: p[0] - p[1])
    outer, _ = fit_exact(samples, P26, SPEC6)
    rep = merge_report(outer)
    assert len(rep["branches"]) == 5
    assert rep["total_knots"] == sum(b["knot_count"] for b in rep["branches"])
    assert Fraction(rep["min_spacing"]) > 0
    assert Fraction(rep["max_abs_value"]) == max(map(abs, map(Fraction, rep["value_range"])))
    assert set(rep) >= {"branches", "total_knots", "max_jump", "min_spacing"}


def test_damped_iteration_no_collisions_hits_zero():
    """Private knots mean one full-strength round interpolates exactly."""
    outer, report = fit_iterative(
        grid_samples(lambda p: Fraction(1, 3), P26, 1), P26, SPEC6, damping=Fraction(1), finalize=False
    )
    assert report.iterations == 1
    assert report.collision_count == 0
    assert report.residual_max == 0
    assert g_eval(outer, Fraction(0)) == Fraction(1, 15)


def test_damped_iteration_halves_residual():
    f = lambda p: p[0] + p[1]
    outer, report = fit_iterative(
        grid_samples(f, P26, 1), P26, SPEC6, damping=Fraction(1, 2), finalize=False,
        tolerance=Fraction(1, 10**4),
    )
    h = report.convergence_history
    assert all(b <= a for a, b in zip(h, h[1:]))
    # no collisions on this grid, so each round scales the residual by 1/2
    assert report.collision_count == 0
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(0.5)
    assert report.residual_max <= Fraction(1, 10**4)


def test_iterative_finalize_gives_exact_residual():
    f = lambda p: p[0] * p[1]
    outer, report = fit_iterative(grid_samples(f, P26, 1), P26, SPEC6, damping=Fraction(1, 2))
    assert report.residual_max == 0
    assert report.mode == "iterative"
    # the finalized table reproduces every grid target exactly
    axis = [Fraction(j, 6) for j in range(7)]
    system = build_incidence(P26, SPEC6, [(x1, x2) for x1 in axis for x2 in axis], report.depth)
    lookup = {}
    for table in tables(outer):
        lookup.update(zip(table.ys, table.gs))
    for row, point in zip(rows(system), system.points):
        got = sum(lookup[Fraction(system.knots[j], system.unit)] for j in row)
        assert got == f(point)


def test_residuals_past_the_double_range_read_inf():
    samples = grid_samples(lambda p: Fraction(10**400), P26, 1)
    _, report = fit_iterative(samples, P26, SPEC6, finalize=False, max_iter=3)
    assert report.convergence_history == (float("inf"),) * 3
    assert report.to_jsonable()["residual_max"]["approx"] == float("inf")
    # at the edge of the double range: a sup of exactly the largest double reads as
    # that double, one more reads inf (one round at damping 1/2 halves the target)
    top = int(sys.float_info.max)
    for target, first in ((2 * top, sys.float_info.max), (2 * top + 2, float("inf"))):
        samples = grid_samples(lambda p: Fraction(target), P26, 1)
        _, report = fit_iterative(samples, P26, SPEC6, finalize=False, max_iter=1)
        assert report.convergence_history == (first,)


def test_iterative_rejects_bad_knobs():
    samples = grid_samples(lambda p: p[0], P26, 1)
    with pytest.raises(ParameterError):
        fit_iterative(samples, P26, SPEC6, damping=Fraction(3))
    with pytest.raises(ParameterError):
        fit_iterative(samples, P26, SPEC6, tolerance=Fraction(0))
    with pytest.raises(ParameterError):
        fit_iterative(samples, P26, SPEC6, max_iter=0)
    # a bool would run one round, and a float or a str would fail inside the loop
    for max_iter in (True, 2.5, "3"):
        with pytest.raises(ParameterError) as caught:
            fit_iterative(samples, P26, SPEC6, max_iter=max_iter)
        assert str(caught.value) == f"max_iter must be an integer >= 1, got {max_iter!r}"


@pytest.mark.parametrize("den, n, depth", [(11, 40, 1), (1024, 60, 1)])
def test_finalized_iterative_fit_saves_the_exact_fit_model(den, n, depth):
    """Off any grid, with shared knots (and a depth retry for den 1024), the damped
    iteration's exact finish is fit_exact's solve: the same model bytes."""
    rng = random.Random(5)
    points = set()
    while len(points) < n:
        points.add((Fraction(rng.randrange(den + 1), den), Fraction(rng.randrange(den + 1), den)))
    samples = SampleSet(points=tuple(sorted(points)), targets=tuple(x * y - y / 3 for x, y in sorted(points)))
    iterated, report = fit_iterative(samples, P26, SPEC6, depth=depth)
    exact, exact_report = fit_exact(samples, P26, SPEC6, depth=depth)
    assert report.collision_count > 0 and report.residual_max == 0
    assert report.separation == exact_report.separation
    assert save(assemble(SPEC6, P26, iterated)) == save(assemble(SPEC6, P26, exact))


def test_both_fits_refuse_samples_of_another_d():
    samples = _random_samples(2, 5, lambda p: p[0])
    for fit in (fit_exact, fit_iterative):
        with pytest.raises(DomainError, match="points have d = 2, parameters have d = 3"):
            fit(samples, make_params(3, 8), default_inner_spec(8))


def test_grid_samples_in_product_order():
    samples = grid_samples(lambda p: p[0] - 2 * p[1], P26, 1)
    axis = [Fraction(j, 6) for j in range(7)]
    assert samples.points == tuple((x1, x2) for x1 in axis for x2 in axis)
    assert samples.targets == tuple(x1 - 2 * x2 for x1, x2 in samples.points)
    for bad in (float("nan"), float("inf"), None):
        with pytest.raises(DomainError, match=r"target at grid point \(Fraction\(0, 1\), Fraction\(0, 1\)\) is not finite"):
            grid_samples(lambda p: bad, P26, 1)


def _colliding_system(targets):
    """Points equal through depth 10 truncate identically at depth 2, so all
    rows land on the same five knots."""
    base = Fraction(1, 3)
    points = [
        (base + j * Fraction(1, 6**10), base + k * Fraction(1, 6**10))
        for j in range(2)
        for k in range(2)
    ][: len(targets)]
    return build_incidence(P26, SPEC6, points, depth=2)


def test_run_damped_iteration_averages_shared_knots():
    targets = [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]
    system = _colliding_system(targets)
    assert system.knot_count == 5
    g, history, sup = run_damped_iteration(
        system, targets, damping=Fraction(1, 2), tolerance=Fraction(1, 10**6), max_iter=60
    )
    assert system.collision_count == 15
    # identical rows cannot satisfy distinct targets; the iteration settles at
    # the centered residual instead of converging
    assert len(history) == 60
    assert Fraction(1, 2) < sup < Fraction(3, 4)
    # identical incidence makes every knot receive the same averaged update
    assert len(set(g.values())) == 1


def test_sup_wiggle_does_not_trip_divergence_guard():
    """Under full collision the sup residual dips then rises while the sum of
    squares keeps falling; the run must not abort."""
    targets = [Fraction(0), Fraction(10), Fraction(10), Fraction(10)]
    system = _colliding_system(targets)
    g, history, sup = run_damped_iteration(
        system, targets, damping=Fraction(1, 2), tolerance=Fraction(1, 10**6), max_iter=30
    )
    assert system.collision_count == 15
    assert any(b > a for a, b in zip(history, history[1:]))
    assert sup < 10


def test_divergence_guard_trips_on_an_overshooting_damping():
    """Damping past 1 (which fit_iterative refuses) overshoots shared knots, so the
    sum of squares rises in the first round and the guard aborts."""
    targets = [Fraction(0), Fraction(10), Fraction(10), Fraction(10)]
    system = _colliding_system(targets)
    with pytest.raises(IterationDiverged, match="rose from 300 to 975 in round 1 with damping 3"):
        run_damped_iteration(system, targets, Fraction(3), Fraction(1, 10**6), 5)


def _fractions_built(monkeypatch, fn, *args) -> int:
    count = 0
    new = Fraction.__new__

    def counting(cls, *a, **k):
        nonlocal count
        count += 1
        return new(cls, *a, **k)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    fn(*args)
    monkeypatch.undo()
    return count


def test_the_fit_runs_on_integers(monkeypatch):
    """The damped iteration's rounds, the closed form of a point that shares no
    knot, the per-component gram solve and the residual re-check build no
    Fraction: the count does not grow with the rounds, and an all-singleton
    solve and re-check build none, nor does one with multi-row components."""
    targets = [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]
    colliding = _colliding_system(targets).points
    lone = _random_samples(6, 10, lambda p: p[0]).points
    system = build_incidence(P26, SPEC6, colliding + lone, depth=2)
    targets = [x - y / 7 for x, y in system.points]
    counts = [
        _fractions_built(monkeypatch, run_damped_iteration, system, targets, Fraction(1, 3), Fraction(1, 10**100), k)
        for k in (3, 40)
    ]
    assert counts[0] == counts[1] <= 2
    samples = _random_samples(7, 30, lambda p: p[0] / (1 + p[1]))
    system = build_incidence(P26, SPEC6, samples.points, 30)
    assert system.components == []

    def solve_and_check(system, targets):
        _verify_zero_residual(system, targets, _min_norm_solution(system, targets))

    assert _fractions_built(monkeypatch, solve_and_check, system, samples.targets) == 0
    # points just either side of a depth-2 digit boundary differ in branch 0
    # only: separated components of 4 and 2 rows, next to lone points
    step = Fraction(1, 6**5)
    straddlers = [(Fraction(7, 36) + i * step, Fraction(13, 36) + k * step) for i in (-1, 1) for k in (-1, 1)]
    straddlers += [(Fraction(29, 36) + i * step, Fraction(1, 5)) for i in (-1, 1)]
    samples = SampleSet(points=tuple(straddlers) + lone, targets=tuple(x / (1 + y) for x, y in straddlers + list(lone)))
    system = build_incidence(P26, SPEC6, samples.points, depth=2)
    assert sorted(map(len, system.components)) == [2, 4]
    assert separation_check(system).separated
    assert _fractions_built(monkeypatch, solve_and_check, system, samples.targets) == 0


def test_damped_iteration_refuses_work_past_the_cap():
    """300 random 6-bit points at depth 1 share knots, so every round iterates
    all of them and each round's numerators grow by the bits of the damping's
    denominator and of the hit counts; the work cap stops the run long before
    max_iter.  In a child, so a hang fails the test instead of stalling it."""
    code = """
import random
from fractions import Fraction
from ksnet.errors import ParameterError
from ksnet.hashmaps import build_incidence, make_params
from ksnet.inner import default_inner_spec
from ksnet.outer import run_damped_iteration
rng = random.Random(3)
points = set()
while len(points) < 300:
    points.add((Fraction(rng.getrandbits(6), 64), Fraction(rng.getrandbits(6), 64)))
system = build_incidence(make_params(2, 6), default_inner_spec(6), sorted(points), 1)
assert sum(map(len, system.components)) > 250
try:
    run_damped_iteration(system, [x * y for x, y in system.points], Fraction(1, 1000), Fraction(1, 10**6), 10**6)
except ParameterError as exc:
    print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(ksnet.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 0, done.stderr
    assert "work cap" in done.stdout and "damping" in done.stdout and "max_iter 1000000" in done.stdout
