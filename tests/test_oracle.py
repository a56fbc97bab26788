"""Differential tests: the integer pipeline against the Fraction oracle, exact equality."""

import json
import math
import random
from bisect import bisect_left
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksnet.errors import DomainError
from ksnet.hashmaps import build_incidence, check_ranges, make_params, psi_eval
from ksnet.inner import VERIFY_CHUNK, InnerSpec, default_inner_spec, phi_eval, verify_inner
from ksnet.network import FastEvaluator, _plan, assemble, evaluate, load, save
from ksnet.outer import KnotLookup, SampleSet, fit_exact
from oracle import KnotTable, outer_from_tables

# weights with mixed denominators (lcm 18), so den is not 2(base - 1)
ODD_SPEC6 = InnerSpec(
    base=6,
    weights=(Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 9), Fraction(1, 9), Fraction(1, 9)),
)
NETWORKS = [
    (make_params(2, 6), default_inner_spec(6)),
    (make_params(3, 8), default_inner_spec(8)),
    (make_params(2, 6), ODD_SPEC6),
    (make_params(2, 20), default_inner_spec(20)),  # two-digit blocks
]
depths = st.integers(min_value=1, max_value=240)


@st.composite
def unit_coords(draw, base=6):
    """0, 1, terminating base-`base` fractions, dyadics, arbitrary rationals, near-1 values."""
    kind = draw(st.sampled_from(["zero", "one", "terminating", "dyadic", "rational", "near_one"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "one":
        return Fraction(1)
    if kind == "terminating":
        j = draw(st.integers(min_value=1, max_value=8))
        return Fraction(draw(st.integers(min_value=0, max_value=base**j)), base**j)
    if kind == "dyadic":
        return Fraction(draw(st.integers(min_value=0, max_value=2**60)), 2**60)
    if kind == "rational":
        den = draw(st.integers(min_value=1, max_value=10**12))
        return Fraction(draw(st.integers(min_value=0, max_value=den)), den)
    # x + a q >= 1 for the larger branch shifts
    return 1 - Fraction(draw(st.integers(min_value=1, max_value=40)), base * (base - 1) * 7)


@st.composite
def sample_sets(draw):
    """Distinct points of d = 2..4 over a few coordinates per draw, so that they
    repeat, always with 0 and 1 (also as ints), and targets that are ints,
    fractions or large negative integers."""
    d = draw(st.integers(2, 4))
    pool = draw(st.lists(unit_coords(), min_size=1, max_size=4)) + [0, 1, Fraction(0), Fraction(1)]
    points = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * d), min_size=1, max_size=40, unique=True))
    targets = st.integers(-50, 50) | st.fractions() | st.integers(-(10**400), -(10**300))
    return SampleSet(points=tuple(points), targets=tuple(draw(targets) for _ in points))


@given(sample_sets())
@settings(max_examples=80, deadline=None)
def test_sample_hash_matches_the_per_point_formula(samples):
    assert samples.canonical_hash() == oracle.sample_hash(samples)


@st.composite
def network_points(draw):
    params, inner = draw(st.sampled_from(NETWORKS))
    point = tuple(draw(unit_coords(params.gamma)) for _ in range(params.d))
    return params, inner, point


@given(st.sampled_from([default_inner_spec(6), default_inner_spec(8), ODD_SPEC6,
                        default_inner_spec(20), default_inner_spec(70)]),
       unit_coords(), st.integers(min_value=0, max_value=1), depths)
@settings(max_examples=300, deadline=None)
def test_phi_matches_oracle(spec, x, whole, depth):
    x = x + whole if x + whole < 2 else x
    assert phi_eval(spec, x, depth) == oracle.phi_eval(spec, x, depth)


@given(network_points(), depths)
@settings(max_examples=150, deadline=None)
def test_psi_matches_oracle(case, depth):
    params, inner, point = case
    for q in range(params.branch_count):
        assert psi_eval(params, inner, point, q, depth) == oracle.psi_eval(params, inner, point, q, depth)


@given(st.sampled_from(NETWORKS), st.data(), depths)
@settings(max_examples=40, deadline=None)
def test_incidence_matches_oracle(network, data, depth):
    params, inner = network
    points = data.draw(
        st.lists(st.tuples(*[unit_coords(params.gamma)] * params.d), min_size=1, max_size=8, unique=True)
    )
    got = build_incidence(params, inner, points, depth)
    knots, knot_branch, rows = oracle.build_incidence(params, inner, points, depth)
    assert got.unit == params.unit(inner, depth)
    assert (tuple(Fraction(k, got.unit) for k in got.knots), oracle.knot_branches(got.starts), oracle.rows(got)) == (
        knots, knot_branch, rows)
    assert (got.knot_count, got.d, got.n_points) == (len(knots), params.d, len(points))


def _fitted(params, inner, n, seed, f=lambda p: sum(p) / (1 + p[0])):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.getrandbits(40), 2**40) for _ in range(params.d)))
    pts = sorted(pts)
    targets = tuple(f(p) for p in pts)
    outer, report = fit_exact(SampleSet(points=tuple(pts), targets=targets), params, inner)
    return assemble(inner, params, outer, meta={"depth": report.depth}), pts


MODELS = [_fitted(params, inner, 12, seed) for seed, (params, inner) in enumerate(NETWORKS)]
# x1 * x2 on dyadic points: neighbouring knot values often share a denominator
MODELS.append(_fitted(*NETWORKS[0], 40, 7, f=lambda p: p[0] * p[1]))


def _hand_built_model():
    """Knots in branches 0 and 2 only: every other branch falls back to the nearest knot."""
    params, inner = NETWORKS[0]
    empty = KnotTable(ys=(), gs=())
    tables = (
        KnotTable(ys=(Fraction(1, 3), Fraction(2), Fraction(7, 2)), gs=(Fraction(1), Fraction(-2, 3), Fraction(5))),
        empty,
        KnotTable(ys=(Fraction(11), Fraction(25, 2)), gs=(Fraction(3, 7), Fraction(9))),
        empty,
        empty,
    )
    return assemble(inner, params, outer_from_tables(2, tables))


HAND_BUILT = _hand_built_model()


@given(st.integers(min_value=0, max_value=len(MODELS) - 1), st.data(), depths)
@settings(max_examples=80, deadline=None)
def test_evaluate_matches_oracle(which, data, depth):
    """Depth overrides on both sides of the fit depth, fresh points and fitted ones."""
    model, fitted = MODELS[which]
    params = model.params
    if data.draw(st.booleans()):
        point = data.draw(st.sampled_from(fitted))
    else:
        point = tuple(data.draw(unit_coords(params.gamma)) for _ in range(params.d))
    assert evaluate(model, point, depth=depth, with_branches=True) == oracle.evaluate(model, point, depth)


@given(st.tuples(unit_coords(), unit_coords()), depths)
@settings(max_examples=80, deadline=None)
def test_nearest_knot_fallback_matches_oracle(point, depth):
    got = evaluate(HAND_BUILT, point, depth=depth, with_branches=True)
    assert got == oracle.evaluate(HAND_BUILT, point, depth)
    w, err = got[:2]
    wf, errf = FastEvaluator(HAND_BUILT).evaluate(point, depth)
    assert wf == float(w) and Fraction(errf) >= err + abs(Fraction(wf) - w)


def _probes(outer):
    """Knots, midpoints and near neighbours of knots, branch interval ends, gaps and beyond."""
    ys = sorted(y for t in oracle.tables(outer) for y in t.ys)
    probes = set(ys)
    probes.update((a + b) / 2 for a, b in zip(ys, ys[1:]))
    probes.update(y + s for y in ys for s in (Fraction(-1, 10**9), Fraction(1, 10**9)))
    for b in outer.b:
        probes.update((Fraction(b), Fraction(b + 2 * outer.d), Fraction(2 * b + 2 * outer.d + 1, 2)))
    probes.update((Fraction(-1), ys[-1] + 3))
    return sorted(probes)


@pytest.mark.parametrize("model", [HAND_BUILT, MODELS[-1][0]], ids=["hand_built", "product"])
def test_outer_lookup_matches_oracle(model):
    """The plan's integer lookup and window range against g_eval and g_range, at
    the values where rules change: exact knots, ties between two knots, and
    windows that end exactly on a knot."""
    plan = _plan(model, 30)
    scale = plan.lift * model.params.unit(model.inner, 30)
    probes = _probes(model.outer)
    assert all((y * scale).denominator == 1 for y in probes)
    for k, y in enumerate(probes):
        num, _, den = plan.branch(int(y * scale), 0)
        g = num, den
        value = Fraction(num, den * plan.value_den)
        assert value == oracle.g_eval(model.outer, y)
        for top in probes[k : k + 4]:
            lo, hi = oracle.g_range(model.outer, y, top)
            dev, dev_den = plan.deviation(int(y * scale), int(top * scale), g)
            assert Fraction(dev, dev_den * plan.value_den) == max(hi - value, value - lo)


@pytest.mark.parametrize("model", [HAND_BUILT, MODELS[-1][0], MODELS[1][0]], ids=["hand_built", "product", "d3"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_g_eval_matches_oracle(model, data):
    """The integer lookup at any rational: knots, midpoints, interval ends, inter-branch
    gaps, negative values and values past the last interval."""
    outer = model.outer
    top = outer.b[-1] + 2 * outer.d
    y = data.draw(st.one_of(
        st.sampled_from(_probes(outer)),
        st.fractions(min_value=-3, max_value=top + 3, max_denominator=10**12),
    ))
    lookup = KnotLookup(outer, y.denominator)
    num, _, den = lookup.branch(y.numerator * lookup.lift, 0)
    assert Fraction(num, den * lookup.value_den) == oracle.g_eval(outer, y)


# value denominators with no common scale: the plan's one denominator is none of them
VALUE_DENS = (7, 11, 13, 17, 19, 23, 29, 31, 3**5, 2**7)
WINDOW_CASES = ("inside", "ends_on_knot", "crosses", "starts_on_knot", "first_knot", "last_knot", "past_knots", "empty")


def _window_knots(draw, y: Fraction, top: Fraction, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Knot positions in a branch interval [lo, hi] around the branch window [y, top]."""
    case = draw(st.sampled_from(WINDOW_CASES))
    below = y - (y - lo) * Fraction(draw(st.integers(1, 9)), 10)
    above = top + (hi - top) * Fraction(draw(st.integers(1, 9)), 10)
    if case == "inside":
        knots = [below, above]
    elif case == "ends_on_knot":
        knots = [below, top, above]
    elif case == "crosses":
        count = draw(st.integers(1, 3))
        knots = [below, *(y + (top - y) * Fraction(k, count + 1) for k in range(1, count + 1)), above]
    elif case == "starts_on_knot":
        knots = [below, y, above]
    elif case == "first_knot":
        knots = [y, above]
    elif case == "last_knot":
        knots = [below, y]
    elif case == "past_knots":
        knots = [lo, below] if draw(st.booleans()) else [above, hi]
    else:
        knots = []
    return sorted({k for k in knots if lo <= k <= hi})


@given(st.sampled_from(NETWORKS[:2]), st.data(), st.one_of(st.integers(1, 3), depths),
       st.booleans(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_oracle_on_every_window_case(network, data, depth, respell, fallback):
    """Hand-built knots around each branch window: inside one interval, ending on a
    knot, crossing 1-3 knots, starting on a knot or on a branch's first or last
    knot, past a branch's knots, and empty branches that fall back to the
    nearest knot.  Values have unrelated denominators; with `respell` the model
    is loaded with values like "2/4", and with `fallback` PLAN_BITS_LIMIT leaves
    room for the positions but not for one value denominator.  A window that
    starts on a knot and ends before the next knot of its branch takes the
    closed form: deviation, the knot scan, never sees it."""
    params, inner = network
    point = tuple(data.draw(unit_coords(params.gamma)) for _ in range(params.d))
    unit = params.unit(inner, depth)
    width = 2 * params.d
    branches = [oracle.psi_eval(params, inner, point, q, depth) for q in range(params.branch_count)]
    positions = [
        _window_knots(data.draw, value, value + bound, Fraction(b), Fraction(b + width))
        for b, (value, bound) in zip(params.b, branches)
    ]
    if not any(positions):
        positions[0] = [Fraction(params.b[0] + width)]
    # a bound on the plan's position scale, with or without a save and load at depth 30
    scale_bound = math.lcm(unit, params.unit(inner, 30), *(y.denominator for ys in positions for y in ys))
    big = 1 << (scale_bound.bit_length() + 8)  # n / (big + k) with |n| <= 60 keeps a denominator above it
    values = [
        [Fraction(data.draw(st.integers(-60, 60).filter(bool)), big + data.draw(st.integers(0, 10**6)))
         if fallback else Fraction(data.draw(st.integers(-60, 60)), data.draw(st.sampled_from(VALUE_DENS)))
         for _ in ys]
        for ys in positions
    ]
    tables = tuple(KnotTable(ys=tuple(ys), gs=tuple(gs)) for ys, gs in zip(positions, values))
    model = assemble(inner, params, outer_from_tables(params.d, tables))
    if respell:
        factor = data.draw(st.integers(2, 9))
        doc = json.loads(save(model))
        doc["values"] = [f"{g.numerator * factor}/{g.denominator * factor}" for g in map(Fraction, doc["values"])]
        model = load(json.dumps(doc))
    value_den = math.lcm(*(m for gd in model.outer.gd for m in gd))
    scale_bits = math.lcm(unit, model.outer.unit).bit_length()
    assert not fallback or value_den.bit_length() > scale_bits
    limit = model.outer.knot_count * scale_bits
    scans = []
    deviation = KnotLookup.deviation

    def spy(plan, lo, hi, g):
        scans.append((plan, lo, hi))
        return deviation(plan, lo, hi, g)

    with mock.patch("ksnet.outer.PLAN_BITS_LIMIT", limit) if fallback else nullcontext():
        with mock.patch.object(KnotLookup, "deviation", spy):
            got = evaluate(model, point, depth=depth, with_branches=True)
            wf, errf = FastEvaluator(model).evaluate(point, depth)
        assert _plan(model, depth).value_den == (1 if fallback else value_den)
    assert got == oracle.evaluate(model, point, depth)
    w, err = got[:2]
    assert wf == float(w) and Fraction(errf) >= err + abs(Fraction(wf) - w)
    for plan, lo, hi in scans:  # a window from a knot to before the next knot of its branch is closed form
        i = bisect_left(plan.ys, lo)
        if i < len(plan.ys) and plan.ys[i] == lo:
            end = next(e for s, e in plan.spans if s <= i < e)
            assert i + 1 == end or hi >= plan.ys[i + 1], "a window between two knots was scanned"


def test_no_knots_is_a_domain_error():
    params, inner = NETWORKS[0]
    empty = KnotTable(ys=(), gs=())
    model = assemble(inner, params, outer_from_tables(2, (empty,) * 5))
    with pytest.raises(DomainError, match="no knots"):
        evaluate(model, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(DomainError, match="no knots"):
        oracle.evaluate(model, (Fraction(1, 2), Fraction(1, 3)), 30)


PROPERTY_DEPTHS = (1, 2, 30, 240)


def _other_weights(base):
    """Weights 1/3, 1/4 and the rest split evenly: a weight denominator other than the default's."""
    rest = Fraction(5, 12 * (base - 2))
    return InnerSpec(base=base, weights=(Fraction(1, 3), Fraction(1, 4)) + (rest,) * (base - 2))


def _unordered(base):
    """The default spec with the cells of digits 1 .. base-1 in reverse order, so phi is not monotone.
    Every cell stays inside [0, 1] and digit 0 at 0, as the kernel needs."""
    spec = default_inner_spec(base)
    object.__setattr__(spec, "_cnum", (0,) + spec._cnum[:0:-1])
    return spec


@st.composite
def range_sweeps(draw):
    """(params, inner, probe level, depth) for d in {2, 3} and gamma in {2d+2, 2d+3}.  Level 2 is drawn
    for d = 2 only: its grids have at most 50**2 points, d = 3 ones at least 65**3 for the per-point oracle."""
    d = draw(st.sampled_from([2, 3]))
    gamma = 2 * d + 2 + draw(st.integers(0, 1))
    level = draw(st.integers(1, 2 if d == 2 else 1))
    inner = draw(st.sampled_from([default_inner_spec, _other_weights]))(gamma)
    return make_params(d, gamma), inner, level, draw(st.sampled_from(PROPERTY_DEPTHS))


@given(range_sweeps())
@settings(max_examples=30, deadline=None)
def test_check_ranges_matches_the_per_point_sweep(case):
    params, inner, level, depth = case
    got = check_ranges(params, inner, probe_level=level, depth=depth)
    assert got == oracle.check_ranges(params, inner, level, depth)


@pytest.mark.parametrize("d, gamma, level", [(2, 6, 2), (3, 8, 1)])
def test_a_forced_branch_escape_is_listed_at_grid_points_that_leave(d, gamma, level):
    """lam_2 = 6 pushes every branch past b_q + 2d; the observed range must be the sweep's, and every
    listed point a grid point whose window leaves its interval (the sweep lists them all)."""
    params, inner = make_params(d, gamma), default_inner_spec(gamma)
    params.__dict__["lam"] = (Fraction(1), Fraction(6)) + params.lam[2:]  # read by _lam_scaled, not yet cached
    got = check_ranges(params, inner, probe_level=level, depth=30)
    want = oracle.check_ranges(params, inner, level, 30, limit=None)
    assert not got["passed"] and got["violations"]
    keys = ("branches", "min_gap", "points_checked")
    assert [got[k] for k in keys] == [want[k] for k in keys]
    assert set(got["violations"]) <= set(want["violations"])


@given(st.sampled_from([default_inner_spec(6), default_inner_spec(8), ODD_SPEC6, _other_weights(7)])
       | st.builds(_unordered, st.sampled_from([6, 7])),
       st.integers(2, 40), st.sampled_from(PROPERTY_DEPTHS), st.integers(0, 2**32),
       st.sampled_from([1, 2, 3, 7, VERIFY_CHUNK]))
@settings(max_examples=40, deadline=None)
def test_verify_inner_matches_the_per_value_suite(spec, samples, depth, seed, chunk):
    """Chunks of 1, 2, 3 and 7 samples cross many chunk boundaries, of the samples and of
    their 1-4 shift pairs; an unordered spec fails with witnesses."""
    with mock.patch("ksnet.inner.VERIFY_CHUNK", chunk):
        got = verify_inner(spec, samples, depth, seed)
    assert got == oracle.verify_inner(spec, samples, depth, seed)


def test_an_unordered_spec_fails_with_the_per_value_witnesses():
    spec = _unordered(6)
    with mock.patch("ksnet.inner.VERIFY_CHUNK", 7):
        got = verify_inner(spec, samples=40, depth=30, seed=5)
    assert got == oracle.verify_inner(spec, samples=40, depth=30, seed=5)
    assert [c["name"] for c in got["checks"] if not c["passed"]] == ["monotone"]
