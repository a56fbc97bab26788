"""Outer functions on knots, and the two ways to fit them.

A fitted network stores one knot table per branch: the branch values of the
sample points paired with outer-function values.  Between knots the outer
function interpolates linearly inside a branch; beyond a branch's knots it
clamps to the nearest knot of that branch, so its range never leaves the
span of the stored values (bounded targets stay bounded, and edits to one
branch cannot leak into another branch's interval).

fit_exact solves the underdetermined interpolation system exactly, picking
the minimum-Euclidean-norm solution g = M^T (M M^T)^-1 f so the result is
deterministic.  fit_iterative walks the classic damped residual iteration
on the same samples and then (by default) hands the knots to the exact
solver, so the constructive route ends at the same zero-residual guarantee.
Both take a checked SampleSet (grid_samples builds one from a target on a
uniform grid).  Both scatter each point's closed-form value over the
incidence build's branch columns, then write over it the knots of the
connected components of points that share knots, each solved or iterated
on its own.  The filled tables are re-checked against every target.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import ge, lt, mul, sub, truediv

from .errors import (
    DomainError,
    InputError,
    InternalInvariantError,
    IterationDiverged,
    OutsideCube,
    ParameterError,
    PointError,
    SeparationFailure,
)
from .hashmaps import HashParams, IncidenceSystem, PointGroups, SeparationVerdict, branch_offsets, certify_separation
from .inner import InnerSpec
from .linsolve import solve_square
from .rationals import ZERO, grid_points


# Knot integers an outer function or lookup may hold, in bits: knots with
# unrelated denominators (never produced by a fit) can need a common
# denominator that grows with every knot; those are refused, not stored.
PLAN_BITS_LIMIT = 1 << 27
# Work the damped iteration may do, in bit operations: each round multiplies
# the numerator of every iterated row (each shared-knot point, and the lone
# points' largest |f|) by the round's factor, which costs the bits of the
# denominator times those of the factor, plus 2**15 for handling the row.
# Runs that reach the cap take 0.1-0.6 s on a 2-vCPU VM.
ITERATION_WORK_CAP = 4 * 10**9
_FLOAT_MAX = int(sys.float_info.max)


def add_ratios(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d, unreduced."""
    if b == d:
        return a + c, b
    return a * d + c * b, b * d


def ratio_gap(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """|a/b - c/d|, unreduced; neighbouring values often share b = d."""
    if b == d:
        return abs(a - c), b
    return abs(a * d - c * b), b * d


def common_unit(denominators, knot_count: int) -> int:
    """lcm(denominators), unless knot_count integers over it would pass PLAN_BITS_LIMIT.

    The lcm grows one denominator at a time and is refused as soon as it
    passes, so many unrelated denominators cost time bounded by the limit,
    not quadratic in their count.
    """
    unit = 1
    for m in denominators:
        unit = math.lcm(unit, m)
        if unit.bit_length() * knot_count > PLAN_BITS_LIMIT:
            raise DomainError(f"{knot_count} knots need a common denominator of at least {unit.bit_length()} "
                              f"bits, more than the {PLAN_BITS_LIMIT}-bit plan limit")
    return unit


def over_one_denominator(gn, gd) -> tuple[int, list[int], list[int]] | None:
    """The values gn[k] / gd[k] as (G, numerators over G, all-ones denominators), G the
    common_unit of the gd; None when common_unit refuses G."""
    dens = set(gd)
    try:
        den = common_unit(dens, len(gd))
    except DomainError:
        return None
    factors = {m: den // m for m in dens}
    return den, list(map(mul, gn, map(factors.__getitem__, gd))), [1] * len(gd)


@dataclass(frozen=True)
class OuterFunction:
    """Per-branch knot tables over the disjoint intervals [b_q, b_q + 2d]: knot k of
    branch q is ys[q][k] / unit with value gn[q][k] / gd[q][k], gd > 0 (reduced in a fit)."""

    d: int
    unit: int
    ys: tuple[tuple[int, ...], ...]
    gn: tuple[tuple[int, ...], ...]
    gd: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        width = 2 * self.d
        if not len(self.ys) == len(self.gn) == len(self.gd) == width + 1:
            raise ParameterError(f"need {width + 1} branch tables for d = {self.d}, got {len(self.ys)}")
        for q, (b, ys, gn, gd) in enumerate(zip(self.b, self.ys, self.gn, self.gd)):
            if not len(ys) == len(gn) == len(gd):
                raise ParameterError(f"branch {q}: {len(ys)} knots but {len(gn)} values")
            if not all(map(lt, ys, ys[1:])):
                raise ParameterError(f"branch {q}: knots must be strictly increasing")
            if ys and (ys[0] < b * self.unit or ys[-1] > (b + width) * self.unit):
                raise ParameterError(f"branch {q} knots must lie in [{b}, {b + width}]")

    @property
    def b(self) -> tuple[int, ...]:
        return branch_offsets(self.d)

    @property
    def knot_count(self) -> int:
        return sum(map(len, self.ys))


class KnotLookup:
    """An outer function's knots as integers, for values that are integers over `unit`.

    The knots of all branches form one increasing array `ys` of integers over
    scale = lcm(unit, outer.unit), a plain concatenation at unit = outer.unit,
    since branch intervals are disjoint and increasing.  A value v / unit is
    looked up as v * lift.

    Knot values are integer numerators `gn` over one denominator
    value_den = lcm of the value denominators, with every `gd` = 1, when
    value_den's bits times the knot count stay within PLAN_BITS_LIMIT
    (over_one_denominator).  Otherwise value_den = 1 and `gd` keeps the per-knot
    denominators; the same code serves both.  A lookup returns (n, m) for the
    value n / (m * value_den), so value_den is applied once, by the caller.
    """

    def __init__(self, outer: OuterFunction, unit: int):
        scale = outer.unit if unit == outer.unit else common_unit((unit, outer.unit), outer.knot_count)
        self.lift = scale // unit
        knots, factor = itertools.chain.from_iterable(outer.ys), scale // outer.unit
        self.ys = list(knots) if factor == 1 else [y * factor for y in knots]
        gn, gd = list(itertools.chain.from_iterable(outer.gn)), list(itertools.chain.from_iterable(outer.gd))
        self.value_den, self.gn, self.gd = over_one_denominator(gn, gd) or (1, gn, gd)
        self.step = (2 * outer.d + 1) * scale
        self.tops = [(b + 2 * outer.d) * scale for b in outer.b]
        ends = list(itertools.accumulate(map(len, outer.ys)))
        self.spans = list(zip([0] + ends, ends))

    def _find(self, y: int) -> tuple[int, bool]:
        """(i, between) for y / scale, from one search.

        between means ys[i - 1] <= y < ys[i] are knots of the branch interval
        that holds y.  Otherwise the outer function at y is knot i's value: the
        last knot of its branch, a clamp to the branch's end knot, or, outside
        every branch interval and in a branch with no knots, the globally
        nearest knot, ties toward the smaller one.
        """
        ys = self.ys
        q = y // self.step if y >= 0 else -1
        if 0 <= q < len(self.spans) and y <= self.tops[q]:
            lo, hi = self.spans[q]
            if lo < hi:
                i = bisect_left(ys, y, lo, hi)
                if i == hi:
                    return hi - 1, False
                if y == ys[i]:
                    return (i + 1, True) if i + 1 < hi else (i, False)
                return i, lo < i
        i = bisect_left(ys, y)
        return min((j for j in (i - 1, i) if 0 <= j < len(ys)), key=lambda j: (abs(ys[j] - y), ys[j])), False

    def deviation(self, lo: int, hi: int, g: tuple[int, int]) -> tuple[int, int]:
        """max |g(y) - g(lo)| over [lo, hi] as (n, m) for n / (m * value_den), where g = g(lo).

        The outer function is piecewise linear, so the extremes lie at the
        window ends or at knots inside the window.
        """
        ys, gn, gd = self.ys, self.gn, self.gd
        end, _, end_den = self.branch(hi, 0)
        num, den = ratio_gap(*g, end, end_den)
        i = bisect_left(ys, lo)
        while i < len(ys) and ys[i] <= hi:
            n2, d2 = ratio_gap(*g, gn[i], gd[i])
            if n2 * den > num * d2:
                num, den = n2, d2
            i += 1
        return num, den

    def branch(self, y: int, width: int) -> tuple[int, int, int]:
        """g(y) and deviation(y, y + width), as numerators over one denominator m
        (values n / (m * value_den)).

        When the window [y, y + width] starts on or after a knot and ends
        before the next knot of its branch, the outer function is linear on
        it, and the deviation is the closed form |g1 - g0| * width / dy over
        the denominator of g(y).  A window that reaches or crosses a knot,
        starts on a branch's last knot, or lies past the knots of its branch
        is scanned by deviation.
        """
        ys, gn, gd = self.ys, self.gn, self.gd
        i, between = self._find(y)
        if between:
            y0, dy = ys[i - 1], ys[i] - ys[i - 1]
            a0, b0, a1, b1 = gn[i - 1], gd[i - 1], gn[i], gd[i]
            if b0 != b1:
                a0, a1, b0 = a0 * b1, a1 * b0, b0 * b1
            num, den = a0 * dy + (a1 - a0) * (y - y0), b0 * dy
            if y + width < ys[i]:
                return num, abs(a1 - a0) * width, den
        else:
            num, den = gn[i], gd[i]
        if not width:
            return num, 0, den
        dev, dev_den = self.deviation(y, y + width, (num, den))
        if dev_den == den:
            return num, dev, den
        return num * dev_den, dev * den, den * dev_den


@dataclass(frozen=True)
class SampleSet:
    """Distinct sample points in [0, 1]^d with exact targets, checked by PointGroups.

    d is the first point's coordinate count; the first point at fault in input
    order raises, a point with another count as an InputError.  The checked
    groups are kept as `groups` (not a field), so a fit does not check the
    points again.
    """

    points: tuple[tuple[Fraction, ...], ...]
    targets: tuple[Fraction, ...]

    def __post_init__(self):
        targets = tuple(t if type(t) is Fraction else Fraction(t) for t in self.targets)
        if not self.points:
            raise InputError("sample set is empty")
        if len(self.points) != len(targets):
            raise InputError(f"{len(self.points)} points but {len(targets)} targets")
        d = len(self.points[0])
        try:
            groups = PointGroups(self.points, d)
        except OutsideCube:
            raise
        except PointError as exc:  # the coordinate count, the one other PointError
            count = len(self.points[exc.index])
            raise InputError(f"point {exc.index} has {count} coordinates, expected {d}") from None
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "points", groups.points)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])

    def canonical_hash(self) -> str:
        """sha256 of the lines 'x1,...,xd;f' of the points, each number as str(Fraction);
        each distinct coordinate of an axis is spelled once, from `groups`."""
        columns = [map([f"{n}/{m}" if m != 1 else str(n) for n, m in values].__getitem__, ids)
                   for values, ids in zip(self.groups.values, self.groups.ids)]
        line = ",".join(["{}"] * len(columns)) + ";{}"
        return hashlib.sha256("\n".join(map(line.format, *columns, map(str, self.targets))).encode()).hexdigest()


def _approx(num: int, den: int) -> float:
    """float(num / den) for num / den >= 0, or inf past the double range (compared
    exactly, after a bit-length test that settles all but the last doubling)."""
    if num.bit_length() - den.bit_length() < 1023 or num <= _FLOAT_MAX * den:
        return num / den
    return math.inf


@dataclass(frozen=True)
class FitReport:
    """What a fit did: certificate, residuals, iteration trail."""

    mode: str
    residual_max: Fraction
    knot_count: int
    iterations: int
    convergence_history: tuple[float, ...]
    separation: object
    depth: int
    collision_count: int

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode,
            "residual_max": {
                "exact": str(self.residual_max),
                "approx": _approx(self.residual_max.numerator, self.residual_max.denominator),
            },
            "knot_count": self.knot_count,
            "iterations": self.iterations,
            "convergence_history": list(self.convergence_history),
            "collision_count": self.collision_count,
            "depth": self.depth,
            "separation": self.separation.to_jsonable(),
        }


def _column_buckets(rows) -> dict[int, list[int]]:
    """knot -> the points that hit it, for rows given as {point: row}."""
    buckets: dict[int, list[int]] = {}
    for j, row in rows.items():
        for col in row:
            buckets.setdefault(col, []).append(j)
    return buckets


def _reduced(num: int, den: int) -> tuple[int, int]:
    c = math.gcd(num, den)
    return num // c, den // c


def _share(t: Fraction, share_n: int, share_d: int) -> tuple[int, int]:
    """t * share_n / share_d in lowest terms, for t and share_n / share_d in lowest terms:
    the value of every knot of a point that shares none."""
    num, den = t.as_integer_ratio()
    c, e = math.gcd(num, share_d), math.gcd(share_n, den)
    return (num // c) * (share_n // e), (den // e) * (share_d // c)


def _fill(system: IncidenceSystem, targets, share: tuple[int, int], shared: dict) -> list[tuple[int, int]]:
    """Knot values by knot id: each point's target times `share` (a reduced pair) on
    every knot it hits, read from the branch columns, then `shared`, the values
    of the knots of points in components ({knot: value}), written over them."""
    lone = [_share(t, *share) for t in targets]
    values = [None] * system.knot_count
    for column in system.columns:
        for k, v in zip(column, lone):
            values[k] = v
    for k, v in shared.items():
        values[k] = v
    return values


def _min_norm_solution(system: IncidenceSystem, targets) -> list[tuple[int, int]]:
    """g = M^T (M M^T)^-1 f, one connected component of M at a time, as reduced
    (numerator, denominator > 0) pairs by knot id.

    M M^T is block diagonal over the components, and its entry (j, k) is the
    number of knots points j and k share.  A point that shares no knot has
    the 1x1 block 2d+1, so its knots get g = f / (2d+1) with no solve.  Each
    component solves its own integer gram matrix exactly, for its targets
    over one denominator; each knot's value is reduced once.
    """
    g: dict[int, tuple[int, int]] = {}
    for comp in system.components:
        local = {j: k for k, j in enumerate(comp)}
        buckets = _column_buckets(comp)
        gram: list[dict[int, int]] = [{} for _ in comp]
        for hits in buckets.values():
            for j in hits:
                grow = gram[local[j]]
                for k in hits:
                    grow[local[k]] = grow.get(local[k], 0) + 1
        den = math.lcm(*(targets[j].denominator for j in comp))
        u = solve_square(gram, [targets[j].numerator * (den // targets[j].denominator) for j in comp])
        for col, hits in buckets.items():
            num, c = 0, 1
            for j in hits:
                num, c = add_ratios(num, c, *u[local[j]])
            g[col] = _reduced(num, c * den)
    return _fill(system, targets, (1, 2 * system.d + 1), g)


def _outer_table(params: HashParams, system: IncidenceSystem, values: list) -> OuterFunction:
    """The outer function whose knot k is system.knots[k] / unit with value values[k]:
    one slice of each per branch."""
    spans = list(zip(system.starts, system.starts[1:]))
    gn, gd = zip(*(zip(*values[lo:hi]) for lo, hi in spans))
    return OuterFunction(params.d, system.unit, tuple(system.knots[lo:hi] for lo, hi in spans), gn, gd)


def _verify_zero_residual(system: IncidenceSystem, targets, values: list) -> None:
    """Each point's knot values (values[k] by knot id), summed exactly branch column
    by branch column, must give its target."""
    first, *rest = system.columns
    sums = list(map(values.__getitem__, first))
    for column in rest:  # add_ratios, inline
        sums = [(a + c, b) if b == d else (a * d + c * b, b * d)
                for (a, b), (c, d) in zip(sums, map(values.__getitem__, column))]
    for j, ((num, den), t) in enumerate(zip(sums, targets)):
        if num * t.denominator != t.numerator * den:
            raise InternalInvariantError(f"exact solve left a nonzero residual at point {j}")


def _certify(
    samples: SampleSet, params: HashParams, inner: InnerSpec, depth: int, require_separation: bool = True
) -> tuple[IncidenceSystem, SeparationVerdict]:
    """The incidence system and separation verdict of a fit, on the samples' checked groups.

    Raises SeparationFailure (witness attached) if the points stay
    unseparated up to the depth cap and separation is required.
    """
    system, verdict = certify_separation(params, inner, samples.groups, depth)
    if require_separation and not verdict.separated:
        raise SeparationFailure(
            f"samples admit a closed path after {verdict.retries} depth retries "
            f"(final depth {verdict.depth})",
            witness=verdict.witness,
        )
    return system, verdict


def _exact_finish(params: HashParams, system: IncidenceSystem, targets) -> OuterFunction:
    """The minimum-norm knot values of a separated system, with the tables they fill
    read back and re-checked to reproduce every target."""
    outer = _outer_table(params, system, _min_norm_solution(system, targets))
    filled = list(zip(itertools.chain.from_iterable(outer.gn), itertools.chain.from_iterable(outer.gd)))
    _verify_zero_residual(system, targets, filled)
    return outer


def fit_exact(
    samples: SampleSet,
    params: HashParams,
    inner: InnerSpec,
    depth: int = 30,
) -> tuple[OuterFunction, FitReport]:
    """Exact interpolation of the samples, separation gate included.

    Raises SeparationFailure (witness attached) if the points stay
    unseparated up to the depth cap; otherwise the returned outer function
    reproduces every target exactly and the report says residual zero.
    """
    system, verdict = _certify(samples, params, inner, depth)
    outer = _exact_finish(params, system, samples.targets)
    return outer, FitReport(mode="exact", residual_max=ZERO, knot_count=system.knot_count, iterations=0,
                            convergence_history=(), separation=verdict, depth=system.depth,
                            collision_count=system.collision_count)


def run_damped_iteration(
    system: IncidenceSystem,
    targets,
    damping: Fraction,
    tolerance: Fraction,
    max_iter: int,
) -> tuple[dict[int, tuple[int, int]], list[float], Fraction]:
    """The residual iteration on a fixed incidence system.

    Each round spreads damping * residual / (2d+1) onto every knot a point
    hits, averaging when several points share a knot, then re-measures the
    residual.  The sup residual may wiggle when points share knots, but the
    sum of squared residuals never grows for damping in (0, 1] (the update
    matrix has spectrum in [0, 1]); arithmetic is exact, so a rising sum of
    squares indicates a modeling bug and aborts.  Returns (the values of the
    knots of points in components, as reduced (numerator, denominator > 0)
    pairs by knot, sup-residual history, final sup).

    Only the points of the components are iterated.  A point that shares no
    knot has a closed form: its row sums to 2d+1, so each round scales its
    residual by exactly 1 - damping, and after k rounds its knots hold
    f * (1 - (1 - damping)^k) / (2d+1), which the caller fills in.  Such
    points enter each round's sup through their largest |f|, and cannot
    raise the sum of squares.

    All of it runs on integers over one denominator.  With damping p/s and K
    the lcm of the shared-knot hit counts, a knot hit by h points moves by
    p (K/h) times their residual sum, so each round multiplies the
    denominator by s K (2d+1) and the lone points' largest |f| by
    (s - p) K (2d+1).  Each round's work is added up before it runs, and a
    run that would pass ITERATION_WORK_CAP raises ParameterError.
    """
    branch_count = 2 * system.d + 1
    rows = {j: row for comp in system.components for j, row in comp.items()}
    buckets = _column_buckets(rows)
    p, s = damping.numerator, damping.denominator
    hits_lcm = math.lcm(*map(len, buckets.values()))
    step, alone_step = s * hits_lcm * branch_count, (s - p) * hits_lcm * branch_count
    spread = [(col, hits, p * (hits_lcm // len(hits))) for col, hits in buckets.items()]
    top_n, top_d = 0, 1  # the lone points' largest |f|, compared as integer cross-products
    for t_num, t_den in (t.as_integer_ratio() for j, t in enumerate(targets) if j not in rows):
        if abs(t_num) * top_d > top_n * t_den:
            top_n, top_d = abs(t_num), t_den
    den = math.lcm(top_d, *(targets[j].denominator for j in rows))
    residual = {j: targets[j].numerator * (den // targets[j].denominator) for j in rows}
    alone_top = top_n * (den // top_d)
    g = dict.fromkeys(buckets, 0)
    sup = max(alone_top, max(map(abs, residual.values()), default=0))
    sumsq = sum(r * r for r in residual.values())
    tol_n, tol_d = tolerance.numerator, tolerance.denominator
    tol_bits = tol_n.bit_length() - tol_d.bit_length() + 2  # a nonzero sup / den > tolerance past this
    work, iterated, step_bits = 0, len(rows) + 1, step.bit_length()
    history: list[float] = []
    for round_no in range(1, max_iter + 1):
        work += iterated * (den.bit_length() * step_bits + 2**15)
        if work > ITERATION_WORK_CAP:
            raise ParameterError(
                f"damping with a {s.bit_length()}-bit denominator and max_iter {max_iter} pass the work cap "
                f"of the damped iteration in round {round_no}: lower max_iter, or use a simpler damping"
            )
        delta = {col: w * sum(residual[j] for j in hits) for col, hits, w in spread}
        for col, dv in delta.items():
            g[col] = g[col] * step + dv
        for j, row in rows.items():
            residual[j] = residual[j] * step - sum(delta[col] for col in row)
        alone_top *= alone_step
        den *= step
        sup = max(alone_top, max(map(abs, residual.values()), default=0))
        new_sumsq = sum(r * r for r in residual.values())
        if new_sumsq > sumsq * step * step:
            raise IterationDiverged(
                f"squared residual of the shared-knot points rose from {Fraction(sumsq, (den // step) ** 2)} "
                f"to {Fraction(new_sumsq, den * den)} in round {round_no} with damping {damping}"
            )
        sumsq = new_sumsq
        history.append(_approx(sup, den))
        if not sup or sup.bit_length() - den.bit_length() < tol_bits and sup * tol_d <= tol_n * den:
            break
    return {col: _reduced(v, den) for col, v in g.items()}, history, Fraction(sup, den)


def grid_samples(f, params: HashParams, grid_level: int) -> SampleSet:
    """The target oracle f on the level-`grid_level` grid of [0, 1]^d, in product order.

    f takes a point (a tuple of Fractions) and returns a finite exact value.
    """
    axis = grid_points(grid_level, params.gamma)
    points = tuple(itertools.product(axis, repeat=params.d))
    targets = []
    for p in points:
        raw = f(p)
        try:
            t = raw if type(raw) is Fraction else Fraction(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"target at grid point {p} is not finite ({raw!r}); "
                "fit_exact on a restricted sample set avoids the bad region"
            ) from exc
        targets.append(t)
    return SampleSet(points=points, targets=tuple(targets))


def fit_iterative(
    samples: SampleSet,
    params: HashParams,
    inner: InnerSpec,
    depth: int = 30,
    max_iter: int = 100,
    tolerance=Fraction(1, 10**6),
    damping=Fraction(1, 2),
    finalize: bool = True,
) -> tuple[OuterFunction, FitReport]:
    """Damped residual iteration on the samples.

    The iteration trail lands in convergence_history; with finalize=True the
    knot values are then replaced by fit_exact's minimum-norm solve on the
    same system (separation required), so the final residual is exactly zero.
    With finalize=False the iteration also runs on an unseparated system.
    """
    damping = Fraction(damping)
    tolerance = Fraction(tolerance)
    if not 0 < damping <= 1:
        raise ParameterError(f"damping must lie in (0, 1], got {damping}")
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if type(max_iter) is not int or max_iter < 1:
        raise ParameterError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    system, verdict = _certify(samples, params, inner, depth, require_separation=finalize)
    g, history, sup = run_damped_iteration(system, samples.targets, damping, tolerance, max_iter)
    if finalize:
        outer, residual_max = _exact_finish(params, system, samples.targets), ZERO
    else:
        p, s, k = damping.numerator, damping.denominator, len(history)
        share = _reduced(s**k - (s - p) ** k, s**k * (2 * system.d + 1))
        outer, residual_max = _outer_table(params, system, _fill(system, samples.targets, share, g)), sup
    return outer, FitReport(mode="iterative", residual_max=residual_max, knot_count=system.knot_count,
                            iterations=len(history), convergence_history=tuple(history), separation=verdict,
                            depth=system.depth, collision_count=system.collision_count)


def _max_ratio(jumps: list, gaps: list[int], num: int, den: int) -> float:
    """max(jumps[k] / gaps[k]) * num / den rounded to the nearest double (inf past the
    double range), for gaps[k] >= 1.  A jump and a gap each rounded to a double
    give a quotient within three roundings of the exact one when the largest
    is normal, so only quotients within 1e-9 of the largest are compared
    exactly (all of them otherwise), and the largest is divided once."""
    if not any(jumps):
        return 0.0
    try:
        approx = list(map(truediv, map(float, jumps), map(float, gaps)))
        top = max(approx)
    except OverflowError:  # a jump past the double range
        top = 0.0
    keep = compress(count(), map(ge, approx, repeat(top * (1 - 1e-9)))) if top > 1e-300 else range(len(jumps))
    k = max(keep, key=lambda k: Fraction(jumps[k], gaps[k]))
    try:
        return float(jumps[k] * num / (gaps[k] * den))  # int / int rounds correctly
    except OverflowError:
        return math.inf


def merge_report(outer: OuterFunction) -> dict:
    """Knot-table statistics per branch and overall: the "class" document of `ksnet fit`.

    It is the executable face of the class trichotomy.  Bounded targets show
    bounded knot ranges; jump discontinuities surface as adjacent-knot jumps
    that persist while knot spacing shrinks; unbounded targets force knot
    magnitudes of at least max |f| / (2d+1) (pigeonhole over the 2d+1 branch
    contributions).  Exact values are fraction strings, jump ratios floats.

    Each branch's values go over one denominator (over_one_denominator, or as
    Fractions over 1 where it refuses one), so its low, high, largest jump and
    smallest spacing are C-level min and max over differences.  _max_ratio
    rounds the largest jump ratio, which is the largest rounded one.
    """
    branches, lows, highs, jumps_max, ratios, spacings = [], [], [], [], [], []
    for q, (ys, gn, gd) in enumerate(zip(outer.ys, outer.gn, outer.gd)):
        doc = {"q": q, "knot_count": len(ys), "value_range": None, "max_jump": "0", "max_jump_ratio": 0.0,
               "min_spacing": None}
        branches.append(doc)
        if not ys:
            continue
        den, values, _ = over_one_denominator(gn, gd) or (1, list(map(Fraction, gn, gd)), None)
        jumps, gaps = list(map(abs, map(sub, values[1:], values))), list(map(sub, ys[1:], ys))
        lows.append(Fraction(min(values), den))
        highs.append(Fraction(max(values), den))
        jumps_max.append(Fraction(max(jumps, default=0), den))
        ratios.append(_max_ratio(jumps, gaps, outer.unit, den))
        doc.update(value_range=[str(lows[-1]), str(highs[-1])], max_jump=str(jumps_max[-1]), max_jump_ratio=ratios[-1])
        if gaps:
            spacings.append(Fraction(min(gaps), outer.unit))
            doc["min_spacing"] = str(spacings[-1])
    return {
        "total_knots": sum(map(len, outer.ys)),
        "value_range": [str(min(lows)), str(max(highs))] if lows else None,
        "max_abs_value": str(max(map(abs, lows + highs), default=ZERO)),
        "max_jump": str(max(jumps_max, default=ZERO)),
        "max_jump_ratio": max(ratios, default=0.0),
        "min_spacing": None if not spacings else str(min(spacings)),
        "branches": branches,
    }
