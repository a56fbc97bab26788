"""Branch hash maps and the incidence machinery that certifies a sample set solvable.

Branch q shifts every coordinate by a*q, pushes it through the inner
function, mixes the d results with weights lam_p, and offsets the sum by
b_q = (2d+1)q.  Because the mixed sum stays inside [0, 2d] and consecutive
offsets differ by 2d+1, branch value ranges are pairwise disjoint intervals
with gaps of at least 1: values from different branches can never collide.
That is what makes one shared outer function per branch workable, and it
pins every incidence-matrix entry to 0 or 1.

Solvability of a concrete sample set is not assumed, it is tested: the
incidence matrix of points against distinct branch values has full row rank
iff exact interpolation is possible, and a left-kernel vector is a closed
path, a weighting of the points that cancels every branch equation.

At depth k every branch value is an integer over L * den**k (L the lcm of the
lam and lam-tail denominators, den that of the inner weights), so branch
values are computed, sorted and compared as integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, InputError, InternalInvariantError, ParameterError
from .inner import InnerSpec, phi_scaled
from .linsolve import left_kernel_vector
from .rationals import ONE, ZERO, digit_limit, grid_points

DEFAULT_SERIES_TOLERANCE = Fraction(1, 10**18)
DEPTH_CAP = 240


# The most series terms make_params picks: lam_2 of d = 2, gamma = 6 at tolerance
# 1e-3186 (a 12th term's tail bound would have 6372 digits, see series_tail).
SERIES_TERMS_CAP = 11


def _series_exponent(p: int, d: int, r: int) -> int:
    return (p - 1) * (d**r - 1) // (d - 1)


def series_tail(p: int, d: int, gamma: int, terms: int) -> Fraction:
    """The bound gamma/(gamma-1) * gamma**-e(terms+1) on lam_p's later terms; refused
    before it is computed if its denominator would pass digit_limit() (no file holds it)."""
    exponent = _series_exponent(p, d, terms + 1)
    if exponent - 1 > digit_limit() / math.log10(gamma):  # int against float compares exactly
        raise ParameterError(f"lam_{p} after {terms} terms has a tail bound beyond {digit_limit()} digits")
    return Fraction(gamma, (gamma - 1) * gamma**exponent)


def lambda_partial(p: int, d: int, gamma: int, terms: int) -> tuple[Fraction, Fraction]:
    """lam_p over its first `terms` terms (0 for p = 1, else 1..SERIES_TERMS_CAP) and its tail bound."""
    if not (terms == 0 if p == 1 else 1 <= terms <= SERIES_TERMS_CAP):
        raise ParameterError(f"lam_{p} cannot take {terms} series terms")
    if p == 1:
        return ONE, ZERO
    tail = series_tail(p, d, gamma, terms)
    return sum((Fraction(1, gamma ** _series_exponent(p, d, r)) for r in range(1, terms + 1)), ZERO), tail


def lambda_series(p: int, d: int, gamma: int, tolerance) -> tuple[Fraction, Fraction, int]:
    """Truncated mixing weight lam_p with a rigorous tail bound.

    lam_1 is exactly 1.  For p >= 2 the series sum_r gamma**(-(p-1)(d**r-1)/(d-1))
    is summed until the geometric majorant of the remainder,
    gamma**(-e(R+1)) * gamma/(gamma-1), drops to `tolerance` or below.
    Returns (value, tail bound, number of terms summed).
    """
    if p < 1 or p > d:
        raise ParameterError(f"p must be in 1..{d}, got {p}")
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ParameterError(f"series tolerance must be positive, got {tolerance}")
    terms = 0 if p == 1 else 1
    while terms and series_tail(p, d, gamma, terms) > tolerance:
        terms += 1
    return (*lambda_partial(p, d, gamma, terms), terms)


def check_dims(d: int, gamma: int) -> None:
    """The dimension rule of every network: d >= 2 and gamma >= 2d+2."""
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")
    if gamma < 2 * d + 2:
        raise ParameterError(f"gamma must be >= 2d+2 = {2 * d + 2}, got {gamma}")


def branch_offsets(d: int) -> tuple[int, ...]:
    """b_q = (2d+1)q for q = 0..2d: the branch intervals [b_q, b_q + 2d] a unit apart."""
    return tuple((2 * d + 1) * q for q in range(2 * d + 1))


@dataclass(frozen=True)
class HashParams:
    """The universal constants of a (d, gamma) network.

    a shifts coordinates between branches, lam mixes coordinates within a
    branch (truncated values, with rigorous tail bounds carried alongside),
    and b spaces the branch output intervals [b_q, b_q + 2d] a unit apart.
    a and b follow from d and gamma alone.
    """

    d: int
    gamma: int
    lam: tuple[Fraction, ...]
    lam_tails: tuple[Fraction, ...]
    series_terms: tuple[int, ...]

    def __post_init__(self):
        check_dims(self.d, self.gamma)
        if len(self.lam) != self.d or len(self.lam_tails) != self.d:
            raise ParameterError(f"need {self.d} mixing weights, got {len(self.lam)}")
        if self.lam[0] != 1:
            raise ParameterError(f"lam_1 must be exactly 1, got {self.lam[0]}")
        for p, (lam, tail) in enumerate(zip(self.lam, self.lam_tails), start=1):
            if not 0 < lam <= 1:
                raise ParameterError(f"lam_{p} must lie in (0, 1], got {lam}")
            if tail < 0 or lam + tail > 1:
                raise ParameterError(f"lam_{p} tail bound {tail} is inconsistent")

    @property
    def a(self) -> Fraction:
        return Fraction(1, self.gamma * (self.gamma - 1))

    @cached_property
    def b(self) -> tuple[int, ...]:
        return branch_offsets(self.d)

    @property
    def branch_count(self) -> int:
        return 2 * self.d + 1

    @cached_property
    def _lam_scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(L, lam numerators, lam-tail numerators), both over L = lcm of their denominators."""
        lcm = math.lcm(*(v.denominator for v in self.lam + self.lam_tails))
        return (
            lcm,
            tuple(int(v * lcm) for v in self.lam),
            tuple(int(t * lcm) for t in self.lam_tails),
        )

    def unit(self, inner: InnerSpec, depth: int) -> int:
        """The common denominator L * den**depth of every depth-`depth` branch value."""
        return self._lam_scaled[0] * inner._den**depth


def make_params(d: int, gamma: int, series_tolerance=DEFAULT_SERIES_TOLERANCE) -> HashParams:
    """Universal constants for dimension d and base gamma >= 2d+2."""
    check_dims(d, gamma)
    lam, tails, terms = zip(*(lambda_series(p, d, gamma, series_tolerance) for p in range(1, d + 1)))
    return HashParams(d=d, gamma=gamma, lam=lam, lam_tails=tails, series_terms=terms)


@dataclass(frozen=True)
class BranchValue:
    """A truncated branch-map value; the untruncated value lies in [value, value + error_bound]."""

    q: int
    value: Fraction
    error_bound: Fraction

    @property
    def upper(self) -> Fraction:
        return self.value + self.error_bound


def check_point(params: HashParams, x) -> tuple[Fraction, ...]:
    """x as exact coordinates, after checking it has d of them, each in [0, 1]."""
    point = tuple(Fraction(c) for c in x)
    if len(point) != params.d:
        raise DomainError(f"expected {params.d} coordinates, got {len(point)}")
    for p, coord in enumerate(point, start=1):
        if not 0 <= coord <= 1:
            raise DomainError(f"coordinate {p} must lie in [0, 1], got {coord}")
    return point


def branches_scaled(params: HashParams, inner: InnerSpec, point, depth: int) -> list[tuple[int, int]]:
    """Every branch at a checked point as (value, window) numerators over params.unit(inner, depth).

    phi runs at x_p + a q = (n gamma (gamma - 1) + q m) / (m gamma (gamma - 1))
    for x_p = n/m, so no Fraction is built.
    """
    lam_den, lam_num, tail_num = params._lam_scaled
    shift_den = params.gamma * (params.gamma - 1)
    coords = [
        (c.numerator * shift_den, c.denominator * shift_den, c.denominator, lam, tail)
        for c, lam, tail in zip(point, lam_num, tail_num)
    ]
    base = lam_den * inner._den**depth
    out = []
    for q, b in enumerate(params.b):
        value, window = b * base, 0
        for num, den, step, lam, tail in coords:
            v, w = phi_scaled(inner, num + q * step, den, depth)
            value += lam * v
            window += lam * w + tail * (v + w)
        out.append((value, window))
    return out


def psi_eval(params: HashParams, inner: InnerSpec, x, q: int, depth: int) -> BranchValue:
    """Branch q's value at x in [0, 1]^d, truncation depth `depth`.

    The error bound collects the inner truncation widths weighted by lam_p
    plus the lam tail applied to the inner value itself; both effects only
    add mass, so the window is one sided.
    """
    if not 0 <= q <= 2 * params.d:
        raise DomainError(f"branch index must lie in 0..{2 * params.d}, got {q}")
    point = check_point(params, x)
    value, window = branches_scaled(params, inner, point, depth)[q]
    unit = params.unit(inner, depth)
    return BranchValue(q=q, value=Fraction(value, unit), error_bound=Fraction(window, unit))


@dataclass(frozen=True)
class BranchRange:
    q: int
    lo: int
    hi: int
    observed_lo: Fraction
    observed_hi: Fraction

    def to_jsonable(self) -> dict:
        return {
            "q": self.q,
            "interval": [self.lo, self.hi],
            "observed": [str(self.observed_lo), str(self.observed_hi)],
        }


@dataclass(frozen=True)
class RangeReport:
    """Grid-sweep evidence that branch values stay in their disjoint intervals."""

    d: int
    gamma: int
    probe_level: int
    points_checked: int
    branches: tuple[BranchRange, ...]
    violations: tuple[str, ...]
    min_gap: Fraction
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "probe_level": self.probe_level,
            "points_checked": self.points_checked,
            "min_gap": str(self.min_gap),
            "branches": [b.to_jsonable() for b in self.branches],
            "violations": list(self.violations),
        }


def check_ranges(params: HashParams, inner: InnerSpec, probe_level: int = 1, depth: int = 30) -> RangeReport:
    """Sweep the level-`probe_level` grid of [0, 1]^d through every branch.

    Confirms each value window [value, value + error_bound] sits inside
    [b_q, b_q + 2d] and measures the observed inter-branch gap (structurally
    at least 1).  Grid size is (gamma**probe_level + 1)**d, so keep the level
    small for d > 2.
    """
    axis = grid_points(probe_level, params.gamma)
    width = 2 * params.d
    unit = params.unit(inner, depth)
    lo = [None] * params.branch_count
    hi = [None] * params.branch_count
    violations = []
    count = 0
    for point in itertools.product(axis, repeat=params.d):
        count += 1
        for q, (value, window) in enumerate(branches_scaled(params, inner, point, depth)):
            upper = value + window
            if value < params.b[q] * unit or upper > (params.b[q] + width) * unit:
                if len(violations) < 10:
                    violations.append(f"q={q}, x={point}, value={Fraction(value, unit)}")
            if lo[q] is None or value < lo[q]:
                lo[q] = value
            if hi[q] is None or upper > hi[q]:
                hi[q] = upper
    branches = tuple(
        BranchRange(
            q=q,
            lo=params.b[q],
            hi=params.b[q] + width,
            observed_lo=Fraction(lo[q], unit),
            observed_hi=Fraction(hi[q], unit),
        )
        for q in range(params.branch_count)
    )
    min_gap = Fraction(min(lo[q + 1] - hi[q] for q in range(params.branch_count - 1)), unit)
    return RangeReport(
        d=params.d,
        gamma=params.gamma,
        probe_level=probe_level,
        points_checked=count,
        branches=branches,
        violations=tuple(violations),
        min_gap=min_gap,
        passed=not violations and min_gap >= 1,
    )


@dataclass
class IncidenceSystem:
    """Points against distinct branch values: the solvability object of a fit.

    Knot i is the value knots[i] / unit; rows[j] maps knot index to hit count for
    point j.  Every row sums to 2d+1; disjoint branch ranges force entries 0 or 1.
    """

    points: tuple[tuple[Fraction, ...], ...]
    depth: int
    d: int
    unit: int
    knots: tuple[int, ...]
    knot_branch: tuple[int, ...]
    rows: tuple[dict[int, int], ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def knot_count(self) -> int:
        return len(self.knots)

    def row_sums(self) -> list[int]:
        return [sum(row.values()) for row in self.rows]

    def dense(self) -> list[list[int]]:
        return [
            [row.get(col, 0) for col in range(len(self.knots))]
            for row in self.rows
        ]


def build_incidence(params: HashParams, inner: InnerSpec, points, depth: int) -> IncidenceSystem:
    """Evaluate every branch at every point and tabulate hits on distinct values.

    Values are compared, and kept, as integer numerators over one denominator.
    """
    pts = tuple(tuple(Fraction(c) for c in p) for p in points)
    if not pts:
        raise DomainError("need at least one point")
    seen: dict[tuple, int] = {}
    for j, p in enumerate(pts):
        if p in seen:
            raise InputError(f"points must be pairwise distinct; points {seen[p]} and {j} coincide")
        seen[p] = j
    unit = params.unit(inner, depth)
    values = [
        [v for v, _ in branches_scaled(params, inner, check_point(params, p), depth)] for p in pts
    ]
    knots = sorted({v for per_point in values for v in per_point})
    index = {v: i for i, v in enumerate(knots)}
    branch_of: dict[int, int] = {}
    rows = []
    for per_point in values:
        row: dict[int, int] = {}
        for q, v in enumerate(per_point):
            col = index[v]
            row[col] = row.get(col, 0) + 1
            prior = branch_of.setdefault(col, q)
            if prior != q:
                raise InternalInvariantError(
                    f"knot {Fraction(v, unit)} reached from branches "
                    f"{prior} and {q}; ranges must be disjoint"
                )
        if sum(row.values()) != params.branch_count:
            raise InternalInvariantError("incidence row sum differs from 2d+1")
        rows.append(row)
    return IncidenceSystem(
        points=pts,
        depth=depth,
        d=params.d,
        unit=unit,
        knots=tuple(knots),
        knot_branch=tuple(branch_of[i] for i in range(len(knots))),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class SeparationVerdict:
    """Exact rank certificate for an incidence system.

    Not separated comes with a witness: point weights, first nonzero scaled
    to +1, that cancel every branch equation (two coincident generating
    points yield (1, -1)).
    """

    separated: bool
    rank: int
    n_points: int
    knot_count: int
    depth: int
    retries: int = 0
    witness: tuple[Fraction, ...] | None = None

    def to_jsonable(self) -> dict:
        return {
            "separated": self.separated,
            "rank": self.rank,
            "n_points": self.n_points,
            "knot_count": self.knot_count,
            "depth": self.depth,
            "retries": self.retries,
            "witness": None if self.witness is None else [str(w) for w in self.witness],
        }


def separation_check(system: IncidenceSystem) -> SeparationVerdict:
    """Decide full row rank of the incidence matrix by exact elimination."""
    rank, kernel = left_kernel_vector(system.rows)
    return SeparationVerdict(
        separated=kernel is None,
        rank=rank,
        n_points=system.n_points,
        knot_count=system.knot_count,
        depth=system.depth,
        witness=kernel,
    )


def certify_separation(
    params: HashParams,
    inner: InnerSpec,
    points,
    depth: int,
    depth_cap: int = DEPTH_CAP,
) -> tuple[IncidenceSystem, SeparationVerdict]:
    """Separation with adaptive refinement: on failure, double the depth up to the cap.

    Collisions caused by truncation dissolve at higher depth; a collision
    that survives the cap is reported as not separated, witness attached.
    """
    current = min(depth, depth_cap)
    retries = 0
    while True:
        system = build_incidence(params, inner, points, current)
        verdict = separation_check(system)
        if verdict.separated or current >= depth_cap:
            return system, replace(verdict, retries=retries)
        current = min(2 * current, depth_cap)
        retries += 1
