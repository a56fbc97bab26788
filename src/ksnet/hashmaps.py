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

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, starmap
from operator import le

from .errors import CoincidentPoints, DomainError, InternalInvariantError, OutsideCube, ParameterError, PointError
from .inner import DEPTH_CAP, InnerSpec, check_depth, phi_extend, phi_scaled
from .linsolve import left_kernel_vector
from .rationals import ONE, ZERO, digit_limit, grid_points

DEFAULT_SERIES_TOLERANCE = Fraction(1, 10**18)
# Largest digit base: the inner function holds one weight per digit, and every model file lists them.
GAMMA_CAP = 10_000


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


def series_count(p: int, d: int, gamma: int, tolerance) -> int:
    """The fewest terms of lam_p whose tail bound is at most `tolerance` (0 for p = 1)."""
    if p < 1 or p > d:
        raise ParameterError(f"p must be in 1..{d}, got {p}")
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ParameterError(f"series tolerance must be positive, got {tolerance}")
    terms = 0 if p == 1 else 1
    while terms and series_tail(p, d, gamma, terms) > tolerance:
        terms += 1
    return terms


def check_dims(d: int, gamma: int) -> None:
    """The dimension rule of every network: d >= 2 and 2d+2 <= gamma <= GAMMA_CAP."""
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")
    if gamma < 2 * d + 2:
        raise ParameterError(f"gamma must be >= 2d+2 = {2 * d + 2}, got {gamma}")
    if gamma > GAMMA_CAP:
        raise ParameterError(f"gamma must be <= {GAMMA_CAP}, got {gamma}")


def branch_offsets(d: int) -> tuple[int, ...]:
    """b_q = (2d+1)q for q = 0..2d: the branch intervals [b_q, b_q + 2d] a unit apart."""
    return tuple((2 * d + 1) * q for q in range(2 * d + 1))


@dataclass(frozen=True)
class HashParams:
    """The universal constants of a (d, gamma) network.

    a shifts coordinates between branches, lam mixes coordinates within a
    branch, and b spaces the branch output intervals [b_q, b_q + 2d] a unit
    apart.  All follow from d, gamma and the series term counts: lam_p is
    the sum of the first series_terms[p - 1] terms of its series, and
    lam_tails[p - 1] bounds the rest (lambda_partial).
    """

    d: int
    gamma: int
    series_terms: tuple[int, ...]

    def __post_init__(self):
        check_dims(self.d, self.gamma)
        if len(self.series_terms) != self.d:
            raise ParameterError(f"need {self.d} series term counts, got {len(self.series_terms)}")
        self._series  # derived at once, so a count lambda_partial refuses fails here

    @cached_property
    def _series(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(lambda_partial(p, self.d, self.gamma, r) for p, r in enumerate(self.series_terms, start=1))

    @cached_property
    def lam(self) -> tuple[Fraction, ...]:
        return tuple(value for value, _ in self._series)

    @cached_property
    def lam_tails(self) -> tuple[Fraction, ...]:
        return tuple(tail for _, tail in self._series)

    @property
    def a(self) -> Fraction:
        return Fraction(1, self.gamma * (self.gamma - 1))

    def branch_inputs(self, values, branches) -> tuple[list[int], list[int]]:
        """x + a q as (numerators, denominators) columns, for each q in `branches`, then each x = n/m in `values`.

        x + a q = (n gamma (gamma - 1) + q m) / (m gamma (gamma - 1)), so phi
        runs on integers and no Fraction is built.  The denominators do not
        depend on q: one branch's list is repeated.
        """
        shift = self.gamma * (self.gamma - 1)
        return [n * shift + q * m for q in branches for n, m in values], [m * shift for _, m in values] * len(branches)

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
    return HashParams(d, gamma, tuple(series_count(p, d, gamma, series_tolerance) for p in range(1, d + 1)))


def mix(params: HashParams, unit: int, values, windows, starts, steps) -> list[tuple[int, int]]:
    """Every branch as (value, window) numerators over `unit` = params.unit(inner, k), where
    phi's depth-k numerators at x_p + a q are values[p][i] and windows[p][i], i = starts[p] + q steps[p].

    Branch q is b_q + sum_p lam_p phi(x_p + a q).  Its window adds the
    inner windows weighted by lam_p and the lam tails applied to the upper
    end of each inner value: both only add mass, so it is one sided.
    """
    _, lam_num, tail_num = params._lam_scaled
    axes = list(zip(lam_num, tail_num, values, windows, starts, steps))
    out = []
    for q, b in enumerate(params.b):
        value, window = b * unit, 0
        for lam, tail, vs, ws, g, k in axes:
            v, w = vs[g + q * k], ws[g + q * k]
            value += lam * v
            window += lam * w + tail * (v + w)
        out.append((value, window))
    return out


def point_branches(params: HashParams, inner: InnerSpec, x, depth: int) -> list[tuple[int, int]]:
    """Every branch at the one point x as (value, window) numerators over params.unit(inner, depth).

    x is checked by checked_points, and a fault raises a DomainError with the reason alone (no
    point index).  phi runs in one kernel call over the d coordinates and every branch, with
    no grouping, so a single call pays for its kernel inputs and little else; batches take
    PointGroups and InnerTable.
    """
    _, pairs, fault = checked_points((x,), params.d)
    if fault is not None:
        raise DomainError(fault.reason) if isinstance(fault, PointError) else fault
    values, windows, _ = phi_scaled(inner, *params.branch_inputs(pairs, range(params.branch_count)), depth)
    d = params.d  # entry p + q d is axis p at branch q
    return mix(params, params.unit(inner, depth), [values] * d, [windows] * d, range(d), [d] * d)


def psi_eval(params: HashParams, inner: InnerSpec, x, q: int, depth: int) -> tuple[Fraction, Fraction]:
    """Branch q at x in [0, 1]^d, depth `depth`, as (value, error_bound): the untruncated
    value lies in [value, value + error_bound].  A bad x raises its reason."""
    if type(q) is not int or not 0 <= q <= 2 * params.d:
        raise DomainError(f"branch index must be an integer in 0..{2 * params.d}, got {q!r}")
    value, window = point_branches(params, inner, x, depth)[q]
    unit = params.unit(inner, depth)
    return Fraction(value, unit), Fraction(window, unit)


def check_ranges(params: HashParams, inner: InnerSpec, probe_level: int = 1, depth: int = 30) -> dict:
    """Sweep the level-`probe_level` grid of [0, 1]^d through every branch, in closed form:
    the "ranges" document of `ksnet check`.

    Confirms each value window [value, value + error_bound] sits inside
    [b_q, b_q + 2d] and measures the observed inter-branch gap (structurally
    at least 1).  Branch q at x is b_q + sum_p lam_p phi(x_p + a q), and its
    window ends at b_q + sum_p (lam_p + tail_p) (phi + window)(x_p + a q).
    The grid's coordinates run independently over one axis of
    gamma**probe_level + 1 values and no lam_p or tail_p is negative, so over
    all (gamma**probe_level + 1)**d points the lowest value is
    b_q + (sum lam) min phi and the highest window end is
    b_q + (sum (lam + tail)) max (phi + window), both extremes over the axis:
    one phi_scaled call per branch.  A branch that leaves its interval is
    listed at the grid point that takes the extreme, with every coordinate at
    the axis value that gives it.  The document holds "passed", "probe_level",
    "points_checked", "min_gap", per branch its "q", "interval" [b_q, b_q + 2d]
    and "observed" [lowest value, highest window end], and the first ten
    "violations"; exact values are fraction strings.
    """
    axis = grid_points(probe_level, params.gamma)
    pairs = [(c.numerator, c.denominator) for c in axis]
    _, lam_num, tail_num = params._lam_scaled
    lam_sum, reach_sum = sum(lam_num), sum(lam_num) + sum(tail_num)
    width = 2 * params.d
    unit = params.unit(inner, depth)
    branches, violations, lo, hi = [], [], [], []
    for q, b in enumerate(params.b):
        values, windows, _ = phi_scaled(inner, *params.branch_inputs(pairs, (q,)), depth)
        low = min(range(len(axis)), key=values.__getitem__)
        high = max(range(len(axis)), key=lambda g: values[g] + windows[g])
        lo.append(b * unit + lam_sum * values[low])
        hi.append(b * unit + reach_sum * (values[high] + windows[high]))
        escaped = ([low] if lo[q] < b * unit else []) + ([high] if hi[q] > (b + width) * unit else [])
        violations += [
            f"q={q}, x={(axis[g],) * params.d}, value={Fraction(b * unit + lam_sum * values[g], unit)}"
            for g in dict.fromkeys(escaped)
        ]
        observed = [str(Fraction(lo[q], unit)), str(Fraction(hi[q], unit))]
        branches.append({"q": q, "interval": [b, b + width], "observed": observed})
    min_gap = Fraction(min(lo[q + 1] - hi[q] for q in range(params.branch_count - 1)), unit)
    return {
        "passed": not violations and min_gap >= 1,
        "probe_level": probe_level,
        "points_checked": len(axis) ** params.d,
        "min_gap": str(min_gap),
        "branches": branches,
        "violations": violations[:10],
    }


def checked_points(points, d: int) -> tuple[tuple, list[tuple[int, int]], Exception | None]:
    """Every point rule but repeats: the points as tuples of Fractions, the (numerator,
    denominator) pairs of the coordinates of the points before the first one at fault, flat,
    and that point's fault (None when there is none).

    The rules, in the order one point is checked: Fraction takes each coordinate (its own
    error otherwise), there are d of them (PointError), each lies in [0, 1] (OutsideCube).
    The first point at fault in input order is the one reported.
    """
    points = tuple(map(tuple, points))
    if not points:
        raise DomainError("need at least one point")
    n, fault = len(points), None
    if not {d}.issuperset(map(len, points)):
        n = next(j for j, point in enumerate(points) if len(point) != d)
        fault = PointError(n, f"expected {d} coordinates, got {len(points[n])}")
    coords = list(chain.from_iterable(points[:n + 1]))
    if not {Fraction}.issuperset(map(type, coords)):
        exact = []
        for point in points[:n + 1]:  # converted before its count is checked
            try:
                exact.append(tuple(map(Fraction, point)))
            except (TypeError, ValueError, ArithmeticError) as exc:
                n, fault = len(exact), exc
                break
        points = (*exact, *points[len(exact):])
        coords = list(chain.from_iterable(points[:n]))
    elif fault is not None:
        del coords[n * d:]
    pairs = list(map(Fraction.as_integer_ratio, coords))
    if pairs and (min(pairs) < (0, 0) or not all(starmap(le, pairs))):
        j, p = divmod(next(i for i, (num, den) in enumerate(pairs) if not 0 <= num <= den), d)
        fault = OutsideCube(j, p + 1, points[j][p])
        del pairs[j * d:]
    return points, pairs, fault


class PointGroups:
    """Points of [0, 1]^d, grouped per axis by coordinate value.

    values[p] lists the distinct coordinates of axis p as (numerator, denominator) pairs
    in order of first appearance, and ids[p][j] is the place of point j's coordinate in
    it, so two points coincide exactly when their ids agree on every axis.  The points
    pass checked_points, and with `distinct` (fits; queries may repeat) no point repeats
    an earlier one.  The first point at fault in input order raises, a bad coordinate
    before a repeat: Fraction's own error, a PointError, OutsideCube or CoincidentPoints.
    """

    def __init__(self, points, d: int, *, distinct: bool = True):
        self.points, pairs, fault = checked_points(points, d)
        self.values: list[list[tuple[int, int]]] = []
        self.ids: list[list[int]] = []
        for p in range(d):  # the points before the first one at fault
            index: dict[tuple[int, int], int] = {}
            self.ids.append([index.setdefault(pair, len(index)) for pair in pairs[p::d]])
            self.values.append(list(index))
        if distinct:
            keys = list(zip(*self.ids))
            if len(set(keys)) < len(keys):
                seen: dict[tuple[int, ...], int] = {}
                for j, key in enumerate(keys):
                    if seen.setdefault(key, j) != j:
                        raise CoincidentPoints(seen[key], j)
        if fault is not None:
            raise fault


class InnerTable:
    """phi(x + a q) for every distinct coordinate x of every axis and every branch q.

    value[p], window[p] and rest[p] are phi_scaled's value, window and rest columns at
    `depth`, and den[p] the denominators of their inputs, one flat list per axis, branch
    after branch: entry q * k + g is taken at x + a q for x = groups.values[p][g],
    k = len(groups.values[p]), so branch q of axis p is the slice [q k, (q + 1) k).  Every
    point's branch values are sums of these entries, so phi runs once per distinct
    coordinate and branch.  deepen() fills each axis with one call of the inner kernel:
    a fresh table from the branch inputs, whose denominators it keeps, a deeper one from
    the stored columns, reading only the new digits and no input again.  The points are
    checked and grouped (PointGroups; a PointGroups is taken as it is).  Fits read all
    points' branch columns (incidence), batch evaluation one point at a time (branches,
    through mix).
    """

    def __init__(self, params: HashParams, inner: InnerSpec, points):
        groups = points if isinstance(points, PointGroups) else PointGroups(points, params.d)
        if len(groups.values) != params.d:
            raise DomainError(f"points have d = {len(groups.values)}, parameters have d = {params.d}")
        self.params, self.inner, self.groups = params, inner, groups
        self.depth = 0
        self.value: list[list[int]] = [[]] * params.d
        self.window, self.rest, self.den = [[]] * params.d, [[]] * params.d, [[]] * params.d

    def deepen(self, depth: int) -> None:
        """Bring the table to `depth`: extended in place from a lower depth, else computed anew."""
        check_depth(depth)
        more, branches = depth - self.depth, range(len(self.params.b))
        if not more:
            return
        extend = 0 < self.depth < depth
        for p, values in enumerate(self.groups.values):
            if extend:
                columns = phi_extend(self.inner, self.value[p], self.window[p], self.rest[p], self.den[p], more)
            else:
                nums, self.den[p] = self.params.branch_inputs(values, branches)
                columns = phi_scaled(self.inner, nums, self.den[p], depth)
            self.value[p], self.window[p], self.rest[p] = columns
        self.depth, self.unit = depth, self.params.unit(self.inner, depth)

    def branches(self, j: int) -> list[tuple[int, int]]:
        """Every branch at point j as (value, window) numerators over params.unit(inner, depth) (mix)."""
        return mix(self.params, self.unit, self.value, self.window, [ids[j] for ids in self.groups.ids],
                   list(map(len, self.groups.values)))

    def incidence(self, depth: int) -> IncidenceSystem:
        """The incidence system of the points at `depth`, the table deepened in place.

        Branch q's column is b_q plus, per axis, the lam-weighted entries of
        the table's branch-q slice, read through the points' ids (no windows:
        a fit needs none).  Values are compared, and kept, as integer
        numerators over one denominator, and each branch's distinct values
        are sorted on their own: the branch ranges are disjoint and
        increasing, so their concatenation is the sorted knot list.  A retry
        calls this again at a higher depth, which reads only the new digits.
        """
        self.deepen(depth)
        params, groups, unit = self.params, self.groups, self.unit
        n = len(groups.points)
        lam_num = params._lam_scaled[1]
        knots: list[int] = []
        starts = [0]
        columns = []
        for q, b in enumerate(params.b):
            column = [b * unit] * n
            for lam, values, ids, k in zip(lam_num, self.value, groups.ids, map(len, groups.values)):
                terms = [lam * v for v in values[q * k:(q + 1) * k]]
                column = [c + terms[g] for c, g in zip(column, ids)]
            distinct = sorted(set(column))
            if knots and distinct[0] <= knots[-1]:
                raise InternalInvariantError(
                    f"branch {q} reaches {Fraction(distinct[0], unit)}, not above branch {q - 1}; "
                    "ranges must be disjoint"
                )
            index = {v: i for i, v in enumerate(distinct, start=len(knots))}
            columns.append(tuple(map(index.__getitem__, column)))
            knots.extend(distinct)
            starts.append(len(knots))
        return IncidenceSystem(
            points=groups.points,
            depth=depth,
            d=params.d,
            unit=unit,
            knots=tuple(knots),
            starts=tuple(starts),
            columns=tuple(columns),
        )


@dataclass
class IncidenceSystem:
    """Points against distinct branch values: the solvability object of a fit.

    Knot i is the value knots[i] / unit.  Branch q holds the sorted knots
    starts[q] .. starts[q + 1] - 1, and columns[q][j] is the knot id point j
    hits in branch q.  The branch ranges are disjoint and increasing, so
    every entry of the matrix is 0 or 1 and every row sums to 2d+1; the fits
    and linsolve rely on this.  row(j), the increasing tuple of point j's
    knot ids, is built on demand, and the components of points that share
    knots are found from the columns on first use.
    """

    points: tuple[tuple[Fraction, ...], ...]
    depth: int
    d: int
    unit: int
    knots: tuple[int, ...]
    starts: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def knot_count(self) -> int:
        return len(self.knots)

    @property
    def collision_count(self) -> int:
        """Knot hits past the first hit of each knot: every row hits 2d+1 distinct knots."""
        return self.n_points * (2 * self.d + 1) - self.knot_count

    def row(self, j: int) -> tuple[int, ...]:
        return tuple(column[j] for column in self.columns)

    @cached_property
    def components(self) -> list[dict[int, tuple[int, ...]]]:
        """The connected components of more than one point, each as {point: row} in input order.

        One union-find over points runs during the column scan: a point that
        hits a knot id an earlier point hit in that column joins it, and
        roots stay the smallest point.  A branch holds at most n_points
        knots, and one with exactly n_points repeats no id, so its column is
        not read; only linked points get rows, so a system whose points
        share no knot costs one comparison per branch and builds no row.
        """
        parent: dict[int, int] = {}  # linked point -> its parent; a root is its smallest point

        def find(j: int) -> int:
            while parent[j] != j:
                parent[j] = parent[parent[j]]
                j = parent[j]
            return j

        for column, lo, hi in zip(self.columns, self.starts, self.starts[1:]):
            if hi - lo < self.n_points:
                first: dict[int, int] = {}
                for j, k in enumerate(column):
                    i = first.setdefault(k, j)
                    if i != j:
                        a, b = find(parent.setdefault(i, i)), find(parent.setdefault(j, j))
                        if a != b:
                            parent[max(a, b)] = min(a, b)
        groups: dict[int, dict[int, tuple[int, ...]]] = {}
        for j in sorted(parent):
            groups.setdefault(find(j), {})[j] = self.row(j)
        return list(groups.values())


def build_incidence(params: HashParams, inner: InnerSpec, points, depth: int) -> IncidenceSystem:
    """Evaluate every branch at every point and tabulate hits on distinct values:
    InnerTable(params, inner, points).incidence(depth)."""
    return InnerTable(params, inner, points).incidence(depth)


@dataclass(frozen=True)
class SeparationVerdict:
    """Exact rank certificate for an incidence system.

    Not separated comes with a witness: point weights, first nonzero scaled
    to +1, that cancel every branch equation (two points whose rows coincide
    at this depth yield (1, -1)).
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


def separation_check(system: IncidenceSystem, stop: bool = False) -> SeparationVerdict:
    """Decide full row rank of the incidence matrix by exact elimination.

    The rank is the points that share no knot plus the ranks of the
    components, each eliminated on its own (left_kernel_vector).  With
    `stop`, a system that is not separated gets the partial rank and witness
    of an elimination that ended at its first dependency: the lone points
    and the pivots found until then.  A separated one gets the full answer.
    """
    rank, kernel = left_kernel_vector(system.n_points, system.components, stop)
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
    The points are checked once (a PointGroups, as SampleSet keeps, is not
    checked again), and every retry extends the same InnerTable from depth
    k to the next depth, reading only the new digits; the depth-k system is
    dropped before the next one is built.  Below the cap only "separated or
    not" is needed, so the elimination of an attempt stops at its first
    dependency; the attempt at the cap gets the full rank and witness.  depth
    and depth_cap pass check_depth before any digit is read.
    """
    check_depth(depth)
    check_depth(depth_cap)
    current = min(depth, depth_cap)
    table = InnerTable(params, inner, points)
    retries = 0
    while True:
        system = table.incidence(current)
        verdict = separation_check(system, stop=current < depth_cap)
        if verdict.separated or current >= depth_cap:
            return system, replace(verdict, retries=retries)
        del system
        current = min(2 * current, depth_cap)
        retries += 1
