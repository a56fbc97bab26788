"""Reference pipelines: the differential oracles for the integer evaluation path,
for the per-component solves, and for the integer knot tables.

The evaluation functions work on normalized `Fraction`s one digit and one
knot at a time, exactly as the library did before evaluation moved to scaled
integers; tests require the library to agree with them exactly (value, error
bound and per-branch contributions).  The solve functions treat the whole
incidence system as one block, as the library did before it split systems
into connected components: a global elimination in input order, a global
gram matrix, and a damped iteration that updates every point every round.
Tests require identical ranks, witnesses, knot values and histories.
component_solution, outer_from_knots, certify and the two fits are the fit
as it ran before systems whose points share no knot took a closed form:
components and a per-component solve on every system, every certificate by
elimination, and tables filled one knot at a time.  They find components
with their own union-find over the incidence rows and read knot branches
off `starts` (knot_branches), so a wrong component finder in the library
shows as a different model.  row_components gives any rows' components in
the library's shape, by a flood over shared columns, so the elimination is
tested on rows no incidence system has.  merge_report, save and
load work on Fraction knot tables read off the integer outer function
(`tables`), as the library did before knots stayed integers from the fit to
the file; KnotTable and outer_from_tables are that hand-built form.  save
and load are an independent format-2 reference: positions y * unit, values
numbered by first appearance of their Fractions, every literal and token
parsed one at a time.
parse_rational is the Fraction parse the library's fast path must agree
with.  check_ranges and verify_inner are the property checks
as they were before they read the inner kernel in closed form and in chunks:
a sweep over every grid point, and a suite that reads phi once per value.
rows spells out a system's incidence rows, and sample_hash spells the sample
hash point by point, not once per distinct coordinate.
check_point is the point rule of evaluation applied to one point at a time,
which PointGroups must agree with at the first point at fault of a batch.
All of it is deliberately slow and simple.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import sympy

from ksnet.errors import (
    AssemblyError,
    DomainError,
    InputError,
    InternalInvariantError,
    IterationDiverged,
    ModelFormatError,
    ParameterError,
    SeparationFailure,
)
from ksnet.hashmaps import DEPTH_CAP, HashParams, SeparationVerdict, check_dims
from ksnet.hashmaps import build_incidence as build_incidence_system
from ksnet.linsolve import solve_square
from ksnet.inner import InnerSpec
from ksnet.network import FORMAT_VERSION, assemble
from ksnet.outer import FitReport, OuterFunction, common_unit
from ksnet.rationals import ONE, ZERO, grid_points


@dataclass(frozen=True)
class KnotTable:
    """Sorted exact knots of one branch with their outer-function values."""

    ys: tuple[Fraction, ...]
    gs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.ys) != len(self.gs):
            raise ParameterError(f"{len(self.ys)} knots but {len(self.gs)} values")
        for a, b in zip(self.ys, self.ys[1:]):
            if a >= b:
                raise ParameterError(f"knots must be strictly increasing, got {a} then {b}")


def outer_from_tables(d: int, tables, unit: int | None = None) -> OuterFunction:
    """Hand-built KnotTables as an integer outer function over `unit`, by default the lcm
    of their knot denominators."""
    if unit is None:
        unit = common_unit({y.denominator for t in tables for y in t.ys}, sum(len(t.ys) for t in tables))
    scaled = tuple(tuple(y * unit for y in t.ys) for t in tables)
    if any(y.denominator != 1 for ys in scaled for y in ys):
        raise ParameterError(f"a knot position is not an integer over {unit}")
    ys = tuple(tuple(y.numerator for y in t) for t in scaled)
    gn = tuple(tuple(g.numerator for g in t.gs) for t in tables)
    gd = tuple(tuple(g.denominator for g in t.gs) for t in tables)
    return OuterFunction(d, unit, ys, gn, gd)


_last_tables: list = [None, ()]


def tables(outer) -> tuple[KnotTable, ...]:
    """The outer function's knots as Fraction tables, one per branch; the last
    outer function's tables are kept, so repeated lookups build them once."""
    if _last_tables[0] is not outer:
        _last_tables[:] = outer, tuple(
            KnotTable(
                ys=tuple(Fraction(y, outer.unit) for y in ys),
                gs=tuple(Fraction(n, m) for n, m in zip(gn, gd)),
            )
            for ys, gn, gd in zip(outer.ys, outer.gn, outer.gd)
        )
    return _last_tables[1]


def phi_eval(spec, x, depth: int) -> tuple[Fraction, Fraction]:
    """(value, error_bound): phi truncated after `depth` digits and the width of its digit cell."""
    x = Fraction(x)
    integer_part, rest = divmod(x.numerator, x.denominator)
    num = 0
    prefix = 1
    for _ in range(depth):
        d, rest = divmod(rest * spec.base, x.denominator)
        num = num * spec._den + spec._cnum[d] * prefix
        prefix *= spec._wnum[d]
    scale = spec._den**depth
    value = integer_part + Fraction(num, scale)
    if rest == 0 and num == 0:
        return Fraction(integer_part), ZERO
    return value, Fraction(prefix, scale)


def check_point(params, x) -> tuple[Fraction, ...]:
    """x as exact coordinates, after checking it has d of them, each in [0, 1]."""
    point = tuple(Fraction(c) for c in x)
    if len(point) != params.d:
        raise DomainError(f"expected {params.d} coordinates, got {len(point)}")
    for p, coord in enumerate(point, start=1):
        if not 0 <= coord <= 1:
            raise DomainError(f"coordinate {p} must lie in [0, 1], got {coord}")
    return point


def psi_eval(params, inner, x, q: int, depth: int) -> tuple[Fraction, Fraction]:
    """(value, error_bound) of branch q at x: b_q + sum_p lam_p phi(x_p + a q) and its one-sided window."""
    if type(q) is not int or not 0 <= q <= 2 * params.d:
        raise DomainError(f"branch index must be an integer in 0..{2 * params.d}, got {q!r}")
    point = check_point(params, x)
    value = Fraction(params.b[q])
    error = ZERO
    shift = params.a * q
    for lam, tail, coord in zip(params.lam, params.lam_tails, point):
        v, e = phi_eval(inner, coord + shift, depth)
        value += lam * v
        error += lam * e + tail * (v + e)
    return value, error


def phi_exact(spec, x) -> Fraction:
    """phi at a terminating x in [0, 2): phi_eval at the fewest digits that read all of x."""
    x = Fraction(x)
    den, depth = x.denominator, 0
    while den > 1:
        g = math.gcd(den, spec.base)
        if g == 1:
            raise DomainError(f"{x} does not terminate in base {spec.base}")
        den //= g
        depth += 1
    return phi_eval(spec, x, depth)[0]


def check_ranges(params, inner, probe_level: int, depth: int, limit: int | None = 10) -> dict:
    """The per-point sweep: every level-`probe_level` grid point through every branch, as the "ranges" document.

    Branch values are integer numerators over lcm(lam, lam-tail
    denominators) * den**depth, summed per point from phi_eval's values,
    which are read once per distinct branch input.  At most `limit`
    violations are listed, in grid order (None lists them all).
    """
    axis = grid_points(probe_level, params.gamma)
    lcm = math.lcm(*(v.denominator for v in params.lam + params.lam_tails))
    lam = [int(v * lcm) for v in params.lam]
    tail = [int(t * lcm) for t in params.lam_tails]
    scale = inner._den**depth
    unit = lcm * scale
    phi = {}
    for q in range(params.branch_count):
        for x in axis:
            v, e = phi_eval(inner, x + params.a * q, depth)
            phi[q, x] = int(v * scale), int(e * scale)
    width = 2 * params.d
    lo, hi, violations = {}, {}, []
    for point in itertools.product(axis, repeat=params.d):
        for q, b in enumerate(params.b):
            value, window = b * unit, 0
            for lam_p, tail_p, x in zip(lam, tail, point):
                v, w = phi[q, x]
                value += lam_p * v
                window += lam_p * w + tail_p * (v + w)
            if value < b * unit or value + window > (b + width) * unit:
                violations.append(f"q={q}, x={point}, value={Fraction(value, unit)}")
            lo[q] = min(lo.get(q, value), value)
            hi[q] = max(hi.get(q, value + window), value + window)
    branches = [
        {"q": q, "interval": [b, b + width], "observed": [str(Fraction(lo[q], unit)), str(Fraction(hi[q], unit))]}
        for q, b in enumerate(params.b)
    ]
    min_gap = Fraction(min(lo[q + 1] - hi[q] for q in range(params.branch_count - 1)), unit)
    return {
        "passed": not violations and min_gap >= 1,
        "probe_level": probe_level,
        "points_checked": len(axis) ** params.d,
        "min_gap": str(min_gap),
        "branches": branches,
        "violations": violations[:limit],
    }


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _property(name: str, violations: int, detail: str, witness: str | None) -> dict:
    check = {"name": name, "passed": violations == 0, "detail": detail}
    if witness is not None:
        check["witness"] = witness
    return check


def verify_inner(spec, samples: int, depth: int, seed: int) -> dict:
    """The per-value property suite: one phi_eval or phi_exact call per value, one count-and-witness loop
    per property, the inputs drawn as the library draws them; the "inner" document."""
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    shift_samples = max(1, samples // 10)
    rng = random.Random(seed)
    denom = 2**53
    points = sorted(Fraction(rng.randrange(denom + 1), denom) for _ in range(samples))
    values = [phi_eval(spec, x, depth) for x in points]
    checks = []

    violations, witness = 0, None
    for (x, vx), (y, vy) in zip(zip(points, values), zip(points[1:], values[1:])):
        if x != y and vx[0] > vy[0] + vx[1] + vy[1]:
            violations += 1
            witness = witness or f"x={x}, y={y}"
    checks.append(_property("monotone", violations,
                            f"{violations} violations over {samples - 1} sorted adjacent pairs", witness))

    alpha = math.log(2) / math.log(spec.base)
    violations, witness, max_log_c = 0, None, -math.inf
    for _ in range(samples):
        a = Fraction(rng.randrange(denom + 1), denom)
        b = Fraction(rng.randrange(denom + 1), denom)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        dphi = phi_eval(spec, b, depth)[0] - phi_eval(spec, a, depth)[0]
        if dphi == 0:
            continue
        log_c = _log_fraction(abs(dphi)) - alpha * _log_fraction(b - a)
        max_log_c = max(max_log_c, log_c)
        if log_c > math.log(4):
            violations += 1
            witness = witness or f"x={a}, y={b}"
    measured = math.exp(max_log_c) if max_log_c > -math.inf else 0.0
    checks.append(_property("holder", violations, (
        f"measured constant {measured:.6f} against bound 4 with exponent "
        f"ln2/ln{spec.base}, {violations} violations over {samples} pairs"
    ), witness))

    violations, witness = 0, None
    for _ in range(shift_samples):
        r = rng.randint(1, 6)
        t = Fraction(rng.randrange(spec.base**r), spec.base**r)
        if phi_exact(spec, t + 1) != phi_exact(spec, t) + 1:
            violations += 1
            witness = witness or f"t={t}"
    checks.append(_property("shift", violations,
                            f"{violations} violations over {shift_samples} terminating rationals", witness))

    violations, witness = 0, None
    for x, v in zip(points + [ZERO, ONE], values + [phi_eval(spec, ZERO, depth), phi_eval(spec, ONE, depth)]):
        if v[0] < 0 or v[0] + v[1] > 1:
            violations += 1
            witness = witness or f"x={x}"
    checks.append(_property("range", violations,
                            f"{violations} range escapes from [0, 1] over {samples + 2} points", witness))
    passed = all(check["passed"] for check in checks)
    return {"passed": passed, "samples": samples, "depth": depth, "seed": seed, "checks": checks}


def build_incidence(params, inner, points, depth: int):
    """(knots as Fractions, knot branches, rows)."""
    pts = tuple(tuple(Fraction(c) for c in p) for p in points)
    seen: dict[tuple, int] = {}
    for j, p in enumerate(pts):
        if p in seen:
            raise InputError(f"points must be pairwise distinct; points {seen[p]} and {j} coincide")
        seen[p] = j
    values = [
        [psi_eval(params, inner, p, q, depth)[0] for q in range(params.branch_count)]
        for p in pts
    ]
    knots = sorted({v for per_point in values for v in per_point})
    index = {v: i for i, v in enumerate(knots)}
    branch_of: dict[int, int] = {}
    rows = []
    for per_point in values:
        row = tuple(index[v] for v in per_point)
        for q, (v, col) in enumerate(zip(per_point, row)):
            if branch_of.setdefault(col, q) != q:
                raise InternalInvariantError(f"knot {v} reached from two branches")
        rows.append(row)
    return tuple(knots), tuple(branch_of[i] for i in range(len(knots))), tuple(rows)


def _interp(table, y: Fraction) -> Fraction:
    ys, gs = table.ys, table.gs
    if y <= ys[0]:
        return gs[0]
    if y >= ys[-1]:
        return gs[-1]
    i = bisect_left(ys, y)
    if ys[i] == y:
        return gs[i]
    y0, y1 = ys[i - 1], ys[i]
    return gs[i - 1] + (gs[i] - gs[i - 1]) * (y - y0) / (y1 - y0)


def g_eval(outer, y) -> Fraction:
    if outer.knot_count == 0:
        raise DomainError("outer function has no knots")
    y = Fraction(y)
    width = 2 * outer.d
    q = int(y // (width + 1)) if y >= 0 else -1
    if 0 <= q <= width and y <= outer.b[q] + width and tables(outer)[q].ys:
        return _interp(tables(outer)[q], y)
    best = None
    for table in tables(outer):
        i = bisect_left(table.ys, y)
        for j in (i - 1, i):
            if 0 <= j < len(table.ys):
                key = (abs(table.ys[j] - y), table.ys[j])
                if best is None or key < best[0]:
                    best = (key, table.gs[j])
    return best[1]


def g_range(outer, lo, hi) -> tuple[Fraction, Fraction]:
    """Exact min and max of the outer function over [lo, hi]: window ends and interior knots."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise DomainError(f"empty window [{lo}, {hi}]")
    g_lo = g_eval(outer, lo)
    g_hi = g_eval(outer, hi)
    vmin, vmax = min(g_lo, g_hi), max(g_lo, g_hi)
    for table in tables(outer):
        i = bisect_left(table.ys, lo)
        while i < len(table.ys) and table.ys[i] <= hi:
            vmin, vmax = min(vmin, table.gs[i]), max(vmax, table.gs[i])
            i += 1
    return vmin, vmax


def evaluate(model, x, depth: int):
    """(w, error_bound, per-branch contributions) at x, all exact."""
    w = ZERO
    error = ZERO
    contributions = []
    for q in range(model.params.branch_count):
        value, bound = psi_eval(model.params, model.inner, x, q, depth)
        gq = g_eval(model.outer, value)
        w += gq
        if bound:
            lo, hi = g_range(model.outer, value, value + bound)
            error += max(hi - gq, gq - lo)
        contributions.append(gq)
    return w, error, tuple(contributions)


def rows(system) -> tuple[tuple[int, ...], ...]:
    """The incidence rows of a system: each point's increasing tuple of knot ids."""
    return tuple(map(system.row, range(system.n_points)))


def dense(system) -> list[list[int]]:
    """The incidence matrix of a system as dense rows."""
    return [[row.count(col) for col in range(system.knot_count)] for row in rows(system)]


def row_sums(system) -> list[int]:
    return [len(row) for row in rows(system)]


def _sub_scaled(target: dict, source: dict, factor: Fraction) -> None:
    # target -= factor * source, dropping entries that cancel to zero
    for col, val in source.items():
        new = target.get(col, ZERO) - factor * val
        if new:
            target[col] = new
        else:
            target.pop(col, None)


def left_kernel_vector(rows):
    """Rank and first left-kernel witness by one reduced-pivot elimination over all
    rows (tuples of the columns that hold a 1), on Fractions."""
    n = len(rows)
    pivots = []  # (pivot column, reduced row, transform)
    witness = None
    for idx in range(n):
        row = {}
        for col in rows[idx]:
            row[col] = row.get(col, ZERO) + ONE
        trans = {idx: ONE}
        for pcol, prow, ptrans in pivots:
            coeff = row.get(pcol)
            if coeff:
                factor = coeff / prow[pcol]
                _sub_scaled(row, prow, factor)
                _sub_scaled(trans, ptrans, factor)
        if not row:
            if witness is None:
                mu = [ZERO] * n
                for j, coeff in trans.items():
                    mu[j] = coeff
                lead = next(c for c in mu if c)
                witness = tuple(c / lead for c in mu)
            continue
        pcol = min(row)
        for _, prow, ptrans in pivots:
            coeff = prow.get(pcol)
            if coeff:
                factor = coeff / row[pcol]
                _sub_scaled(prow, row, factor)
                _sub_scaled(ptrans, trans, factor)
        pivots.append((pcol, row, trans))
    return len(pivots), witness


def _column_buckets(system):
    buckets = {}
    for j, row in enumerate(rows(system)):
        for col in row:
            buckets.setdefault(col, []).append(j)
    return buckets


def min_norm_solution(system, targets):
    """g = M^T (M M^T)^-1 f with one gram matrix over all points, solved by sympy."""
    n = system.n_points
    buckets = _column_buckets(system)
    gram = [{} for _ in range(n)]
    for hits in buckets.values():
        for j in hits:
            for k in hits:
                gram[j][k] = gram[j].get(k, 0) + 1
    matrix = sympy.Matrix(n, n, lambda j, k: gram[j].get(k, 0))
    if matrix.rank() < n:
        raise InternalInvariantError("singular gram matrix")
    solved = matrix.LUsolve(sympy.Matrix([sympy.Rational(t.numerator, t.denominator) for t in targets]))
    u = [Fraction(int(v.p), int(v.q)) for v in solved]
    return {col: sum(u[j] for j in hits) for col, hits in buckets.items()}


def collision_count(system) -> int:
    """Knot hits past the first hit of each knot, counted knot by knot."""
    return sum(len(hits) - 1 for hits in _column_buckets(system).values())


def run_damped_iteration(system, targets, damping, tolerance, max_iter):
    """The damped residual iteration, every point and every knot updated each round."""
    branch_count, incidence = 2 * system.d + 1, rows(system)
    buckets = _column_buckets(system)
    g = {col: ZERO for col in buckets}
    residual = [Fraction(t) for t in targets]
    sup = max((abs(r) for r in residual), default=ZERO)
    sumsq = sum((r * r for r in residual), ZERO)
    history = []
    for round_no in range(1, max_iter + 1):
        delta = {}
        for col, hits in buckets.items():
            total = sum(residual[j] for j in hits)
            delta[col] = damping * total / (len(hits) * branch_count)
        for col, dv in delta.items():
            g[col] += dv
        for j, row in enumerate(incidence):
            residual[j] -= sum(delta[col] for col in row)
        new_sumsq = sum((r * r for r in residual), ZERO)
        if new_sumsq > sumsq:
            raise IterationDiverged(f"squared residual rose in round {round_no}")
        sumsq = new_sumsq
        sup = max((abs(r) for r in residual), default=ZERO)
        history.append(float(sup))
        if sup <= tolerance:
            break
    return g, history, sup


def components(system) -> list[list[int]]:
    """Every connected component of the incidence rows, one point or more, each in
    point order and listed by first point: a union-find over _column_buckets."""
    parent = list(range(system.n_points))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for hits in _column_buckets(system).values():
        for j in hits[1:]:
            a, b = sorted((root(hits[0]), root(j)))
            parent[b] = a
    groups = {}
    for j in range(system.n_points):
        groups.setdefault(root(j), []).append(j)
    return list(groups.values())


def row_components(rows) -> list[dict[int, tuple[int, ...]]]:
    """The connected components of more than one of any rows (tuples of columns), each
    {row index: row} in input order and listed by first row, as
    IncidenceSystem.components gives them: a flood over rows that share a column."""
    comps, seen = [], set()
    for start in range(len(rows)):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            cols = set(rows[frontier.pop()])
            linked = {k for k, row in enumerate(rows) if k not in comp and cols & set(row)}
            comp |= linked
            frontier += linked
        seen |= comp
        if len(comp) > 1:
            comps.append({k: rows[k] for k in sorted(comp)})
    return comps


def knot_branches(starts) -> tuple[int, ...]:
    """The branch of every knot id, from the branch boundaries `starts`."""
    return tuple(q for q, (lo, hi) in enumerate(zip(starts, starts[1:])) for _ in range(lo, hi))


def component_solution(system, targets) -> dict:
    """The min-norm solve one connected component at a time, on every system, as
    reduced (numerator, denominator) pairs by knot: a lone point's knots get
    f / (2d+1), each larger component solves its integer gram matrix."""
    incidence, branch_count = rows(system), 2 * system.d + 1
    g = {}
    for comp in components(system):
        if len(comp) == 1:
            t = targets[comp[0]]
            c = math.gcd(t.numerator, branch_count)
            for col in incidence[comp[0]]:
                g[col] = t.numerator // c, t.denominator * (branch_count // c)
            continue
        local = {j: k for k, j in enumerate(comp)}
        buckets = {}
        for j in comp:
            for col in incidence[j]:
                buckets.setdefault(col, []).append(j)
        gram = [{} for _ in comp]
        for hits in buckets.values():
            for j in hits:
                for k in hits:
                    gram[local[j]][local[k]] = gram[local[j]].get(local[k], 0) + 1
        den = math.lcm(*(targets[j].denominator for j in comp))
        u = solve_square(gram, [targets[j].numerator * (den // targets[j].denominator) for j in comp])
        for col, hits in buckets.items():
            value = sum((Fraction(*u[local[j]]) for j in hits), ZERO) / den
            g[col] = value.numerator, value.denominator
    return g


def outer_from_knots(params, system, g) -> OuterFunction:
    """The outer function of knot values g (pairs by knot id), filled one knot at a time."""
    tables = [([], [], []) for _ in range(params.branch_count)]
    for col, (y, q) in enumerate(zip(system.knots, knot_branches(system.starts))):
        for column, v in zip(tables[q], (y, *g.get(col, (0, 1)))):
            column.append(v)
    return OuterFunction(params.d, system.unit, *(tuple(map(tuple, v)) for v in zip(*tables)))


def certify(params, inner, points, depth: int, depth_cap: int = DEPTH_CAP):
    """The system and verdict of certify_separation: fresh builds at doubling depths,
    each decided by the global elimination."""
    current, retries = min(depth, depth_cap), 0
    while True:
        system = build_incidence_system(params, inner, points, current)
        rank, witness = left_kernel_vector(rows(system))
        if witness is None or current >= depth_cap:
            return system, SeparationVerdict(witness is None, rank, system.n_points, system.knot_count, current,
                                             retries, witness)
        current, retries = min(2 * current, depth_cap), retries + 1


def fit_exact(samples, params, inner, depth: int = 30):
    """fit_exact through certify, component_solution and outer_from_knots."""
    system, verdict = certify(params, inner, samples.points, depth)
    if not verdict.separated:
        raise SeparationFailure("unseparated", witness=verdict.witness)
    outer = outer_from_knots(params, system, component_solution(system, samples.targets))
    return outer, FitReport(mode="exact", residual_max=ZERO, knot_count=system.knot_count, iterations=0,
                            convergence_history=(), separation=verdict, depth=system.depth,
                            collision_count=collision_count(system))


def fit_iterative(samples, params, inner, depth, max_iter, tolerance, damping, finalize):
    """fit_iterative through certify, the global damped loop and, with finalize,
    component_solution; the tables are filled by outer_from_knots."""
    system, verdict = certify(params, inner, samples.points, depth)
    if finalize and not verdict.separated:
        raise SeparationFailure("unseparated", witness=verdict.witness)
    g, history, sup = run_damped_iteration(system, samples.targets, damping, tolerance, max_iter)
    if finalize:
        g, residual = component_solution(system, samples.targets), ZERO
    else:
        g, residual = {k: (v.numerator, v.denominator) for k, v in g.items()}, sup
    outer = outer_from_knots(params, system, g)
    return outer, FitReport(mode="iterative", residual_max=residual, knot_count=system.knot_count,
                            iterations=len(history), convergence_history=tuple(history), separation=verdict,
                            depth=system.depth, collision_count=collision_count(system))


def sample_hash(samples) -> str:
    """SampleSet.canonical_hash spelled point by point: each point's coordinates
    joined by ',', then ';' and its target, one line per point."""
    lines = [",".join(map(str, p)) + ";" + str(t) for p, t in zip(samples.points, samples.targets)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _shape(lo, hi, max_jump, ratio, spacing) -> dict:
    """value_range, max_jump, max_jump_ratio and min_spacing as the "class" document spells them."""
    return {
        "value_range": None if lo is None else [str(lo), str(hi)],
        "max_jump": str(max_jump),
        "max_jump_ratio": ratio,
        "min_spacing": None if spacing is None else str(spacing),
    }


def merge_report(outer: OuterFunction) -> dict:
    """Knot-table statistics per branch and overall, as the "class" document."""
    stats = []
    for q, table in enumerate(tables(outer)):
        if not table.ys:
            stats.append((q, 0, None, None, ZERO, 0.0, None))
            continue
        max_jump = ZERO
        ratio = 0.0
        spacing = None
        for y0, y1, g0, g1 in zip(table.ys, table.ys[1:], table.gs, table.gs[1:]):
            jump = abs(g1 - g0)
            gap = y1 - y0
            max_jump = max(max_jump, jump)
            try:
                ratio = max(ratio, float(jump / gap))
            except OverflowError:
                ratio = float("inf")
            spacing = gap if spacing is None else min(spacing, gap)
        stats.append((q, len(table.ys), min(table.gs), max(table.gs), max_jump, ratio, spacing))
    populated = [s for s in stats if s[1]]
    lo = min((s[2] for s in populated), default=None)
    hi = max((s[3] for s in populated), default=None)
    spacings = [s[6] for s in populated if s[6] is not None]
    return {
        "total_knots": sum(s[1] for s in stats),
        "value_range": None if lo is None else [str(lo), str(hi)],
        "max_abs_value": str(max((max(abs(s[2]), abs(s[3])) for s in populated), default=ZERO)),
        "max_jump": str(max((s[4] for s in populated), default=ZERO)),
        "max_jump_ratio": max((s[5] for s in populated), default=0.0),
        "min_spacing": None if not spacings else str(min(spacings)),
        "branches": [{"q": q, "knot_count": n, **_shape(*rest)} for q, n, *rest in stats],
    }


_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or decimal syntax ('0.25', '-3', '1e-3') into an exact value.

    A literal whose digits plus exponent magnitude exceed the interpreter's
    int-string limit is refused: '1e999999999' would otherwise build a
    billion-digit integer, and the value could not be printed back.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    size = len(text)  # bounds the digit count; count exactly only when it matters
    if size > limit:
        size = sum(ch.isdigit() for ch in text)
    if size <= limit and ("e" in text or "E" in text):
        exponent = _EXPONENT.search(text)
        size += int(exponent.group(1).replace("_", "") or 0) if exponent else 0
    if size > limit:
        raise InputError(f"numeric literal longer than {limit} digits once expanded: {text[:40]!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational literal: {text!r}") from exc


def _doc_from_model(model) -> dict:
    """The format-2 document: positions y * unit, values numbered by first appearance."""
    unit = model.outer.unit
    numbers: dict[Fraction, int] = {}
    branches = []
    for q, table in enumerate(tables(model.outer)):
        positions = [y * unit for y in table.ys]
        assert all(y.denominator == 1 for y in positions)
        branches.append({
            "q": q,
            "y": " ".join(str(y.numerator) for y in positions),
            "g": " ".join(str(numbers.setdefault(g, len(numbers))) for g in table.gs),
        })
    return {
        "format_version": model.meta.get("format_version", FORMAT_VERSION),
        "d": model.params.d,
        "gamma": model.params.gamma,
        "inner_weights": [str(w) for w in model.inner.weights],
        "lambda": [str(v) for v in model.params.lam],
        "lambda_tail": [str(t) for t in model.params.lam_tails],
        "b": list(model.params.b),
        "unit": str(unit),
        "values": [str(g) for g in numbers],
        "branches": branches,
        "meta": {k: v for k, v in model.meta.items() if k != "format_version"},
    }


def save(model) -> bytes:
    """Canonical JSON bytes through json.dumps over Fraction strings."""
    return (json.dumps(_doc_from_model(model), indent=2) + "\n").encode()


def _want(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise ModelFormatError(f"missing field", location=f"{location}.{key}" if location else key)
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ModelFormatError(
            f"expected {kind.__name__}, got {type(value).__name__}",
            location=f"{location}.{key}" if location else key,
        )
    return value


def _fraction_at(text, location: str) -> Fraction:
    if not isinstance(text, str):
        raise ModelFormatError(f"expected fraction string, got {type(text).__name__}", location=location)
    try:
        return parse_rational(text)
    except InputError as exc:
        raise ModelFormatError(str(exc), location=location) from None


def load(source):
    """Parse a model document into Fraction tables, then build the model from them."""
    if isinstance(source, (str, Path)) and not (isinstance(source, str) and source.lstrip().startswith("{")):
        try:
            raw = Path(source).read_bytes()
        except OSError as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    elif isinstance(source, str):
        raw = source.encode()
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode()
    else:
        raise ModelFormatError(f"cannot load a model from {type(source).__name__}")
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # also integer literals beyond the int-string limit
        raise ModelFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top level must be an object")

    version = _want(doc, "format_version", int, "")
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"format_version {version} is newer than the supported {FORMAT_VERSION}; upgrade the library",
            location="format_version",
        )
    if version < 2:
        raise ModelFormatError(f"format_version {version} is not read", location="format_version")

    d = _want(doc, "d", int, "")
    gamma = _want(doc, "gamma", int, "")
    inner_weights = _want(doc, "inner_weights", list, "")
    lam = _want(doc, "lambda", list, "")
    lam_tail = _want(doc, "lambda_tail", list, "")
    b = _want(doc, "b", list, "")
    branches = _want(doc, "branches", list, "")
    meta = _want(doc, "meta", dict, "")

    weights = tuple(
        _fraction_at(w, f"inner_weights[{i}]") for i, w in enumerate(inner_weights)
    )
    lam_values = tuple(_fraction_at(v, f"lambda[{i}]") for i, v in enumerate(lam))
    tail_values = tuple(_fraction_at(t, f"lambda_tail[{i}]") for i, t in enumerate(lam_tail))
    try:
        check_dims(d, gamma)
    except ParameterError as exc:
        raise ModelFormatError(str(exc), location="d" if d < 2 else "gamma") from None
    series = meta.get("series_terms")
    if series is not None and not (
        isinstance(series, list) and all(isinstance(s, int) and s >= 0 for s in series)
    ):
        raise ModelFormatError("series_terms must be nonnegative integers", location="meta.series_terms")

    try:
        inner = InnerSpec(base=gamma, weights=weights)
    except ValueError as exc:
        raise ModelFormatError(str(exc), location="inner_weights") from exc
    try:
        params = HashParams(d=d, gamma=gamma, series_terms=tuple(series or ()))
    except ValueError as exc:
        raise ModelFormatError(str(exc), location="meta.series_terms") from exc
    for key, given, derived in (("lambda", lam_values, params.lam), ("lambda_tail", tail_values, params.lam_tails)):
        if given != derived:
            raise ModelFormatError("differs from the values meta.series_terms defines", location=key)
    if b != list(params.b):
        raise ModelFormatError(f"expected (2d+1)q for q = 0..2d, got {b}", location="b")

    expected_q = params.branch_count
    if len(branches) != expected_q:
        raise ModelFormatError(
            f"expected {expected_q} branches, got {len(branches)}", location="branches"
        )
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    unit_text = _want(doc, "unit", str, "")
    if not re.fullmatch(r"[0-9]+", unit_text) or len(unit_text) > limit or int(unit_text) == 0:
        raise ModelFormatError(f"expected a positive integer of 1 to {limit} ASCII digits, got {unit_text[:40]!r}",
                               location="unit")
    unit = int(unit_text)
    values = [_fraction_at(text, f"values[{k}]") for k, text in enumerate(_want(doc, "values", list, ""))]

    def integers(entry, key, i):
        tokens = re.split(" ", _want(entry, key, str, f"branches[{i}]"))
        if tokens == [""]:
            return []
        for k, token in enumerate(tokens):
            if not re.fullmatch(r"[0-9]{1,%d}" % limit, token):
                raise ModelFormatError(f"token {k}: expected 1 to {limit} ASCII digits, got {token[:40]!r}",
                                       location=f"branches[{i}].{key}")
        return [int(token) for token in tokens]

    tables = []
    for i, entry in enumerate(branches):
        if not isinstance(entry, dict):
            raise ModelFormatError("expected object", location=f"branches[{i}]")
        q = _want(entry, "q", int, f"branches[{i}]")
        if q != i:
            raise ModelFormatError(f"branches must appear in order; got q = {q}", location=f"branches[{i}].q")
        ys, gs = integers(entry, "y", i), integers(entry, "g", i)
        if len(gs) != len(ys):
            raise ModelFormatError(f"{len(gs)} value indices for {len(ys)} positions", location=f"branches[{i}].g")
        for k, j in enumerate(gs):
            if j >= len(values):
                raise ModelFormatError(f"token {k}: index {j} is past the {len(values)} values",
                                       location=f"branches[{i}].g")
        try:
            tables.append(KnotTable(ys=tuple(Fraction(y, unit) for y in ys), gs=tuple(values[j] for j in gs)))
        except ValueError as exc:
            raise ModelFormatError(str(exc), location="branches") from exc
    depth = meta.get("depth", 30)
    if type(depth) is int and 1 <= depth <= DEPTH_CAP and unit != params.unit(inner, depth):
        try:
            common_unit((unit,), sum(len(t.ys) for t in tables))
        except DomainError as exc:
            raise ModelFormatError(str(exc), location="unit") from exc
    try:
        outer = outer_from_tables(d, tuple(tables), unit)
    except (ValueError, DomainError) as exc:
        raise ModelFormatError(str(exc), location="branches") from exc
    try:
        return assemble(inner, params, outer, meta=dict(meta))
    except AssemblyError as exc:
        location, _, message = str(exc).partition(": ")
        raise ModelFormatError(message, location=location) from exc
