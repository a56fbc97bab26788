"""Reference pipelines: the differential oracles for the integer evaluation path
and for the per-component solves.

The evaluation functions work on normalized `Fraction`s one digit and one
knot at a time, exactly as the library did before evaluation moved to scaled
integers; tests require the library to agree with them exactly (value, error
bound and per-branch contributions).  The solve functions treat the whole
incidence system as one block, as the library did before it split systems
into connected components: a global elimination in input order, a global
gram matrix, and a damped iteration that updates every point every round.
Tests require identical ranks, witnesses, knot values and histories.
All of it is deliberately slow and simple.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

import sympy

from ksnet.errors import DomainError, InputError, InternalInvariantError, IterationDiverged
from ksnet.hashmaps import BranchValue, IncidenceSystem
from ksnet.inner import InnerValue
from ksnet.linsolve import _sub_scaled
from ksnet.rationals import ONE, ZERO, expand_digits


def phi_eval(spec, x, depth: int) -> InnerValue:
    expansion = expand_digits(Fraction(x), spec.base, depth)
    num = 0
    prefix = 1
    for d in expansion.digits:
        num = num * spec._den + spec._cnum[d] * prefix
        prefix *= spec._wnum[d]
    scale = spec._den**depth
    value = expansion.integer_part + Fraction(num, scale)
    if expansion.exact and num == 0:
        return InnerValue(value=Fraction(expansion.integer_part), error_bound=ZERO)
    return InnerValue(value=value, error_bound=Fraction(prefix, scale))


def psi_eval(params, inner, x, q: int, depth: int) -> BranchValue:
    point = tuple(Fraction(c) for c in x)
    if len(point) != params.d:
        raise DomainError(f"expected {params.d} coordinates, got {len(point)}")
    if not 0 <= q <= 2 * params.d:
        raise DomainError(f"branch index must lie in 0..{2 * params.d}, got {q}")
    for p, coord in enumerate(point, start=1):
        if not 0 <= coord <= 1:
            raise DomainError(f"coordinate {p} must lie in [0, 1], got {coord}")
    value = Fraction(params.b[q])
    error = ZERO
    shift = params.a * q
    for lam, tail, coord in zip(params.lam, params.lam_tails, point):
        iv = phi_eval(inner, coord + shift, depth)
        value += lam * iv.value
        error += lam * iv.error_bound + tail * iv.upper
    return BranchValue(q=q, value=value, error_bound=error)


def build_incidence(params, inner, points, depth: int) -> IncidenceSystem:
    pts = tuple(tuple(Fraction(c) for c in p) for p in points)
    seen: dict[tuple, int] = {}
    for j, p in enumerate(pts):
        if p in seen:
            raise InputError(f"points must be pairwise distinct; points {seen[p]} and {j} coincide")
        seen[p] = j
    values = [
        [psi_eval(params, inner, p, q, depth).value for q in range(params.branch_count)]
        for p in pts
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
            if branch_of.setdefault(col, q) != q:
                raise InternalInvariantError(f"knot {v} reached from two branches")
        rows.append(row)
    return IncidenceSystem(
        points=pts,
        depth=depth,
        d=params.d,
        knots=tuple(knots),
        knot_branch=tuple(branch_of[i] for i in range(len(knots))),
        rows=tuple(rows),
    )


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
    if 0 <= q <= width and y <= outer.b[q] + width and outer.tables[q].ys:
        return _interp(outer.tables[q], y)
    best = None
    for table in outer.tables:
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
    for table in outer.tables:
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
        bv = psi_eval(model.params, model.inner, x, q, depth)
        gq = g_eval(model.outer, bv.value)
        w += gq
        if bv.error_bound:
            lo, hi = g_range(model.outer, bv.value, bv.upper)
            error += max(hi - gq, gq - lo)
        contributions.append(gq)
    return w, error, tuple(contributions)


def left_kernel_vector(rows):
    """Rank and first left-kernel witness by one reduced-pivot elimination over all rows."""
    n = len(rows)
    pivots = []  # (pivot column, reduced row, transform)
    witness = None
    for idx in range(n):
        row = {col: Fraction(val) for col, val in rows[idx].items() if val}
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
    for j, row in enumerate(system.rows):
        for col, cnt in row.items():
            buckets.setdefault(col, []).append((j, cnt))
    return buckets


def min_norm_solution(system, targets):
    """g = M^T (M M^T)^-1 f with one gram matrix over all points, solved by sympy."""
    n = system.n_points
    buckets = _column_buckets(system)
    gram = [{} for _ in range(n)]
    for hits in buckets.values():
        for j, cj in hits:
            for k, ck in hits:
                gram[j][k] = gram[j].get(k, 0) + cj * ck
    matrix = sympy.Matrix(n, n, lambda j, k: gram[j].get(k, 0))
    if matrix.rank() < n:
        raise InternalInvariantError("singular gram matrix")
    solved = matrix.LUsolve(sympy.Matrix([sympy.Rational(t.numerator, t.denominator) for t in targets]))
    u = [Fraction(int(v.p), int(v.q)) for v in solved]
    return {col: sum(cnt * u[j] for j, cnt in hits) for col, hits in buckets.items()}


def run_damped_iteration(system, targets, damping, tolerance, max_iter):
    """The damped residual iteration, every point and every knot updated each round."""
    branch_count = 2 * system.d + 1
    buckets = _column_buckets(system)
    collisions = sum(len(hits) - 1 for hits in buckets.values())
    g = {col: ZERO for col in buckets}
    residual = [Fraction(t) for t in targets]
    sup = max((abs(r) for r in residual), default=ZERO)
    sumsq = sum((r * r for r in residual), ZERO)
    history = []
    for round_no in range(1, max_iter + 1):
        delta = {}
        for col, hits in buckets.items():
            total = sum(residual[j] * cnt for j, cnt in hits)
            weight = sum(cnt for _, cnt in hits)
            delta[col] = damping * total / (weight * branch_count)
        for col, dv in delta.items():
            g[col] += dv
        for j, row in enumerate(system.rows):
            residual[j] -= sum(cnt * delta[col] for col, cnt in row.items())
        new_sumsq = sum((r * r for r in residual), ZERO)
        if new_sumsq > sumsq:
            raise IterationDiverged(f"squared residual rose in round {round_no}")
        sumsq = new_sumsq
        sup = max((abs(r) for r in residual), default=ZERO)
        history.append(float(sup))
        if sup <= tolerance:
            break
    return g, history, collisions, sup
