"""Reference Fraction pipeline: the differential oracle for the integer evaluation path.

Every function here works on normalized `Fraction`s one digit and one knot
at a time, exactly as the library did before evaluation moved to scaled
integers.  It is deliberately slow and simple; tests require the library to
agree with it exactly (value, error bound and per-branch contributions).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from ksnet.errors import DomainError, InputError, InternalInvariantError
from ksnet.hashmaps import BranchValue, IncidenceSystem
from ksnet.inner import InnerValue
from ksnet.rationals import ZERO, expand_digits


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
