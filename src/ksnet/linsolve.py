"""Exact sparse linear algebra over the integers, one connected component at a time.

Incidence rows are increasing tuples of the columns they hit, each entry 1;
square systems are {column: int} dicts.  The elimination is fraction-free and
exact, so rank decisions and kernel vectors are certificates, not estimates.

Rows linked through shared columns form connected components, which
IncidenceSystem.components finds from the branch columns.  Components touch
disjoint columns, so no linear dependency spans two of them and every
question is answered per component.  A row alone in its columns has rank 1
and is counted, not eliminated; the reduced-pivot elimination, quadratic in
its rows, runs only on the components of more than one row.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInvariantError
from .rationals import ZERO


def _cancel(row: dict, trans: dict, pivot: dict, ptrans: dict, col: int) -> None:
    """Clear `col` from row in place: with c = row[col], p = pivot[col] and
    g = gcd(c, p), row becomes (p/g) row - (c/g) pivot and trans likewise over
    ptrans; then both are divided by the gcd of all their entries."""
    g = math.gcd(row[col], pivot[col])
    a, b = pivot[col] // g, row[col] // g
    for target, source in ((row, pivot), (trans, ptrans)):
        if a != 1:
            for k in target:
                target[k] *= a
        for k, v in source.items():
            new = target.get(k, 0) - b * v
            if new:
                target[k] = new
            else:
                del target[k]
    h = math.gcd(*row.values(), *trans.values())
    if h != 1:
        for target in (row, trans):
            for k in target:
                target[k] //= h


def _eliminate(rows, stop: bool = False) -> tuple[dict[int, tuple[dict, dict]], int | None, dict[int, int] | None]:
    """Reduced pivots of the stacked integer rows and the first dependency among them.

    Maintains a reduced pivot set: every stored pivot row is zero in every
    other pivot column, so one pass over the pivot columns an incoming row
    holds reduces it completely.  The transform log expresses each pivot row
    over the original rows; when a row cancels, its log entry is a kernel
    vector.  Elimination continues past the first cancellation so the pivots
    span the whole stack, unless `stop` ends it there.  Returns (pivots as
    {column: (reduced row, transform)}, index of the first row that
    cancelled, its kernel vector as {row: nonzero integer coefficient}).
    """
    pivots: dict[int, tuple[dict, dict]] = {}
    first = kernel = None
    for idx, source in enumerate(rows):
        row, trans = dict(source), {idx: 1}
        for pcol in [col for col in row if col in pivots]:
            _cancel(row, trans, *pivots[pcol], pcol)
        if not row:
            if kernel is None:
                first, kernel = idx, trans
            if stop:
                break
            continue
        pcol = min(row)
        # clear the new pivot column from the stored pivots to keep them reduced
        for prow, ptrans in pivots.values():
            if pcol in prow:
                _cancel(prow, ptrans, row, trans, pcol)
        pivots[pcol] = row, trans
    return pivots, first, kernel


def left_kernel_vector(n: int, comps, stop: bool = False) -> tuple[int, tuple[Fraction, ...] | None]:
    """Rank of n stacked incidence rows, plus a left-kernel witness if they are dependent.

    `comps` are the components of more than one row, each {row index: row}
    in input order, as IncidenceSystem.components gives them.  Every other
    row is alone in its columns: it adds 1 to the rank and is never read.
    The witness is the one elimination in input order would find first: the
    dependency of the lowest-indexed row that is a combination of earlier
    rows, scaled so its first nonzero entry is +1.  Rows before that one are
    independent, so the combination is unique, and it lives inside that
    row's component.

    With `stop`, the elimination ends at the first dependency it meets.  An
    independent stack gets the same answer; a dependent one gets a witness
    of it and a partial rank, the lone rows plus the pivots found until
    then, which only tells that it is dependent.
    """
    rank, first, kernel = n - sum(map(len, comps)), n, None
    for comp in comps:
        index = list(comp)
        pivots, sub_first, sub_kernel = _eliminate([dict.fromkeys(row, 1) for row in comp.values()], stop)
        rank += len(pivots)
        if sub_kernel is not None and index[sub_first] < first:
            first, kernel = index[sub_first], {index[k]: t for k, t in sub_kernel.items()}
            if stop:
                break
    if kernel is None:
        return rank, None
    lead = kernel[min(kernel)]
    return rank, tuple(Fraction(kernel[j], lead) if j in kernel else ZERO for j in range(n))


def solve_square(rows, rhs) -> list[tuple[int, int]]:
    """Solve A u = rhs exactly for nonsingular square A given as sparse rows of nonzero integers.

    Every column of a nonsingular A is a pivot column, so each reduced pivot
    row keeps only its pivot entry c, and its transform t (row = t A) gives
    u[column] = (t . rhs) / c, returned as an unreduced (numerator, denominator > 0) pair.
    """
    n = len(rows)
    if len(rhs) != n:
        raise InternalInvariantError(f"system is {n}x{n} but rhs has {len(rhs)} entries")
    pivots, first, _ = _eliminate(rows)
    if first is not None:
        raise InternalInvariantError("singular system in exact solve")
    u = [(0, 1)] * n
    for pcol, (row, trans) in pivots.items():
        num, c = sum(t * rhs[j] for j, t in trans.items()), row[pcol]
        u[pcol] = (num, c) if c > 0 else (-num, -c)
    return u
