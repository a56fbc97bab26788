"""Exact sparse linear algebra over the rationals, one connected component at a time.

Rows are {column: Fraction} dicts.  All arithmetic is exact, so rank
decisions and kernel vectors are certificates, not estimates.

Rows linked through shared nonzero columns form connected components.
Components touch disjoint columns, so no linear dependency spans two of
them and every question is answered per component.  The incidence systems
of a fit are almost all singletons: the inner layer gives every point its
own branch values, and only truncation makes a few points share knots.  A
lone nonempty row has rank 1 and needs no elimination; the reduced-pivot
elimination, quadratic in its rows, runs only on the components with more
than one row.  Splitting costs one union-find pass over the nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantError
from .rationals import ONE, ZERO


def _sub_scaled(target: dict, source: dict, factor: Fraction) -> None:
    # target -= factor * source, dropping entries that cancel to zero
    for col, val in source.items():
        new = target.get(col, ZERO) - factor * val
        if new:
            target[col] = new
        else:
            target.pop(col, None)


def components(rows) -> list[list[int]]:
    """Row indices grouped into connected components, each in input order.

    Two rows are connected when some column is nonzero in both; components
    are listed by their first row, and an empty row is a component of its own.
    """
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict = {}  # column -> first row with a nonzero entry there
    for idx, row in enumerate(rows):
        for col, val in row.items():
            if val:
                first = owner.setdefault(col, idx)
                if first != idx:
                    a, b = find(first), find(idx)
                    if a != b:
                        parent[max(a, b)] = min(a, b)  # roots stay the smallest row index
    groups: dict[int, list[int]] = {}
    for idx in range(len(rows)):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


def _eliminate(rows) -> tuple[list[tuple[int, dict, dict]], int | None, dict[int, Fraction] | None]:
    """Reduced pivots of the stacked rows and the first dependency among them.

    Maintains a reduced pivot set: every stored pivot row is zero in every
    other pivot column, so one pass reduces an incoming row completely.  The
    transform log expresses each pivot row over the original rows; when a row
    cancels, its log entry is a kernel vector.  Elimination continues past the
    first cancellation so the pivots span the whole stack.  Returns
    (pivots as (column, reduced row, transform), index of the first row that
    cancelled, its kernel vector as {row: coefficient} scaled so the lowest
    row has coefficient +1).
    """
    pivots: list[tuple[int, dict, dict]] = []  # (pivot column, reduced row, transform)
    first = witness = None
    for idx, source in enumerate(rows):
        row = {col: Fraction(val) for col, val in source.items() if val}
        trans = {idx: ONE}
        for pcol, prow, ptrans in pivots:
            coeff = row.get(pcol)
            if coeff:
                factor = coeff / prow[pcol]
                _sub_scaled(row, prow, factor)
                _sub_scaled(trans, ptrans, factor)
        if not row:
            if witness is None:
                lead = trans[min(trans)]
                first, witness = idx, {j: c / lead for j, c in trans.items()}
            continue
        pcol = min(row)
        # clear the new pivot column from the stored pivots to keep them reduced
        for _, prow, ptrans in pivots:
            coeff = prow.get(pcol)
            if coeff:
                factor = coeff / row[pcol]
                _sub_scaled(prow, row, factor)
                _sub_scaled(ptrans, trans, factor)
        pivots.append((pcol, row, trans))
    return pivots, first, witness


def left_kernel_vector(rows, comps=None) -> tuple[int, tuple[Fraction, ...] | None]:
    """Rank of the stacked rows, plus a left-kernel witness if they are dependent.

    The rank is summed over connected components (`comps`, if the caller
    already has components(rows)).  The witness is the one
    elimination in input order would find first: the dependency of the
    lowest-indexed row that is a combination of earlier rows, scaled so its
    first nonzero entry is +1.  Rows before that one are independent, so the
    combination is unique, and it lives inside that row's component.
    """
    n = len(rows)
    rank = 0
    first, witness = n, None
    for comp in components(rows) if comps is None else comps:
        if len(comp) == 1:
            idx = comp[0]
            if any(rows[idx].values()):
                rank += 1
            elif idx < first:
                first, witness = idx, {idx: ONE}
            continue
        pivots, sub_first, sub_witness = _eliminate([rows[j] for j in comp])
        rank += len(pivots)
        if sub_witness is not None and comp[sub_first] < first:
            first, witness = comp[sub_first], {comp[k]: c for k, c in sub_witness.items()}
    if witness is None:
        return rank, None
    mu = [ZERO] * n
    for j, c in witness.items():
        mu[j] = c
    return rank, tuple(mu)


def solve_square(rows, rhs) -> list[Fraction]:
    """Solve A u = rhs for nonsingular square A given as sparse rows, exactly.

    Every column of a nonsingular A is a pivot column, so each reduced pivot
    row keeps only its pivot entry c, and its transform t (row = t A) gives
    c u[column] = t . rhs.
    """
    n = len(rows)
    if len(rhs) != n:
        raise InternalInvariantError(f"system is {n}x{n} but rhs has {len(rhs)} entries")
    pivots, first, _ = _eliminate(rows)
    if first is not None:
        raise InternalInvariantError("singular system in exact solve")
    u = [ZERO] * n
    for pcol, row, trans in pivots:
        u[pcol] = sum(c * rhs[j] for j, c in trans.items()) / row[pcol]
    return u
