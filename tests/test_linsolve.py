"""Exact elimination against sympy's rank and solve as oracles."""

import random
from fractions import Fraction

import oracle
import pytest
import sympy

from ksnet.errors import InternalInvariantError
from ksnet.linsolve import left_kernel_vector, solve_square


def _kernel(rows):
    """left_kernel_vector of the stacked rows, over the oracle's row components."""
    return left_kernel_vector(len(rows), oracle.row_components(rows))


def _random_incidence_rows(rng, n, m, density=0.4):
    """n nonempty rows over m columns, as increasing tuples of the columns that hold a 1."""
    rows = []
    for _ in range(n):
        row = tuple(col for col in range(m) if rng.random() < density)
        rows.append(row or (rng.randrange(m),))
    return rows


def _random_int_rows(rng, n, m, density=0.6):
    rows = []
    for _ in range(n):
        row = {}
        for col in range(m):
            if rng.random() < density:
                row[col] = rng.choice([v for v in range(-5, 6) if v])
        rows.append(row)
    return rows


def _dense(rows, m):
    return [[row.get(c, 0) for c in range(m)] for row in rows]


def test_duplicate_rows_witness():
    row = (0, 3)
    rank, witness = _kernel([row, row])
    assert rank == 1
    assert witness == (Fraction(1), Fraction(-1))


def test_independent_rows_have_no_witness():
    rows = [(0,), (1,), (2,)]
    rank, witness = _kernel(rows)
    assert rank == 3 and witness is None


def test_known_dependency():
    # row0 + row1 hit columns 0-3 once each, and so do row2 + row3
    rows = [(0, 1), (2, 3), (0, 2), (1, 3)]
    rank, witness = _kernel(rows)
    assert rank == 3
    assert witness == (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))
    # row0 + row1 + row2 hit columns 0-2 twice each, as does 2 row3
    rows = [(0, 1), (1, 2), (0, 2), (0, 1, 2)]
    rank, witness = _kernel(rows)
    assert rank == 3
    assert witness == (Fraction(1), Fraction(1), Fraction(1), Fraction(-2))


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 8), rng.randint(2, 8)
    rows = _random_incidence_rows(rng, n, m)
    rank, witness = _kernel(rows)
    assert rank == sympy.Matrix(_dense([dict.fromkeys(row, 1) for row in rows], m)).rank()
    if witness is None:
        assert rank == n
    else:
        assert len(witness) == n and any(witness)
        first = next(w for w in witness if w)
        assert first == 1
        # an exact left-kernel vector: sum_i witness[i] * rows[i] == 0
        acc: dict[int, Fraction] = {}
        for w, row in zip(witness, rows):
            for col in row:
                acc[col] = acc.get(col, Fraction(0)) + w
        assert all(v == 0 for v in acc.values())


@pytest.mark.parametrize("seed", range(8))
def test_solve_square_exact(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 7)
    while True:
        rows = _random_int_rows(rng, n, n, density=0.8)
        if sympy.Matrix(_dense(rows, n)).rank() == n:
            break
    rhs = [rng.randint(-9, 9) for _ in range(n)]
    pairs = solve_square(rows, rhs)
    assert all(den > 0 for _, den in pairs)
    u = [Fraction(*pair) for pair in pairs]
    for row, b in zip(rows, rhs):
        assert sum(val * u[col] for col, val in row.items()) == b
    want = sympy.Matrix(_dense(rows, n)).LUsolve(sympy.Matrix(rhs))
    assert u == [Fraction(int(v.p), int(v.q)) for v in want]


def test_solve_square_rejects_singular():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    with pytest.raises(InternalInvariantError):
        solve_square(rows, [1, 1])
