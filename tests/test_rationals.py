"""Exact arithmetic helpers: parsing, formatting, grids."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksnet.errors import InputError
from ksnet.rationals import grid_points, parse_rational

rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=10**9)


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/3", Fraction(1, 3)),
        ("-2/7", Fraction(-2, 7)),
        ("0.25", Fraction(1, 4)),
        ("1e-3", Fraction(1, 1000)),
        ("7", Fraction(7)),
        (" 1/2 ", Fraction(1, 2)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["abc", "1/0", "", "nan", "inf", "1 2"])
def test_parse_rational_rejects(text):
    with pytest.raises(InputError):
        parse_rational(text)


@given(rationals_01)
def test_format_parse_round_trip(x):
    assert parse_rational(str(x)) == x


def test_grid_points():
    pts = grid_points(1, 6)
    assert pts == [Fraction(j, 6) for j in range(7)]
    pts = grid_points(2, 6)
    assert len(pts) == 37 and pts[0] == 0 and pts[-1] == 1
    assert all(b > a for a, b in zip(pts, pts[1:]))
