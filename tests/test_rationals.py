"""Exact arithmetic helpers: parsing, formatting, digit expansion, grids."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksnet.errors import DomainError, InputError
from ksnet.rationals import (
    DigitExpansion,
    expand_digits,
    grid_points,
    parse_rational,
)

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


def test_expand_digits_known_values():
    # 1/30 in base 6 repeats: digit 0 then 1 forever, never terminating.
    e = expand_digits(Fraction(1, 30), 6, 4)
    assert e == DigitExpansion(base=6, integer_part=0, digits=(0, 1, 1, 1), exact=False)
    # 1/10 in base 6: leading 0 then repeating 3.
    e = expand_digits(Fraction(1, 10), 6, 5)
    assert e.digits == (0, 3, 3, 3, 3) and not e.exact
    # 5/4 terminates after two digits; trailing zeros are kept.
    e = expand_digits(Fraction(5, 4), 6, 4)
    assert e == DigitExpansion(base=6, integer_part=1, digits=(1, 3, 0, 0), exact=True)
    assert e.value() == Fraction(5, 4)


def test_expand_digits_domain():
    with pytest.raises(DomainError):
        expand_digits(Fraction(-1, 2), 6, 3)
    with pytest.raises(DomainError):
        expand_digits(Fraction(2), 6, 3)
    assert expand_digits(Fraction(0), 6, 3).exact


@given(rationals_01, st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=25))
@settings(max_examples=300)
def test_expand_digits_truncates_from_below(x, base, depth):
    """value() is the floor of x to `depth` digits: within base**-depth, never above."""
    e = expand_digits(x, base, depth)
    v = e.value()
    assert 0 <= x - v < Fraction(1, base**depth)
    assert e.exact == (v == x)
    assert all(0 <= d < base for d in e.digits)
    assert len(e.digits) == depth


@given(rationals_01, st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=12))
@settings(max_examples=200)
def test_expand_digits_refinement(x, base, depth):
    """Deeper expansions extend shallower ones digit for digit."""
    shallow = expand_digits(x, base, depth)
    deep = expand_digits(x, base, depth + 3)
    assert deep.digits[:depth] == shallow.digits


def test_grid_points():
    pts = grid_points(1, 6)
    assert pts == [Fraction(j, 6) for j in range(7)]
    pts = grid_points(2, 6)
    assert len(pts) == 37 and pts[0] == 0 and pts[-1] == 1
    assert all(b > a for a, b in zip(pts, pts[1:]))
