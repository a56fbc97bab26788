"""Exact rational literals and the uniform grids the fitting code samples on.

Everything downstream (inner-function values, branch offsets, knots) is an
exact rational, so equality decisions such as knot merging and zero-residual
checks never depend on rounding.  The substrate is stdlib Fraction and
integer (numerator, denominator) pairs; this module parses literals into
them, builds the grids and holds the one rule for integer arguments.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DomainError, InputError, KsnetError

ZERO = Fraction(0)
ONE = Fraction(1)


_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*$")


def check_int(name: str, value, lo: int, hi: int | None = None, error: type[KsnetError] = DomainError) -> None:
    """The one integer-argument rule: an int, not a bool, of at least lo and, when hi is
    given, at most hi; otherwise `error` names the argument, its bounds and its value."""
    if type(value) is not int or value < lo or hi is not None and value > hi:
        raise error(f"{name} must be an integer {f'>= {lo}' if hi is None else f'in {lo}..{hi}'}, got {value!r}")


def digit_limit() -> int:
    """The interpreter's int-string limit: the most digits a literal may spell."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


_PLAIN_CHARS = b"0123456789/-"


def plain_ratios(texts: list) -> tuple[list[int], list[int]] | None:
    """The numerators and the denominators (> 0) of `texts`, unreduced, when every
    item is an ASCII -?digits(/digits)? of at most digit_limit() characters; else None.

    One translate of the joined text rules out every other character; each
    literal is then split at its slash and read with int().  None means some
    item is not such a literal (not a str, '5/', '/2', '1/-2', '--1', '1/0',
    too long), and the caller parses the items one at a time with parse_ratio,
    which decides and words every error.
    """
    try:
        joined = "".join(texts)
    except TypeError:
        return None
    if not joined.isascii() or joined.encode().translate(None, _PLAIN_CHARS):
        return None
    limit = digit_limit()
    if len(joined) > limit and max(map(len, texts)) > limit:
        return None
    nums, dens = [], []
    try:
        for text in texts:
            num, slash, den = text.partition("/")
            nums.append(int(num))
            if not slash:
                dens.append(1)
            elif (den := int(den)) > 0:
                dens.append(den)
            else:
                return None
    except ValueError:
        return None
    return nums, dens


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse 'p/q' or decimal syntax ('0.25', '-3', '1e-3') into (numerator, denominator > 0).

    A literal whose digits plus exponent magnitude exceed digit_limit() is
    refused: '1e999999999' would otherwise build a billion-digit integer,
    and the value could not be printed back.  A literal plain_ratios accepts
    is read there, unreduced; any other goes through Fraction, reduced.
    """
    plain = plain_ratios([text])
    if plain is not None:
        return plain[0][0], plain[1][0]
    limit = digit_limit()
    size = len(text)  # bounds the digit count; count exactly only when it matters
    if size > limit:
        size = sum(ch.isdigit() for ch in text)
    if size <= limit and ("e" in text or "E" in text):
        exponent = _EXPONENT.search(text)
        size += int(exponent.group(1).replace("_", "") or 0) if exponent else 0
    if size > limit:
        raise InputError(f"numeric literal longer than {limit} digits once expanded: {text[:40]!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational literal: {text!r}") from exc
    return value.numerator, value.denominator


def parse_rational(text: str) -> Fraction:
    """parse_ratio as a Fraction, in lowest terms."""
    return Fraction(*parse_ratio(text))


def grid_points(level: int, base: int) -> list[Fraction]:
    """The uniform rational grid {j / base**level : j = 0 .. base**level} on [0, 1]."""
    check_int("base", base, 2)
    check_int("level", level, 1)
    scale = base**level
    return [Fraction(j, scale) for j in range(scale + 1)]
