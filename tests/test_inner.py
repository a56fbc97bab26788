"""The monotone inner map phi: digit weights, truncation bounds, invariants."""

import math
import re
from fractions import Fraction

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksnet.errors import DomainError, ParameterError
from ksnet.inner import (
    CHUNK_TABLE_LIMIT, DEPTH_CAP, InnerSpec, default_inner_spec, phi_eval, phi_extend, phi_scaled, verify_inner,
)
from test_incidence import CHAINS
from test_oracle import NETWORKS, ODD_SPEC6

SPEC6 = default_inner_spec(6)

rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=10**9)
depths = st.integers(min_value=1, max_value=40)


def test_default_spec_base_6():
    assert SPEC6.base == 6
    assert SPEC6.weights == (
        Fraction(1, 2),
        Fraction(1, 10),
        Fraction(1, 10),
        Fraction(1, 10),
        Fraction(1, 10),
        Fraction(1, 10),
    )
    assert SPEC6.cumulative == (
        Fraction(0),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(7, 10),
        Fraction(4, 5),
        Fraction(9, 10),
    )


def test_spec_validation():
    w = SPEC6.weights
    with pytest.raises(ParameterError):
        InnerSpec(base=1, weights=(Fraction(1),))
    with pytest.raises(ParameterError):
        InnerSpec(base=6, weights=w[:5])
    with pytest.raises(ParameterError):
        # first weight above 1/2
        InnerSpec(base=6, weights=(Fraction(3, 5),) + w[1:])
    with pytest.raises(ParameterError):
        # weights must sum to 1
        InnerSpec(base=6, weights=(Fraction(1, 2),) + (Fraction(1, 11),) * 5)


def test_phi_known_values():
    """At the terminating digit count of x (and at any depth past it) the value is exact."""
    assert phi_eval(SPEC6, Fraction(1, 6), 1) == (Fraction(1, 2), Fraction(1, 10))
    # digits 0,1 of 1/36: c(0) + c(1) w(0) = (1/2)(1/2)
    for x, digits, want in [(Fraction(0), 1, 0), (Fraction(1), 1, 1), (Fraction(5, 6), 1, Fraction(9, 10)),
                            (Fraction(1, 36), 2, Fraction(1, 4))]:
        for depth in (digits, digits + 3):
            assert phi_eval(SPEC6, x, depth)[0] == want == oracle.phi_exact(SPEC6, x)


def test_phi_shift_by_one():
    assert phi_eval(SPEC6, Fraction(7, 6), 1)[0] == Fraction(3, 2)
    assert phi_eval(SPEC6, Fraction(1, 2) + 1, 1)[0] == phi_eval(SPEC6, Fraction(1, 2), 1)[0] + 1


def test_phi_geometric_limit():
    # 1/10 has base-6 digits 0,3,3,3,... so phi(1/10) = (7/10)(1/2) * 10/9 = 7/18.
    limit = Fraction(7, 18)
    for depth in (5, 10, 30):
        value, bound = phi_eval(SPEC6, Fraction(1, 10), depth)
        assert value <= limit <= value + bound
        assert bound == Fraction(1, 2) * Fraction(1, 10) ** (depth - 1)


def test_phi_all_max_digits_hits_one():
    # digits 5,5,...,5: the truncation reaches 1 - 10^-k and the window closes at 1.
    k = 40
    value, bound = phi_eval(SPEC6, Fraction(6**k - 1, 6**k), k)
    assert value == 1 - Fraction(1, 10**k)
    assert value + bound == 1


def test_phi_domain():
    with pytest.raises(DomainError):
        phi_eval(SPEC6, Fraction(-1, 6), 3)
    with pytest.raises(DomainError):
        phi_eval(SPEC6, Fraction(2), 3)


@given(rationals_01, depths)
@settings(max_examples=300)
def test_error_bound_contracts(x, depth):
    """The window after k digits is at most 2**-k wide."""
    value, bound = phi_eval(SPEC6, x, depth)
    assert 0 <= bound <= Fraction(1, 2**depth)
    assert 0 <= value <= value + bound <= 1


@given(st.integers(min_value=0, max_value=6**8), depths)
@settings(max_examples=300)
def test_truncation_brackets_exact_value(j, depth):
    """For terminating inputs the exact value sits inside the truncation window,
    and from the input's 8 digits on it is the truncation."""
    x = Fraction(j, 6**8)
    exact = oracle.phi_exact(SPEC6, x)
    value, bound = phi_eval(SPEC6, x, depth)
    assert value <= exact <= value + bound
    if depth >= 8:
        assert value == exact


@given(rationals_01, rationals_01, depths)
@settings(max_examples=300)
def test_monotone_truncations(x, y, depth):
    """Truncated phi preserves order because digit strings order lexicographically."""
    if x > y:
        x, y = y, x
    assert phi_eval(SPEC6, x, depth)[0] <= phi_eval(SPEC6, y, depth)[0]


@given(rationals_01, rationals_01)
@settings(max_examples=200)
def test_holder_with_constant_four(x, y):
    """|phi(x) - phi(y)| <= 4 |x - y|^(ln 2 / ln 6), allowing truncation slack."""
    if x == y:
        return
    alpha = math.log(2) / math.log(6)
    vx, vy = phi_eval(SPEC6, x, 30), phi_eval(SPEC6, y, 30)
    gap = abs(float(vx[0] - vy[0])) - float(vx[1] + vy[1])
    assert gap <= 4.0 * abs(float(x - y)) ** alpha * (1 + 1e-12)


def test_verify_inner_passes():
    doc = verify_inner(SPEC6, samples=500, depth=30, seed=0)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["monotone", "holder", "shift", "range"]
    assert doc["passed"] is True
    holder = next(c for c in doc["checks"] if c["name"] == "holder")
    assert holder["passed"] is True
    assert "bound 4" in holder["detail"]
    for samples in (1, 20.5, True, "30"):
        with pytest.raises(DomainError, match=f"samples must be an integer >= 2, got {samples!r}"):
            verify_inner(SPEC6, samples=samples)
    with pytest.raises(DomainError, match="depth must be an integer in 1..240, got 0"):
        verify_inner(SPEC6, samples=10, depth=0)


def test_verify_inner_other_base():
    report = verify_inner(default_inner_spec(8), samples=200, depth=20, seed=3)
    assert report["passed"]


KERNEL_SPECS = list({inner: None for _, inner in NETWORKS} | {ODD_SPEC6: None, default_inner_spec(70): None,
                                                              default_inner_spec(1000): None})
KERNEL_DEPTHS = (1, 2, 29, 30, 31, 59, 60, 61, 120, 240)


def _columns(inputs):
    """The (numerators, denominators) columns of (num, den) inputs."""
    return [num for num, _ in inputs], [den for _, den in inputs]


def _kernel_inputs(base):
    """Integers, terminating, unreduced and general inputs, some with integer part 1."""
    return [(0, 1), (1, 1), (4, 4), (1, base), (7, base**2), (base + 1, base), (2, 2 * base), (3 * base, 9 * base),
            (1, 3), (2, 3), (2**50 - 1, 2**50), (59, 30), (10**12 - 1, 10**12), (base**45 + 1, base**45)]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"base{s.base}-den{s._den}")
def test_kernel_matches_the_oracle_at_every_chunk_boundary(spec):
    """Value and window against the Fraction oracle's digit loop, and the rest
    against base**depth * x mod 1, at depths on both sides of the chunk lengths,
    and at depths whose plan starts with a packed single-digit step: below one
    block (1 and 2 at base 6) and every depth at base 1000 (one-digit blocks)."""
    inputs = _kernel_inputs(spec.base)
    nums, dens = _columns(inputs)
    for depth in KERNEL_DEPTHS:
        scale = spec._den**depth
        for (num, den), value, window, rest in zip(inputs, *phi_scaled(spec, nums, dens, depth), strict=True):
            want = oracle.phi_eval(spec, Fraction(num, den), depth)
            got = Fraction(value, scale), Fraction(window, scale)
            assert got == want, (num, den, depth)
            assert rest == num * spec.base**depth % den


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"base{s.base}-den{s._den}")
@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "-".join(map(str, c)))
def test_extended_results_equal_direct_ones_along_the_chains(spec, chain):
    nums, dens = _columns(_kernel_inputs(spec.base))
    columns = phi_scaled(spec, nums, dens, chain[0])
    for before, depth in zip(chain, chain[1:]):
        columns = phi_extend(spec, *columns, dens, depth - before)
        assert columns == phi_scaled(spec, nums, dens, depth), (before, depth)


def test_the_kernel_table_does_not_grow_with_depth():
    """One positional table per spec, for one chunk; reading 240 digits adds nothing to it."""
    for spec in [*KERNEL_SPECS, default_inner_spec(10_000)]:
        spec = InnerSpec(spec.base, spec.weights)
        phi_scaled(spec, [1], [3], 1)
        chunk, _, steps = table = spec._table
        assert sum(len(cs) for _, _, cs in steps) <= max(CHUNK_TABLE_LIMIT, spec.base), spec.base
        phi_scaled(spec, [1, 2**50 - 1], [3, 2**50], 240)
        assert spec._table is table and max(spec._chunks) <= chunk
        assert all(len(first) == radix for _, _, radix, first, _ in spec._chunks.values()), spec.base


def test_the_kernel_refuses_depth_below_one():
    """The one depth rule: an int, not a bool, in 1..DEPTH_CAP, named when refused."""
    for depth in (0, -1, 2.5, True):
        for call in (lambda: phi_scaled(SPEC6, [1], [3], depth), lambda: phi_extend(SPEC6, [0], [1], [1], [3], depth)):
            reason = f"depth must be an integer in 1..{DEPTH_CAP}, got {depth!r}"
            with pytest.raises(DomainError, match=re.escape(reason)):
                call()
