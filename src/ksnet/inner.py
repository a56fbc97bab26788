"""The universal inner function: a monotone digit-weight map with certified truncation error.

Construction: digit i of the base-g input selects the output subinterval
[c(i), c(i) + w(i)) and recursion continues inside it, so the image interval
after k digits has width w(i_1)*...*w(i_k).  Capping every weight at 1/2
makes that width at most 2**-k, which is both the reported error bound and
the source of the Holder exponent ln 2 / ln g.  Positive weights keep the map
strictly increasing across distinct digit strings, and handling the integer
part separately gives phi(x + 1) = phi(x) + 1 for free.

Evaluation runs on integers: after k digits every value and window is an
integer over den**k, where den is the lcm of the weight denominators.  The
digits come from one floor division and are consumed three at a time (fewer
for large bases) through a table of per-block (c, w) numerators.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, ParameterError
from .rationals import ONE, ZERO

HALF = Fraction(1, 2)
# Digits consumed per table lookup: 3, or fewer when the table of
# base**digits entries would pass BLOCK_TABLE_LIMIT (base 6: 216 entries).
BLOCK_DIGITS = 3
BLOCK_TABLE_LIMIT = 1024


@dataclass(frozen=True)
class InnerSpec:
    """Digit-selection weights of the inner function.

    weights[i] is the share of the output interval given to digit i and
    cumulative[i] its left endpoint.  Constraints: every weight positive,
    none above 1/2, total exactly 1.
    """

    base: int
    weights: tuple[Fraction, ...]
    cumulative: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    # integer views over the lcm denominator, for the evaluation loop
    _den: int = field(init=False, repr=False, compare=False)
    _wnum: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _cnum: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base < 2:
            raise ParameterError(f"base must be >= 2, got {self.base}")
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != self.base:
            raise ParameterError(
                f"need one weight per digit: base {self.base}, got {len(weights)} weights"
            )
        for i, w in enumerate(weights):
            if w <= 0:
                raise ParameterError(f"weight w({i}) must be positive, got {w}")
            if w > HALF:
                raise ParameterError(f"weight w({i}) must be <= 1/2, got {w}")
        if sum(weights) != 1:
            raise ParameterError(f"weights must sum to 1, got {sum(weights)}")
        cumulative = tuple(itertools.accumulate(weights[:-1], initial=ZERO))
        den = math.lcm(*(w.denominator for w in weights))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cumulative", cumulative)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_wnum", tuple(int(w * den) for w in weights))
        object.__setattr__(self, "_cnum", tuple(int(c * den) for c in cumulative))

    @cached_property
    def _block(self) -> int:
        """Digits per table lookup."""
        digits = BLOCK_DIGITS
        while digits > 1 and self.base**digits > BLOCK_TABLE_LIMIT:
            digits -= 1
        return digits

    @cached_property
    def _blocks(self) -> tuple[tuple[int, int], ...]:
        """(c, w) numerators over _den**_block of every _block-digit string, indexed by its value."""
        table = []
        for value in range(self.base**self._block):
            c, w = 0, 1
            for r in reversed(range(self._block)):
                digit = value // self.base**r % self.base
                c = c * self._den + self._cnum[digit] * w
                w *= self._wnum[digit]
            table.append((c, w))
        return tuple(table)

    @cached_property
    def _powers(self) -> dict[int, tuple[int, tuple[int, ...], int]]:
        """By depth k: (base**k, _den**(_block*m) for each whole block m, _den**(_block*(k//_block)))."""
        return {}


def default_inner_spec(base: int) -> InnerSpec:
    """Half the interval to digit 0, the rest split evenly: w(0) = 1/2, w(i) = 1/(2(base-1))."""
    if base < 2:
        raise ParameterError(f"base must be >= 2, got {base}")
    rest = Fraction(1, 2 * (base - 1))
    return InnerSpec(base=base, weights=(HALF,) + (rest,) * (base - 1))


@dataclass(frozen=True)
class InnerValue:
    """A truncated inner-function value; the untruncated value lies in [value, value + error_bound]."""

    value: Fraction
    error_bound: Fraction

    @property
    def upper(self) -> Fraction:
        return self.value + self.error_bound


def phi_scaled(spec: InnerSpec, num: int, den: int, depth: int) -> tuple[int, int, int]:
    """Depth-`depth` truncation of the inner function at num/den in [0, 2), den > 0.

    Returns (value, window, rest): value and window are integer numerators
    over spec._den**depth, and rest / den is the fractional part of
    base**depth * num/den, the digits not read (phi_extend reads on from it).
    The window is w(i_1)*...*w(i_k), or 0 when num/den is an integer.  The
    digits are consumed from the least significant end, so each step
    prepends a block: value <- c * den**(digits so far) + w * value.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    powers = spec._powers.get(depth)
    block_len = spec._block
    if powers is None:
        block_unit = spec._den**block_len
        scales = tuple(block_unit**m for m in range(depth // block_len + 1))
        powers = spec._powers[depth] = (spec.base**depth, scales[:-1], scales[-1])
    digit_scale, scales, scale = powers
    whole, frac = divmod(num, den)
    if not frac:
        return whole * spec._den**depth, 0, 0
    digits, rest = divmod(frac * digit_scale, den)
    blocks, radix = spec._blocks, spec.base**block_len
    value, window = 0, 1
    for block_scale in scales:
        digits, block = divmod(digits, radix)
        c, w = blocks[block]
        value = c * block_scale + w * value
        window *= w
    cnum, wnum = spec._cnum, spec._wnum
    for _ in range(depth % block_len):
        digits, digit = divmod(digits, spec.base)
        value = cnum[digit] * scale + wnum[digit] * value
        window *= wnum[digit]
        scale *= spec._den
    return whole * scale + value, window, rest


def phi_extend(spec: InnerSpec, value: int, window: int, rest: int, den: int, more: int) -> tuple[int, int, int]:
    """phi_scaled at depth k + `more`, from its (value, window, rest) at depth k for some num/den.

    The digits past k are those of rest/den, so the value gains window times
    their own truncation: v' = v * _den**more + w * phi_more(rest/den) and
    w' = w * w_more.  An integer input (window 0) reads no digits, and a
    terminating one (rest 0) reads only zeros, which add c(0) = 0 to the
    value and a factor w(0) each to the window.
    """
    scale = spec._den**more
    if not window:
        return value * scale, 0, 0
    if not rest:
        return value * scale, window * spec._wnum[0] ** more, 0
    v, w, rest = phi_scaled(spec, rest, den, more)
    return value * scale + window * v, window * w, rest


def phi_eval(spec: InnerSpec, x, depth: int) -> InnerValue:
    """Depth-`depth` truncation of the inner function at x in [0, 2).

    The error bound is the width of the digit interval the tail lives in,
    w(i_1)*...*w(i_k) <= 2**-depth; it collapses to 0 only when the
    fractional part is zero (the digit sum is empty).
    """
    x = Fraction(x)
    if not 0 <= x < 2:
        raise DomainError(f"inner function domain is [0, 2), got {x}")
    value, window, _ = phi_scaled(spec, x.numerator, x.denominator, depth)
    scale = spec._den**depth
    return InnerValue(value=Fraction(value, scale), error_bound=Fraction(window, scale))


def phi_exact(spec: InnerSpec, x) -> Fraction:
    """The untruncated inner-function value at a terminating rational.

    Terminating means x * base**k is an integer for some k; the digit tail
    beyond k is all zeros and contributes c(0) = 0, so the depth-k truncation
    is already the exact value (its reported window stays positive, covering
    the rest of the digit cell).
    """
    x = Fraction(x)
    if not 0 <= x < 2:
        raise DomainError(f"inner function domain is [0, 2), got {x}")
    integer_part = x.numerator // x.denominator
    frac = x - integer_part
    if frac == 0:
        return Fraction(integer_part)
    den = frac.denominator
    depth = 0
    while den > 1:
        g = math.gcd(den, spec.base)
        if g == 1:
            raise DomainError(
                f"{x} does not terminate in base {spec.base}; use phi_eval with a depth"
            )
        den //= g
        depth += 1
    return phi_eval(spec, x, depth).value


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str
    witness: str | None = None

    def to_jsonable(self) -> dict:
        doc = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the randomized inner-function property suite."""

    checks: tuple[PropertyCheck, ...]
    samples: int
    depth: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "depth": self.depth,
            "seed": self.seed,
            "checks": [c.to_jsonable() for c in self.checks],
        }


def _log_fraction(x: Fraction) -> float:
    # log of arbitrarily large/small positive rationals without float overflow
    return math.log(x.numerator) - math.log(x.denominator)


def verify_inner(
    spec: InnerSpec,
    samples: int = 10_000,
    depth: int = 30,
    seed: int = 0,
    shift_samples: int | None = None,
) -> PropertyReport:
    """Randomized check of the inner function's contract.

    (a) monotonicity over sorted random points, within truncation error;
    (b) the Holder inequality |phi(x) - phi(y)| <= 4 |x - y|**(ln 2 / ln base)
        on random pairs, with the measured constant reported;
    (c) the exact shift identity phi(t + 1) = phi(t) + 1 on terminating t;
    (d) range containment phi([0, 1]) inside [0, 1].
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    if shift_samples is None:
        shift_samples = max(1, samples // 10)
    rng = random.Random(seed)
    denom = 2**53
    points = sorted(Fraction(rng.randrange(denom + 1), denom) for _ in range(samples))
    values = [phi_eval(spec, x, depth) for x in points]

    checks = []

    violations = 0
    witness = None
    for (x, vx), (y, vy) in zip(zip(points, values), zip(points[1:], values[1:])):
        if x == y:
            continue
        if vx.value > vy.value + vx.error_bound + vy.error_bound:
            violations += 1
            if witness is None:
                witness = f"x={x}, y={y}"
    checks.append(
        PropertyCheck(
            name="monotone",
            passed=violations == 0,
            detail=f"{violations} violations over {samples - 1} sorted adjacent pairs",
            witness=witness,
        )
    )

    alpha = math.log(2) / math.log(spec.base)
    log4 = math.log(4)
    violations = 0
    witness = None
    max_log_c = -math.inf
    for _ in range(samples):
        a = Fraction(rng.randrange(denom + 1), denom)
        b = Fraction(rng.randrange(denom + 1), denom)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        dphi = phi_eval(spec, b, depth).value - phi_eval(spec, a, depth).value
        if dphi == 0:
            continue
        log_c = _log_fraction(dphi) - alpha * _log_fraction(b - a)
        max_log_c = max(max_log_c, log_c)
        if log_c > log4:
            violations += 1
            if witness is None:
                witness = f"x={a}, y={b}"
    measured = math.exp(max_log_c) if max_log_c > -math.inf else 0.0
    checks.append(
        PropertyCheck(
            name="holder",
            passed=violations == 0,
            detail=(
                f"measured constant {measured:.6f} against bound 4 with exponent "
                f"ln2/ln{spec.base}, {violations} violations over {samples} pairs"
            ),
            witness=witness,
        )
    )

    violations = 0
    witness = None
    for _ in range(shift_samples):
        r = rng.randint(1, 6)
        t = Fraction(rng.randrange(spec.base**r), spec.base**r)
        if phi_exact(spec, t + 1) != phi_exact(spec, t) + 1:
            violations += 1
            if witness is None:
                witness = f"t={t}"
    checks.append(
        PropertyCheck(
            name="shift",
            passed=violations == 0,
            detail=f"{violations} violations over {shift_samples} terminating rationals",
            witness=witness,
        )
    )

    violations = 0
    witness = None
    for x, v in zip(points + [ZERO, ONE], values + [phi_eval(spec, ZERO, depth), phi_eval(spec, ONE, depth)]):
        if v.value < 0 or v.upper > 1:
            violations += 1
            if witness is None:
                witness = f"x={x}"
    checks.append(
        PropertyCheck(
            name="range",
            passed=violations == 0,
            detail=f"{violations} range escapes from [0, 1] over {samples + 2} points",
            witness=witness,
        )
    )

    return PropertyReport(checks=tuple(checks), samples=samples, depth=depth, seed=seed)
