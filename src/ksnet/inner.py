"""The universal inner function: a monotone digit-weight map with certified truncation error.

Construction: digit i of the base-g input selects the output subinterval
[c(i), c(i) + w(i)) and recursion continues inside it, so the image interval
after k digits has width w(i_1)*...*w(i_k).  Capping every weight at 1/2
makes that width at most 2**-k, which is both the reported error bound and
the source of the Holder exponent ln 2 / ln g.  Positive weights keep the map
strictly increasing across distinct digit strings, and handling the integer
part separately gives phi(x + 1) = phi(x) + 1 for free.

Evaluation runs on integers: after k digits every value and window is an
integer over den**k, where den is the lcm of the weight denominators.  One
kernel, phi_extend, reads the digits of a whole list of inputs, as columns:
values, windows, rests and input denominators in, values, windows and rests
out.  It reads them one chunk at a time (30 digits for base 6), each chunk
from one floor division, and consumes a chunk's digits in blocks of three
(fewer for large bases) from the least significant end.  Value and window
share one integer, x = window << shift | value, so prepending the block at
position m is one multiply-add, x <- w * x + c * den**(3m), with both factors
read off a positional table that InnerSpec builds once, for one chunk.  A
chunk starts from its first block alone, one lookup in the chunk plan's list
of pre-packed (w << shift) + c.  Chunks join by the rule a depth retry uses:
value * den**k + window * value', window * window'.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import floordiv, mod

from .errors import DomainError, ParameterError
from .rationals import ZERO, check_int

HALF = Fraction(1, 2)
# Deepest truncation anything reads: a fit's retries stop here, and every depth passes check_depth.
DEPTH_CAP = 240
# Digits per block: 3, or fewer when a block's base**digits strings would pass
# BLOCK_TABLE_LIMIT (base 6: 216 of them).
BLOCK_DIGITS = 3
BLOCK_TABLE_LIMIT = 1024
# Digits per chunk: CHUNK_DIGITS in whole blocks, fewer when the positional
# table (one entry per block string and position) would pass
# CHUNK_TABLE_LIMIT entries, at least one block.  Base 6: 10 positions, 30 digits.
CHUNK_DIGITS = 30
CHUNK_TABLE_LIMIT = 4096
# Samples per kernel call in verify_inner (a Holder pair or a shift is two inputs): bounds its memory at depth 240.
VERIFY_CHUNK = 4096
# Most digits of the terminating inputs of verify_inner's shift check.
SHIFT_DIGITS = 6


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
        check_int("base", self.base, 2, error=ParameterError)
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
        """Digits per block."""
        digits = BLOCK_DIGITS
        while digits > 1 and self.base**digits > BLOCK_TABLE_LIMIT:
            digits -= 1
        return digits

    @cached_property
    def _table(self) -> tuple[int, int, list[tuple[int, tuple[int, ...], list[int]]]]:
        """(chunk digits, shift, steps): the positional table of one chunk, built once.

        steps[m] = (radix, ws, cs) prepends the block at position m from the
        least significant end of a chunk: for the _block-digit string with
        value b, ws[b] is its window numerator w and cs[b] its c times
        _den**(_block*m).  With value and window packed as window << shift |
        value, that is x <- ws[b] * x + cs[b]; shift leaves room for any
        chunk's value, which stays below _den**chunk.
        """
        block, den = self._block, self._den
        ws, cs = (1,), (0,)
        for length in range(block):  # prepend a leading digit to every string of this length
            unit = den**length
            ws, cs = (
                tuple(wd * w for wd in self._wnum for w in ws),
                [cd * unit + wd * c for cd, wd in zip(self._cnum, self._wnum) for c in cs],
            )
        radix = len(ws)
        positions = max(1, min(CHUNK_DIGITS // block, CHUNK_TABLE_LIMIT // radix))
        steps = [(radix, ws, [c * unit for c in cs]) for unit in (den ** (block * m) for m in range(positions))]
        chunk = block * positions
        return chunk, (den**chunk).bit_length(), steps

    @cached_property
    def _chunks(self) -> dict[int, tuple[int, int, int, list[int], list]]:
        """_chunk's results by k."""
        return {}

    def _chunk(self, k: int) -> tuple[int, int, int, list[int], list]:
        """(base**k, _den**k, radix, first, steps) to read k <= chunk digits: the
        table's first k // _block positions, then one step per digit left over.

        The first of these steps is packed: first[b] = (w << shift) + c is its
        (radix, ws, cs) applied to the empty string, so a chunk starts from one
        lookup, x = first[b]; steps are the ones after it.
        """
        plan = self._chunks.get(k)
        if plan is None:
            _, shift, table = self._table
            whole = k // self._block
            singles = [
                (self.base, self._wnum, [c * self._den**j for c in self._cnum])
                for j in range(whole * self._block, k)
            ]
            (radix, ws, cs), *steps = table[:whole] + singles
            first = [(w << shift) + c for w, c in zip(ws, cs)]
            plan = self._chunks[k] = (self.base**k, self._den**k, radix, first, steps)
        return plan


def default_inner_spec(base: int) -> InnerSpec:
    """Half the interval to digit 0, the rest split evenly: w(0) = 1/2, w(i) = 1/(2(base-1))."""
    check_int("base", base, 2, error=ParameterError)
    rest = Fraction(1, 2 * (base - 1))
    return InnerSpec(base=base, weights=(HALF,) + (rest,) * (base - 1))


def check_depth(depth) -> None:
    """The one depth rule, of the kernel, the fits and evaluation: an int (not a bool) in 1..DEPTH_CAP."""
    check_int("depth", depth, 1, DEPTH_CAP)


def phi_extend(spec: InnerSpec, values, windows, rests, dens, more: int) -> tuple[list[int], list[int], list[int]]:
    """The inner kernel: read `more` further digits of each input, as columns.

    values[i], windows[i] and rests[i] are phi_scaled's (value, window, rest)
    at some depth k for an input with denominator dens[i]; the result is the
    value, window and rest columns at depth k + `more`.  The digits past k
    are those of rest/den, so the value gains window times their own
    truncation: v' = v * _den**more + w * phi_more(rest/den) and
    w' = w * w_more, one chunk at a time.  An integer input (window 0) reads
    no digits, and a terminating one (rest 0) reads only zeros, which add
    c(0) = 0 to the value and a factor w(0) each to the window.
    """
    check_depth(more)
    chunk, shift, _ = spec._table
    mask = (1 << shift) - 1
    plans = [spec._chunk(chunk)] * (more // chunk)
    if more % chunk:
        plans.append(spec._chunk(more % chunk))
    out_values, out_windows, out_rests = [], [], []
    append_value, append_window, append_rest = out_values.append, out_windows.append, out_rests.append
    for value, window, rest, den in zip(values, windows, rests, dens):
        if rest:
            for digit_scale, unit, lead, first, steps in plans:
                digits, rest = divmod(rest * digit_scale, den)
                x = first[digits % lead]
                digits //= lead
                for radix, ws, cs in steps:
                    block = digits % radix
                    digits //= radix
                    x = ws[block] * x + cs[block]
                value = value * unit + window * (x & mask)
                window *= x >> shift
        else:
            value, window = value * spec._den**more, window and window * spec._wnum[0] ** more
        append_value(value)
        append_window(window)
        append_rest(rest)
    return out_values, out_windows, out_rests


def phi_scaled(spec: InnerSpec, nums, dens, depth: int) -> tuple[list[int], list[int], list[int]]:
    """Depth-`depth` truncation of the inner function at each nums[i]/dens[i] in [0, 2), dens[i] > 0.

    Returns the value, window and rest columns: value and window are integer
    numerators over spec._den**depth, and rest / den is the fractional part
    of base**depth * num/den, the digits not read (phi_extend reads on from
    it).  The window is w(i_1)*...*w(i_k), or 0 when num/den is an integer.
    Each input starts at depth 0 as its integer part, window 1 (0 for an
    integer) and its fractional part.
    """
    rests = list(map(mod, nums, dens))
    return phi_extend(spec, list(map(floordiv, nums, dens)), [rest and 1 for rest in rests], rests, dens, depth)


def phi_eval(spec: InnerSpec, x, depth: int) -> tuple[Fraction, Fraction]:
    """Depth-`depth` truncation of the inner function at x in [0, 2), as (value, error_bound).

    The untruncated value lies in [value, value + error_bound].  The bound is
    the width of the digit interval the tail lives in, w(i_1)*...*w(i_k) <=
    2**-depth; it collapses to 0 only when the fractional part is zero (the
    digit sum is empty).  Once `depth` reaches the digit count of a
    terminating x, the digits left are zeros, which add c(0) = 0, so value is
    exact (the bound stays positive, covering the rest of the digit cell).
    """
    x = Fraction(x)
    if not 0 <= x < 2:
        raise DomainError(f"inner function domain is [0, 2), got {x}")
    (value,), (window,), _ = phi_scaled(spec, [x.numerator], [x.denominator], depth)
    scale = spec._den**depth
    return Fraction(value, scale), Fraction(window, scale)


def _log_fraction(x: Fraction) -> float:
    # log of arbitrarily large/small positive rationals without float overflow
    return math.log(x.numerator) - math.log(x.denominator)


def _from_witnesses(name: str, witnesses: list[str], detail: str) -> dict:
    """A check that passed when it found no witness, with the first one it found as "witness"."""
    check = {"name": name, "passed": not witnesses, "detail": detail}
    if witnesses:
        check["witness"] = witnesses[0]
    return check


def _terminating(rng: random.Random, base: int) -> tuple[int, int]:
    """(k, base**r) for a random r in 1..SHIFT_DIGITS and k in 0..base**r - 1."""
    scale = base ** rng.randint(1, SHIFT_DIGITS)
    return rng.randrange(scale), scale


def verify_inner(
    spec: InnerSpec,
    samples: int = 10_000,
    depth: int = 30,
    seed: int = 0,
) -> dict:
    """Randomized check of the inner function's contract: the "inner" document of `ksnet check`.

    (a) monotonicity over sorted random points, within truncation error;
    (b) the Holder inequality |phi(x) - phi(y)| <= 4 |x - y|**(ln 2 / ln base)
        on random pairs, with the measured constant reported;
    (c) the exact shift identity phi(t + 1) = phi(t) + 1 on terminating t;
    (d) range containment phi([0, 1]) inside [0, 1].

    One seeded generator draws the points, then the Holder pairs (53-bit
    dyadics in [0, 1]), then the terminating t, in that order.
    phi is read through phi_scaled, VERIFY_CHUNK samples per call (a chunk
    of sorted points overlaps the one before it by one point, which links
    their adjacent pairs), and values are compared as integer numerators over
    spec._den**depth; t is read to SHIFT_DIGITS digits, which is all of it.
    The document holds "passed", "samples", "depth", "seed" and one entry per
    check under "checks": its "name", "passed" and "detail", and its first
    "witness" only when it found one.
    """
    check_int("samples", samples, 2)
    shift_samples = max(1, samples // 10)
    rng = random.Random(seed)
    denom, scale = 2**53, spec._den**depth
    points = sorted(rng.randrange(denom + 1) for _ in range(samples))

    def phis(nums):  # value and window numerator columns of phi at num/denom for each num
        return phi_scaled(spec, nums, [denom] * len(nums), depth)[:2]

    def escaping(xs, values, windows):  # witnesses of phi(x) leaving [0, 1]
        return [f"x={Fraction(x, denom)}" for x, v, w in zip(xs, values, windows) if v < 0 or v + w > scale]

    disorder, escapes = [], []
    for start in range(0, samples, VERIFY_CHUNK):
        xs = points[max(start - 1, 0):start + VERIFY_CHUNK]
        values, windows = phis(xs)
        disorder += [
            f"x={Fraction(x, denom)}, y={Fraction(y, denom)}"
            for x, y, vx, wx, vy, wy in zip(xs, xs[1:], values, windows, values[1:], windows[1:])
            if x != y and vx > vy + wx + wy
        ]
        fresh = 1 if start else 0  # the overlap point was range-checked with the chunk before
        escapes += escaping(xs[fresh:], values[fresh:], windows[fresh:])
    escapes += escaping((0, denom), *phis((0, denom)))

    alpha = math.log(2) / math.log(spec.base)
    log4 = math.log(4)
    steep = []
    max_log_c = -math.inf
    for start in range(0, samples, VERIFY_CHUNK):
        pairs = [sorted((rng.randrange(denom + 1), rng.randrange(denom + 1)))
                 for _ in range(min(VERIFY_CHUNK, samples - start))]
        pairs = [(a, b) for a, b in pairs if a != b]
        values, _ = phis([x for pair in pairs for x in pair])
        for (a, b), va, vb in zip(pairs, values[::2], values[1::2]):
            if va == vb:
                continue
            log_c = _log_fraction(Fraction(abs(vb - va), scale)) - alpha * _log_fraction(Fraction(b - a, denom))
            max_log_c = max(max_log_c, log_c)
            if log_c > log4:
                steep.append(f"x={Fraction(a, denom)}, y={Fraction(b, denom)}")
    measured = math.exp(max_log_c) if max_log_c > -math.inf else 0.0

    unshifted = []
    one = spec._den**SHIFT_DIGITS
    for start in range(0, shift_samples, VERIFY_CHUNK):
        ts = [_terminating(rng, spec.base) for _ in range(min(VERIFY_CHUNK, shift_samples - start))]
        nums, dens = [k + shift for k, m in ts for shift in (0, m)], [m for _, m in ts for _ in (0, m)]
        values, _, _ = phi_scaled(spec, nums, dens, SHIFT_DIGITS)
        unshifted += [f"t={Fraction(k, m)}" for (k, m), v, v1 in zip(ts, values[::2], values[1::2]) if v1 != v + one]

    checks = [
        _from_witnesses("monotone", disorder,
                        f"{len(disorder)} violations over {samples - 1} sorted adjacent pairs"),
        _from_witnesses("holder", steep, f"measured constant {measured:.6f} against bound 4 with exponent "
                        f"ln2/ln{spec.base}, {len(steep)} violations over {samples} pairs"),
        _from_witnesses("shift", unshifted,
                        f"{len(unshifted)} violations over {shift_samples} terminating rationals"),
        _from_witnesses("range", escapes, f"{len(escapes)} range escapes from [0, 1] over {samples + 2} points"),
    ]
    passed = all(check["passed"] for check in checks)
    return {"passed": passed, "samples": samples, "depth": depth, "seed": seed, "checks": checks}
