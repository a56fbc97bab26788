"""Integer knot tables against the Fraction oracle: class report, save, load, literal parsing.

Knots stay integers over one unit from the fit to the file and back; the
oracle keeps the Fraction merge_report it replaced and a format-2 save and
load of its own, and every one must agree exactly, also where load's
whole-table fast path hands a value literal back to the one-at-a-time parse
and where a branch's tokens are refused.  save and load must also stay lean:
their transient memory is bounded by a small multiple of the bytes of the
file.
"""

import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksnet.errors import InputError, ModelFormatError
from ksnet.hashmaps import make_params
from ksnet.inner import default_inner_spec
from ksnet.network import assemble, load, save
from ksnet import outer as outer_module
from ksnet.outer import (
    OuterFunction, SampleSet, fit_exact, fit_iterative, grid_samples, merge_report, over_one_denominator,
)
from ksnet.rationals import parse_ratio, parse_rational, plain_ratios


def _fitted(d, gamma, n, seed, f):
    params, inner = make_params(d, gamma), default_inner_spec(gamma)
    rng = random.Random(seed)
    points = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.getrandbits(20), 2**20) for _ in range(d)))
    points = sorted(points)
    samples = SampleSet(points=tuple(points), targets=tuple(f(p) for p in points))
    outer, report = fit_exact(samples, params, inner)
    return assemble(inner, params, outer, meta={"fit_mode": "exact", "depth": report.depth})


def _iterative():
    params, inner = make_params(2, 6), default_inner_spec(6)
    outer, report = fit_iterative(grid_samples(lambda p: p[0] * p[1] - p[1] / 3, params, 1), params, inner)
    return assemble(inner, params, outer, meta={"fit_mode": "iterative", "depth": report.depth, "grid_level": 1})


def _hand_built():
    """Knots in branches 0 and 3 only, negative values, decimal-friendly positions, and
    one knot (110/7) whose denominator does not divide the unit of any depth."""
    params, inner = make_params(2, 6), default_inner_spec(6)
    empty = oracle.KnotTable(ys=(), gs=())
    tables = (
        oracle.KnotTable(ys=(Fraction(1, 4), Fraction(3, 8), Fraction(5, 2)),
                  gs=(Fraction(-1, 2), Fraction(-2, 3), Fraction(7))),
        empty,
        empty,
        oracle.KnotTable(ys=(Fraction(110, 7), Fraction(16), Fraction(33, 2), Fraction(19)),
                  gs=(Fraction(1, 3), Fraction(0), Fraction(-5, 4), Fraction(3, 10))),
        empty,
    )
    return assemble(inner, params, oracle.outer_from_tables(2, tables), meta={"note": "hand-built"})


MODELS = {
    "d2_reciprocal": _fitted(2, 6, 30, 1, lambda p: 1 / (p[0] + p[1] + Fraction(1, 1000))),
    "d3_product": _fitted(3, 8, 12, 2, lambda p: p[0] * p[1] * p[2]),
    "iterative_grid": _iterative(),
    "hand_built": _hand_built(),
}


def _spellings(x: Fraction, rng: random.Random) -> str:
    """One of the many literals of x that Fraction accepts: scaled, spaced, signed,
    underscored, decimal or exponent forms."""
    n, d = x.numerator, x.denominator
    forms = [str(x), f"{n * 2}/{d * 2}", f"{n * 7}/{d * 7}", f"  {x}\t", f"0{n}/0{d}" if n >= 0 else f"-0{-n}/{d}"]
    if n >= 0:
        forms.append(f"+{x}")
    digits = str(abs(n))
    if len(digits) > 1:
        forms.append(("-" if n < 0 else "") + digits[0] + "_" + digits[1:] + ("" if d == 1 else f"/{d}"))
    k = 0
    while (10**k) % d:  # decimal forms exist when d divides a power of ten
        k += 1
        if k > 80:
            break
    else:
        m = n * 10**k // d
        forms.append(f"{m}e-{k}")
        forms.append(f"{m}E-{k}")
        sign, body = ("-" if m < 0 else ""), str(abs(m)).rjust(k + 1, "0")
        forms.append(f"{sign}{body[:len(body) - k]}.{body[len(body) - k:]}" if k else f"{sign}{body}.0")
    return rng.choice(forms)


def _respelled(model, seed: int) -> str:
    """The model's document with every rational literal replaced by an equivalent spelling,
    and leading zeros before some integer tokens of the unit and the branches."""
    rng = random.Random(seed)
    doc = json.loads(oracle.save(model))
    for key in ("inner_weights", "lambda", "lambda_tail", "values"):
        doc[key] = [_spellings(Fraction(v), rng) for v in doc[key]]
    doc["unit"] = "0" * rng.randrange(3) + doc["unit"]
    for branch in doc["branches"]:
        for key in "yg":
            branch[key] = " ".join("0" * rng.randrange(3) + t for t in branch[key].split(" ")) if branch[key] else ""
    return json.dumps(doc)


def _key(model):
    return model.inner, model.params, oracle.tables(model.outer), model.meta


@pytest.mark.parametrize("name", sorted(MODELS))
def test_save_and_class_report_match_oracle(name):
    model = MODELS[name]
    assert save(model) == oracle.save(model)
    assert merge_report(model.outer) == oracle.merge_report(model.outer)


@pytest.mark.parametrize("name", sorted(MODELS))
@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_load_matches_oracle_on_any_spelling(name, seed):
    """Scaled (non-reduced), spaced, signed, underscored, decimal and exponent
    literals load to the oracle's values, save back to its bytes, and give its
    class report."""
    text = _respelled(MODELS[name], seed)
    got, want = load(text), oracle.load(text)
    assert _key(got) == _key(want) == _key(MODELS[name])
    assert save(got) == oracle.save(want) == save(MODELS[name])
    assert merge_report(got.outer) == oracle.merge_report(want.outer)


@st.composite
def _knot_tables(draw):
    """Up to 6 knots in each branch of d = 2, at spacings from 10**-1 down to 10**-330,
    with values up to 10**320 in size: some jump ratios pass the double range.

    A branch's values are drawn one by one, or laid on a line (its slopes tie
    exactly), or on a line whose steps are moved by -1, 0 or 1 parts in 10**17
    (slopes a float comparison can misorder).  Some tables scale each value's
    numerator and denominator by a common factor, as a loaded model may keep them.
    """
    tables = []
    for b in range(0, 25, 5):
        scale = 10 ** draw(st.sampled_from([1, 6, 40, 300, 330]))
        ys = sorted(draw(st.sets(st.integers(0, 4 * scale), max_size=6)))
        big = st.integers(-(10**320), 10**320) | st.integers(-50, 50)
        shape = draw(st.sampled_from(["drawn", "line", "near line"]))
        if shape == "drawn":
            gs = [Fraction(draw(big), draw(st.integers(1, 10**6))) for _ in ys]
        else:
            slope, start = (Fraction(draw(big), draw(st.integers(1, 10**6))) for _ in range(2))
            steps = [slope * Fraction(y1 - y0, scale) for y0, y1 in zip(ys, ys[1:])]
            if shape == "near line":
                steps = [step * (1 + Fraction(draw(st.integers(-1, 1)), 10**17)) for step in steps]
            gs = list(itertools.accumulate(steps, initial=start))[:len(ys)]
        tables.append(oracle.KnotTable(ys=tuple(b + Fraction(y, scale) for y in ys), gs=tuple(gs)))
    outer = oracle.outer_from_tables(2, tables)
    if draw(st.booleans()):
        # every knot its own table entry, unreduced by a drawn factor
        pairs = map(outer.values.__getitem__, outer.value_ids)
        values = tuple((n * f, m * f) for n, m in pairs for f in [draw(st.integers(1, 1000))])
        outer = OuterFunction(2, outer.unit, outer.knots, outer.starts, values, tuple(range(len(values))))
    return outer


@given(_knot_tables())
@settings(max_examples=120, deadline=None)
def test_class_report_matches_oracle_on_any_knot_table(outer):
    assert merge_report(outer) == oracle.merge_report(outer)


@given(_knot_tables(), st.integers(1, 800))
@settings(max_examples=40, deadline=None)
def test_class_report_matches_oracle_where_one_denominator_is_refused(outer, bits):
    """With PLAN_BITS_LIMIT lowered, common_unit refuses the value table's common
    denominator for some drawn tables, whose values are then compared as Fractions."""
    with mock.patch.object(outer_module, "PLAN_BITS_LIMIT", bits):
        assert merge_report(outer) == oracle.merge_report(outer)


@given(_knot_tables(), st.integers(1, 12), st.sampled_from([None, {"depth": 2}, {"note": "hand-built"}]))
@settings(max_examples=60, deadline=None)
def test_save_of_load_is_the_identity_on_hand_built_models(outer, factor, meta):
    """Empty branches, negative and unreduced values, and units that are not the
    stored depth's (the knots' lcm, times a drawn factor): the bytes read back
    to themselves, and are the oracle's."""
    outer = OuterFunction(2, outer.unit * factor, tuple(y * factor for y in outer.knots), outer.starts,
                          outer.values, outer.value_ids)
    model = assemble(default_inner_spec(6), make_params(2, 6), outer, meta)
    data = save(model)
    assert data == oracle.save(model)
    assert save(load(data)) == data == oracle.save(oracle.load(data))
    assert _key(load(data)) == _key(model)
    assert load(data).outer.unit == outer.unit != model.params.unit(model.inner, model.meta.get("depth", 30))


def test_a_refused_denominator_leaves_the_report_unchanged():
    tables = [oracle.KnotTable(ys=(Fraction(0), Fraction(1, 3), Fraction(2)),
                               gs=(Fraction(1, 7), Fraction(-5, 11), Fraction(3, 13)))]
    tables += [oracle.KnotTable(ys=(), gs=())] * 4
    outer = oracle.outer_from_tables(2, tables)
    want = merge_report(outer)
    with mock.patch.object(outer_module, "PLAN_BITS_LIMIT", 8):
        assert over_one_denominator(outer.values, outer.knot_count) is None
        assert merge_report(outer) == want == oracle.merge_report(outer)


def test_slopes_one_part_in_1e17_apart_take_the_exact_largest():
    """Two slopes 1.0001 parts in 10**17 apart straddle the midpoint between
    2**70 and the next double.  Their jumps and gaps rounded to doubles give the
    smaller slope the larger quotient, so only an exact comparison finds the
    larger one; it rounds up, the smaller one down."""
    unit, gaps = 2**62, (1424823520001274940, 1298435936178584516)
    jumps = (364754821120326423312, 332399599661717674662)
    assert float(jumps[0]) / float(gaps[0]) > float(jumps[1]) / float(gaps[1])
    small, large = (Fraction(j * unit, g) for j, g in zip(jumps, gaps))
    assert small < large and float(small) < float(large)
    tables = []
    for order in (slice(None), slice(None, None, -1)):
        g, j = gaps[order], jumps[order]
        tables.append(oracle.KnotTable(ys=(Fraction(0), Fraction(g[0], unit), Fraction(g[0] + g[1], unit)),
                                       gs=(Fraction(0), Fraction(j[0]), Fraction(j[0] + j[1]))))
    empty = oracle.KnotTable(ys=(), gs=())
    tables = [tables[0], empty, empty, oracle.KnotTable(ys=tuple(15 + y for y in tables[1].ys), gs=tables[1].gs), empty]
    report = merge_report(oracle.outer_from_tables(2, tables))
    assert report == oracle.merge_report(oracle.outer_from_tables(2, tables))
    assert [b["max_jump_ratio"] for b in report["branches"]] == [float(large), 0.0, 0.0, float(large), 0.0]


def test_subnormal_quotients_are_compared_exactly():
    """Where common_unit refuses one denominator the jumps stay Fractions.  Two
    jumps near 1e-320 over gaps of 2 and 18 units of 10**-300, slopes 6.1e-5
    apart, divide to subnormal doubles that misorder them, so every knot of
    the branch is compared exactly.  A one-knot branch keeps the unit at 10**300."""
    base = Fraction(495714, 10**326)
    jumps = (2 * base, 18 * base * (1 + Fraction(610, 10**7)))
    table = oracle.KnotTable(ys=(Fraction(0), Fraction(2, 10**300), Fraction(20, 10**300)),
                             gs=(Fraction(0), jumps[0], jumps[0] + jumps[1]))
    empty, spacer = oracle.KnotTable(ys=(), gs=()), oracle.KnotTable(ys=(5 + Fraction(1, 10**300),), gs=(Fraction(1),))
    outer = oracle.outer_from_tables(2, [table, spacer, empty, empty, empty])
    assert outer.unit == 10**300
    assert float(jumps[0]) / 2 > float(jumps[1]) / 18 > 0
    with mock.patch.object(outer_module, "PLAN_BITS_LIMIT", 64):
        assert over_one_denominator(outer.values, outer.knot_count) is None
        report = merge_report(outer)
    assert report == oracle.merge_report(outer)
    assert report["max_jump_ratio"] == float(jumps[1] / 18 * 10**300) > float(jumps[0] / 2 * 10**300)


def test_one_knot_and_empty_branches():
    one = oracle.KnotTable(ys=(Fraction(5, 2),), gs=(Fraction(-7, 3),))
    other = oracle.KnotTable(ys=(Fraction(17),), gs=(Fraction(1, 2),))
    empty = oracle.KnotTable(ys=(), gs=())
    for tables in ([one] + [empty] * 4, [empty] * 3 + [other, empty], [one, empty, empty, other, empty], [empty] * 5):
        outer = oracle.outer_from_tables(2, tables)
        report = merge_report(outer)
        assert report == oracle.merge_report(outer)
        assert all((b["max_jump"], b["max_jump_ratio"], b["min_spacing"]) == ("0", 0.0, None)
                   for b in report["branches"])


def test_an_overflowing_jump_ratio_reads_inf():
    """A jump of 10**10 over a gap of 10**-300 passes the double range, in one branch
    only; the branch and overall ratios are inf, as the oracle's are.  Values over
    10**400 have jumps past the double range as integers, but a ratio inside it."""
    empty = oracle.KnotTable(ys=(), gs=())
    tables = [oracle.KnotTable(ys=(Fraction(1), 1 + Fraction(1, 10**300), Fraction(2)),
                               gs=(Fraction(0), Fraction(10**10), Fraction(1, 3))),
              empty, empty,
              oracle.KnotTable(ys=(Fraction(16), Fraction(17)), gs=(Fraction(0), Fraction(2, 3))),
              oracle.KnotTable(ys=(Fraction(20), Fraction(21), Fraction(22)),
                               gs=(Fraction(1, 10**400), Fraction(10**400 - 1, 3 * 10**400), Fraction(1, 7)))]
    outer = oracle.outer_from_tables(2, tables)
    report = merge_report(outer)
    assert report == oracle.merge_report(outer)
    assert [b["max_jump_ratio"] for b in report["branches"]] == [float("inf"), 0.0, 0.0, 2 / 3, 1 / 3]
    assert report["max_jump_ratio"] == float("inf")


def test_unreduced_values_save_reduced():
    doc = json.loads(save(MODELS["hand_built"]))
    assert doc["values"][0] == "-1/2" and doc["branches"][0]["g"].startswith("0 ")
    doc["values"][0] = "-2/4"
    doc["values"].append("-1/2")  # a second spelling of one value, used by no knot
    doc["branches"][3]["y"] = "0" + doc["branches"][3]["y"]
    model = load(json.dumps(doc))
    assert model.outer.values[model.outer.value_ids[0]] == (-2, 4)
    assert save(model) == save(MODELS["hand_built"]) == oracle.save(model)
    assert merge_report(model.outer) == merge_report(MODELS["hand_built"].outer) == oracle.merge_report(model.outer)


LIMIT_CASES = ["1" * 4300, "1" * 4301, "1/" + "1" * 4298, "1/" + "1" * 4299, "-" + "9" * 4300, "1e-4299", "1e4300"]


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


@given(st.one_of(
    st.text(alphabet="0123456789-+/ _.eE\t", max_size=12),
    st.text(alphabet="0123456789-/١٢²１", max_size=8),
    st.sampled_from(["1/0", "+1/2", "-0", "007/010", "1/-2", "--1", "-", "1/", "/2", "1//2"] + LIMIT_CASES),
))
@settings(max_examples=600, deadline=None)
@example("١/٢")  # Arabic-Indic digits: Fraction accepts them, the ASCII fast path must not see them
@example("²")  # a superscript is a digit to str.isdigit but not to int()
def test_parse_fast_path_agrees_with_fraction(text):
    """The same literals are accepted with the same values, and refused with the same messages."""
    want = _outcome(oracle.parse_rational, text)
    assert _outcome(parse_rational, text) == want
    if isinstance(want, Fraction):
        num, den = parse_ratio(text)
        assert den > 0 and Fraction(num, den) == want


@given(st.lists(st.one_of(
    st.text(alphabet="0123456789-/ +_", max_size=8),
    st.sampled_from(["١/٢", "1/0", "5/", "1/-2", "1/2/3", None, 7] + LIMIT_CASES),
), max_size=6))
@settings(max_examples=300, deadline=None)
def test_plain_ratios_of_a_list_are_the_plain_ratios_of_each_item(texts):
    """The whole-list guard accepts a list exactly when it accepts every item alone,
    with parse_ratio's unreduced pairs."""
    alone = [plain_ratios([text]) for text in texts]
    got = plain_ratios(texts)
    if any(pair is None for pair in alone):
        assert got is None
    else:
        assert got == ([n for (n,), _ in alone], [m for _, (m,) in alone])
        assert list(zip(*got)) == [parse_ratio(text) for text in texts]


MISSING = object()  # stands for a branch without the key
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# each part within the int-string limit, the literal past it together
LONG_TOGETHER = "1" * 3000 + "/" + "7" * 3000
REFUSED = ["5/", "/2", "1/-2", "1/+2", "1 /2", "1/ 2", "0/0", "--1/2", "1/2-3", LONG_TOGETHER, None, 5]
# any value is a valid outer-function value
VALUES = ["+1/2", "1_0/3", "١/٢", "-0/7", "007/010", "-2/4", "6/9", "0"]
# tokens refused in a branch's y or g: signs, fractions, non-ASCII digits, spaces
# that leave an empty token, and a token past the int-string limit
REFUSED_TOKENS = ["", "-1", "+1", "1/2", "1.0", "1e3", "١", "²", "0x1", "1_0", "1 ", " 1", "9" * 4301, None, 5, MISSING]


def _moved(tokens: list[str], k: int, lo: int, hi: int) -> list[str]:
    """Respellings of position token k, and a position strictly between its neighbours
    (lo and hi when it has none), when there is room for one."""
    y = int(tokens[k])
    left = int(tokens[k - 1]) if k else lo
    right = int(tokens[k + 1]) if k + 1 < len(tokens) else hi
    moved = [str((left + y) // 2)] if left + 1 < y else [str((y + right) // 2)] if y + 1 < right else []
    return [f"00{y}", tokens[k].translate(ARABIC_INDIC)] + moved


@st.composite
def _one_literal(draw):
    """A saved model with one leaf edited: a value literal, one token of a branch's y
    or g, or the unit (respelled, or scaled with every position).  Positions keep
    their order, so every refusal is the edited leaf's own."""
    name = draw(st.sampled_from(sorted(MODELS)))
    doc = json.loads(save(MODELS[name]))
    unit, values, d = int(doc["unit"]), doc["values"], doc["d"]
    spots = [(q, k) for q, branch in enumerate(doc["branches"]) for k in range(len(branch["y"].split()))]
    where = draw(st.sampled_from(["values", "y", "g", "unit"] if spots else ["values", "unit"]))
    if where == "values":
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(REFUSED + VALUES))
    elif where == "unit":
        factor = draw(st.sampled_from([1, 3, 11]))
        doc["unit"] = draw(st.sampled_from([f"0{unit * factor}", str(unit * factor), str(unit + 1)] + REFUSED))
        for branch in doc["branches"]:
            branch["y"] = " ".join(str(int(y) * factor) for y in branch["y"].split())
    else:
        q, k = draw(st.sampled_from(spots))
        branch = doc["branches"][q]
        tokens = branch[where].split(" ")
        if where == "y":
            b = doc["b"][q]
            valid = _moved(tokens, k, b * unit, (b + 2 * d) * unit)
        else:
            valid = ["0", str(len(values) - 1), f"0{tokens[k]}"]
        token = draw(st.sampled_from(REFUSED_TOKENS + [str(len(values)), str(10**30)] * (where == "g") + valid))
        if token is MISSING:
            del branch[where]
        elif not isinstance(token, str):
            branch[where] = token
        else:
            tokens[k] = token
            branch[where] = " ".join(tokens)
    return json.dumps(doc, indent=2)


def _load_outcome(load_model, text):
    try:
        return load_model(text)
    except ModelFormatError as exc:
        return exc


@given(_one_literal())
@settings(max_examples=300, deadline=None)
def test_load_matches_oracle_on_one_drawn_knot_literal(text):
    """load reads the values through one guard, falling back to the one-at-a-time
    parse, and each branch with split and int: it loads what the oracle loads, to
    the same tables and bytes, and refuses what the oracle refuses, at the same
    location and in the same words."""
    got, want = _load_outcome(load, text), _load_outcome(oracle.load, text)
    if isinstance(want, ModelFormatError):
        assert isinstance(got, ModelFormatError), got
        assert (got.location, str(got)) == (want.location, str(want))
    else:
        assert not isinstance(got, ModelFormatError), got
        assert _key(got) == _key(want)
        assert save(got) == oracle.save(want)


def _transient_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_model():
    model = _fitted(2, 6, 220, 5, lambda p: p[0] * p[1])
    assert model.outer.knot_count >= 1000
    return model


def test_save_peak_memory_is_a_small_multiple_of_its_output(large_model):
    data = save(large_model)
    peak = _transient_peak(lambda: save(large_model))
    assert peak < 3 * len(data), (peak, len(data))


def test_load_peak_memory_is_a_small_multiple_of_its_input(large_model):
    """The parsed document, the joined literals of one branch and the knot tables
    stay below 5x the file's bytes together."""
    data = save(large_model)
    assert save(load(data)) == data
    peak = _transient_peak(lambda: load(data))
    assert peak < 5 * len(data), (peak, len(data))
