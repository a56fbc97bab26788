"""Model assembly, evaluation bounds, serialization, topology reporting."""

import csv
import dataclasses
import io
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksnet import hashmaps
from ksnet.cli import main
from ksnet.errors import AssemblyError, DomainError, ModelFormatError, PointError
from ksnet.hashmaps import DEPTH_CAP, make_params, psi_eval
from ksnet.inner import default_inner_spec
from ksnet.network import (
    FORMAT_VERSION,
    FastEvaluator,
    assemble,
    describe,
    dot,
    evaluate,
    evaluate_batch,
    load,
    save,
)
from ksnet.outer import KnotLookup, SampleSet, fit_exact
from oracle import KnotTable, outer_from_tables

SPEC6 = default_inner_spec(6)
P26 = make_params(2, 6)


def _fit_model(seed=0, n=20, f=lambda p: p[0] * p[1], bits=50):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.getrandbits(bits), 2**bits) for _ in range(2)))
    pts = sorted(pts)
    samples = SampleSet(points=tuple(pts), targets=tuple(f(p) for p in pts))
    outer, report = fit_exact(samples, P26, SPEC6)
    model = assemble(SPEC6, P26, outer, meta={"fit_mode": "exact", "depth": report.depth})
    return model, samples


MODEL, SAMPLES = _fit_model()


def test_assemble_rejects_mismatches():
    with pytest.raises(AssemblyError, match="base"):
        assemble(default_inner_spec(8), P26, MODEL.outer)
    with pytest.raises(AssemblyError, match="d"):
        assemble(default_inner_spec(8), make_params(3, 8), MODEL.outer)


def test_evaluate_reproduces_fitted_samples():
    for p, t in zip(SAMPLES.points, SAMPLES.targets):
        w, err = evaluate(MODEL, p)
        assert w == t


def test_evaluate_decomposes_into_branches():
    x = (Fraction(2, 7), Fraction(3, 5))
    w, err, parts = evaluate(MODEL, x, with_branches=True)
    assert len(parts) == 5
    assert sum(parts) == w
    # each part is the outer function applied to that branch's hash value
    for q, v in enumerate(parts):
        y, _ = psi_eval(P26, SPEC6, x, q, 30)
        lookup = KnotLookup(MODEL.outer, y.denominator)
        num, _, den = lookup.branch(y.numerator * lookup.lift, 0)
        assert Fraction(num, den * lookup.value_den) == v


def test_evaluate_validates_input():
    with pytest.raises(DomainError):
        evaluate(MODEL, (Fraction(1, 2),))
    with pytest.raises(DomainError):
        evaluate(MODEL, (Fraction(1, 2), Fraction(-1, 10)))


def test_evaluate_batch_names_offending_point():
    points = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2))]
    with pytest.raises(DomainError, match="point 1"):
        evaluate_batch(MODEL, points)
    for numeric in ("exact", "fast"):
        with pytest.raises(PointError) as caught:
            evaluate_batch(MODEL, points, numeric=numeric)
        assert (caught.value.index, caught.value.reason) == (1, "coordinate 2 must lie in [0, 1], got 3/2")


def _refusal(point):
    """What oracle.check_point raises for the point (Fraction's own error for a coordinate
    it cannot take), or None if it passes."""
    try:
        oracle.check_point(P26, point)
    except (DomainError, TypeError, ValueError, ArithmeticError) as exc:
        return exc
    return None


inside = st.fractions(min_value=0, max_value=1, max_denominator=12)
outside = st.sampled_from([Fraction(-1, 3), Fraction(-1), Fraction(7, 6), Fraction(3, 2), 2])
unreadable = st.sampled_from([math.nan, math.inf, None, "x"])


@given(st.lists(st.lists(st.one_of(inside, inside, inside, outside, unreadable), min_size=1, max_size=3),
                min_size=1, max_size=8),
       st.sampled_from(["exact", "fast"]))
@settings(max_examples=200, deadline=None)
def test_a_batch_names_its_first_bad_point(points, numeric):
    """Short, long, out-of-range and unreadable points mixed with good ones, repeats
    allowed: the batch fails at the first point, in input order, that oracle.check_point
    refuses, with the same reason; a coordinate Fraction cannot take raises Fraction's
    own error, as it does for one point."""
    refusals = [(j, exc) for j, point in enumerate(points) if (exc := _refusal(point)) is not None]
    if not refusals:
        assert len(evaluate_batch(MODEL, points, numeric=numeric)) == len(points)
        return
    j, first = refusals[0]
    if not isinstance(first, DomainError):
        with pytest.raises(type(first)) as caught:
            evaluate_batch(MODEL, points, numeric=numeric)
        assert str(caught.value) == str(first) and not isinstance(caught.value, DomainError)
        return
    with pytest.raises(PointError) as caught:
        evaluate_batch(MODEL, points, numeric=numeric)
    assert (caught.value.index, caught.value.reason) == (j, str(first))
    assert str(caught.value) == f"point {j}: {first}"


@pytest.mark.parametrize("point, reason", [
    ((Fraction(1, 2),), "expected 2 coordinates, got 1"),
    ((Fraction(1, 2),) * 3, "expected 2 coordinates, got 3"),
    ((Fraction(1, 2), Fraction(-1, 10)), "coordinate 2 must lie in [0, 1], got -1/10"),
    ((Fraction(3, 2), 2), "coordinate 1 must lie in [0, 1], got 3/2"),
])
def test_a_single_call_names_the_fault_without_an_index(point, reason):
    assert str(_refusal(point)) == reason
    for call in (lambda: evaluate(MODEL, point), lambda: FastEvaluator(MODEL).evaluate(point),
                 lambda: psi_eval(P26, SPEC6, point, 0, 30)):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == reason and not isinstance(caught.value, PointError)


def test_repeated_and_respelled_queries(tmp_path):
    """One value spelled 1/2, 2/4 and 0.5, and whole points repeated: every row is
    the oracle's value at depth 2, at the stored depth and at depth 240, from
    the library and from the command line."""
    rows = [["1/2", "1/3"], ["2/4", "1/3"], ["0.5", "2/6"], ["1/3", "1/2"], ["1/2", "1/3"], ["0", "1"]]
    save(MODEL, tmp_path / "m.json")
    with open(tmp_path / "q.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["x1", "x2"], *rows])
    for depth in (2, None, 240):
        want = [oracle.evaluate(MODEL, tuple(map(Fraction, row)), depth or MODEL.meta["depth"])[:2] for row in rows]
        assert evaluate_batch(MODEL, rows, depth) == want
        flags = [] if depth is None else ["--depth", str(depth)]
        assert main(["eval", "--model", str(tmp_path / "m.json"), "--in", str(tmp_path / "q.csv"),
                     "--out", str(tmp_path / "e.csv"), *flags]) == 0
        with open(tmp_path / "e.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [[str(w), str(err)] for w, err in want]


def test_a_batch_reads_each_distinct_coordinate_once(monkeypatch):
    """phi runs on the k_p distinct coordinates of each axis p, once per branch:
    (2d+1) * sum k_p kernel inputs for the batch, not (2d+1) * d per point.  A
    single call makes one kernel call over its d coordinates."""
    inputs = []
    kernel = hashmaps.phi_scaled
    monkeypatch.setattr(hashmaps, "phi_scaled", lambda spec, nums, dens, depth: inputs.append(len(nums)) or kernel(
        spec, nums, dens, depth))
    xs, ys = [Fraction(1, 3), Fraction(1, 7)], [Fraction(0), Fraction(2, 5), Fraction(1)]
    points = [(xs[j % 2], ys[j % 3]) for j in range(12)]  # 6 distinct points, each twice
    for numeric in ("exact", "fast"):
        inputs.clear()
        assert len(evaluate_batch(MODEL, points, numeric=numeric)) == 12
        assert inputs == [5 * 2, 5 * 3]
    for call in (lambda: evaluate(MODEL, points[0]), lambda: FastEvaluator(MODEL).evaluate(points[0]),
                 lambda: psi_eval(P26, SPEC6, points[0], 0, 30)):
        inputs.clear()
        call()
        assert inputs == [5 * 2]


def test_error_bound_brackets_deeper_evaluation():
    """Refining the depth moves the value by at most the reported bound."""
    rng = random.Random(5)
    for _ in range(20):
        x = tuple(Fraction(rng.getrandbits(60), 2**60) for _ in range(2))
        w30, err30 = evaluate(MODEL, x, depth=30)
        w60, err60 = evaluate(MODEL, x, depth=60)
        assert abs(w60 - w30) <= err30
        assert err60 <= err30


def test_exact_value_despite_positive_bound():
    """Branch shifts by q a are never terminating (the denominator keeps a
    factor gamma - 1), so the bound stays positive even at fitted samples;
    the value there is still exactly the target."""
    x, t = SAMPLES.points[0], SAMPLES.targets[0]
    w30, err30 = evaluate(MODEL, x, depth=30)
    assert w30 == t
    assert 0 < err30 < Fraction(1, 10**8)


def test_fast_evaluator_tracks_exact():
    fast = FastEvaluator(MODEL)
    rng = random.Random(6)
    for _ in range(40):
        x = tuple(Fraction(rng.getrandbits(60), 2**60) for _ in range(2))
        w, err = evaluate(MODEL, x)
        wf, _ = fast.evaluate(x)
        assert abs(wf - float(w)) <= float(err) + 1e-12


def test_fast_error_bound_tracks_exact():
    """The float bound is the exact bound plus the rounding of w, rounded up:
    never below what it must cover, never more than one ulp of w above the
    exact bound."""
    fast = FastEvaluator(MODEL)
    for x in [(Fraction(1, 3), Fraction(5, 6)), (Fraction(1, 2), Fraction(1, 2))]:
        _, err = evaluate(MODEL, x)
        _, errf = fast.evaluate(x)
        assert float(err) > 1e-12
        assert abs(errf - float(err)) <= 1e-5 * float(err)
    rng = random.Random(6)
    for _ in range(40):
        x = tuple(Fraction(rng.getrandbits(60), 2**60) for _ in range(2))
        w, err = evaluate(MODEL, x)
        wf, errf = fast.evaluate(x)
        assert err + abs(Fraction(wf) - w) <= errf <= float(err) + math.ulp(wf)


def test_fast_bound_covers_its_own_rounding():
    """|wf - w| is about 1e-17 while the exact bound can be far smaller (or 0
    when no knot lies in a window); the float bound must still cover it."""
    fast = FastEvaluator(MODEL)
    rng = random.Random(11)
    for _ in range(60):
        x = tuple(Fraction(rng.getrandbits(60), 2**60) for _ in range(2))
        w, err = evaluate(MODEL, x)
        wf, errf = fast.evaluate(x)
        assert wf == float(w)
        assert Fraction(errf) >= err + abs(Fraction(wf) - w)


def test_plan_refuses_knots_without_a_common_scale(monkeypatch, tmp_path, capsys):
    """Knots with unrelated denominators (a hand-edited model, never a fit)
    would need integers that grow with every knot; the plan refuses them.  A
    batch reports the refusal at its first point, and the command line at row 1."""
    primes = (7, 11, 13, 17, 19, 23, 29, 31)
    ys = tuple(Fraction(1, 2) + Fraction(1, p) for p in primes)
    table = KnotTable(ys=tuple(sorted(ys)), gs=(Fraction(1),) * len(ys))
    empty = KnotTable(ys=(), gs=())
    model = assemble(SPEC6, P26, outer_from_tables(2, (table,) + (empty,) * 4))
    assert evaluate(model, (Fraction(1, 2), Fraction(1, 2)))[0] == 5
    # room for knots over the depth-30 denominator itself, not for 2**30 times more
    unit_bits = P26.unit(SPEC6, 30).bit_length()
    limit = len(ys) * (unit_bits + 30)
    monkeypatch.setattr("ksnet.outer.PLAN_BITS_LIMIT", limit)
    model = assemble(SPEC6, P26, model.outer)
    with pytest.raises(DomainError, match="plan limit") as caught:
        evaluate(model, (Fraction(1, 2), Fraction(1, 2)))
    reason = str(caught.value)
    assert not isinstance(caught.value, PointError)
    with pytest.raises(PointError) as caught:
        evaluate_batch(assemble(SPEC6, P26, model.outer), [(Fraction(1, 2), Fraction(1, 2))] * 2)
    assert (caught.value.index, caught.value.reason) == (0, reason)
    save(model, tmp_path / "m.json")
    (tmp_path / "q.csv").write_text("x1,x2\n1/2,1/2\n")
    assert main(["eval", "--model", str(tmp_path / "m.json"), "--in", str(tmp_path / "q.csv")]) != 0
    assert capsys.readouterr().err == f"error: row 1: {reason}\n"


def test_a_batch_reports_a_bad_depth_at_its_first_point():
    """An explicit depth has the stored depth's rule, an int in 1..DEPTH_CAP: a bool, a float
    or a depth past the cap is refused before any digit is read, by every evaluation."""
    x = (Fraction(1, 2), Fraction(1, 3))
    for depth in (0, -3, True, 2.5, DEPTH_CAP + 1, 8000):
        reason = f"depth must be an integer in 1..{DEPTH_CAP}, got {depth!r}"
        for numeric in ("exact", "fast"):
            with pytest.raises(PointError) as caught:
                evaluate_batch(MODEL, [x, x], depth=depth, numeric=numeric)
            assert (caught.value.index, caught.value.reason) == (0, reason)
        for call in (lambda: evaluate(MODEL, x, depth), lambda: FastEvaluator(MODEL).evaluate(x, depth)):
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == reason and not isinstance(caught.value, PointError)
    assert evaluate(MODEL, x, DEPTH_CAP)[1] <= evaluate(MODEL, x, 30)[1]


def test_fast_evaluator_validates_input():
    fast = FastEvaluator(MODEL)
    with pytest.raises(DomainError):
        fast.evaluate((Fraction(1, 2), Fraction(2)))


def test_save_writes_the_version_of_the_format_it_writes():
    """A meta record that names another format_version does not relabel the file."""
    model = dataclasses.replace(MODEL, meta={**MODEL.meta, "format_version": 1})
    blob = save(model)
    assert json.loads(blob)["format_version"] == FORMAT_VERSION
    assert blob == save(MODEL) == save(load(blob))


def test_save_load_round_trip():
    blob = save(MODEL)
    again = load(blob)
    assert save(again) == blob
    assert again.params == MODEL.params
    assert again.outer == MODEL.outer
    assert again.meta == MODEL.meta
    rng = random.Random(7)
    for _ in range(20):
        x = tuple(Fraction(rng.getrandbits(50), 2**50) for _ in range(2))
        assert evaluate(again, x) == evaluate(MODEL, x)


def test_save_load_path_and_handle(tmp_path):
    path = tmp_path / "model.json"
    blob = save(MODEL, path)
    assert path.read_bytes() == blob
    assert save(load(path)) == blob
    with open(path, "rb") as fh:
        assert save(load(fh)) == blob
    assert save(load(blob.decode())) == blob


def test_document_structure():
    doc = json.loads(save(MODEL))
    assert doc["format_version"] == FORMAT_VERSION == 2
    assert doc["d"] == 2 and doc["gamma"] == 6
    assert doc["lambda"] == ["1", "80542626049/470184984576"]
    assert doc["b"] == [0, 5, 10, 15, 20]
    assert len(doc["inner_weights"]) == 6
    assert doc["unit"] == str(MODEL.outer.unit) == str(P26.unit(SPEC6, MODEL.meta.get("depth", 30)))
    assert doc["values"] == list(dict.fromkeys(str(Fraction(n, m)) for gn, gd in zip(MODEL.outer.gn, MODEL.outer.gd)
                                               for n, m in zip(gn, gd)))
    assert [br["q"] for br in doc["branches"]] == [0, 1, 2, 3, 4]
    for branch, ys, gn, gd in zip(doc["branches"], MODEL.outer.ys, MODEL.outer.gn, MODEL.outer.gd):
        assert set(branch) == {"q", "y", "g"}
        assert branch["y"] == " ".join(map(str, ys))
        assert [doc["values"][int(j)] for j in branch["g"].split()] == [str(Fraction(n, m)) for n, m in zip(gn, gd)]


def test_load_rejects_malformed_documents():
    blob = save(MODEL)
    with pytest.raises(ModelFormatError):
        load(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError) as exc:  # a lone surrogate, which no encoding spells
        load(blob.decode().replace('"1/2"', '"\ud800"', 1))
    assert exc.value.location == "inner_weights[0]"
    with pytest.raises(ModelFormatError, match="cannot load a model from int"):
        load(SimpleNamespace(read=lambda: 5))
    doc = json.loads(blob)
    doc["format_version"] = 3
    with pytest.raises(ModelFormatError, match="newer"):
        load(json.dumps(doc))
    doc = json.loads(blob)
    doc["branches"][0], doc["branches"][1] = doc["branches"][1], doc["branches"][0]
    with pytest.raises(ModelFormatError, match="branches"):
        load(json.dumps(doc))
    doc = json.loads(blob)
    doc["lambda"][1] = "not-a-number"
    with pytest.raises(ModelFormatError, match="lambda"):
        load(json.dumps(doc))
    doc = json.loads(blob)
    del doc["gamma"]
    with pytest.raises(ModelFormatError, match="gamma"):
        load(json.dumps(doc))
    for q in (0, 2):  # a repeated position, then two swapped
        doc = json.loads(blob)
        ys = doc["branches"][q]["y"].split()
        ys[:2] = ys[1], ys[1 - q // 2]
        doc["branches"][q]["y"] = " ".join(ys)
        with pytest.raises(ModelFormatError, match="strictly increasing") as exc:
            load(json.dumps(doc))
        assert exc.value.location == "branches"


def test_load_names_the_offending_field():
    blob = save(MODEL)
    for key, value, location in [
        ("b", [0, 5, 10, 15, 21], "b"),
        ("d", 1, "d"),
        ("gamma", 5, "gamma"),
    ]:
        doc = json.loads(blob)
        doc[key] = value
        with pytest.raises(ModelFormatError) as exc:
            load(json.dumps(doc))
        assert exc.value.location == location
    for depth in (0, 241, 8000, True, "30"):
        doc = json.loads(blob)
        doc["meta"]["depth"] = depth
        with pytest.raises(ModelFormatError) as exc:
            load(json.dumps(doc))
        assert exc.value.location == "meta.depth"
    with pytest.raises(AssemblyError, match="meta.depth"):
        assemble(SPEC6, P26, MODEL.outer, meta={"depth": 241})


def test_load_names_the_offending_unit_value_or_token():
    """unit, values[k], and the y and g strings of a branch with the index of their first bad token."""
    blob = save(MODEL)

    def token(key, k, text):
        def edit(doc):
            tokens = doc["branches"][1][key].split(" ")
            tokens[k] = text
            doc["branches"][1][key] = " ".join(tokens)
        return edit

    cases = [
        (lambda doc: doc.__setitem__("format_version", 1), "format_version", "refit"),
        (lambda doc: doc.__setitem__("unit", "0"), "unit", "positive integer"),
        (lambda doc: doc.__setitem__("unit", "-6"), "unit", "positive integer"),
        (lambda doc: doc.__setitem__("unit", "1e9"), "unit", "positive integer"),
        (lambda doc: doc.__setitem__("unit", "9" * 4301), "unit", "positive integer"),
        (lambda doc: doc.__setitem__("unit", 6), "unit", "expected str"),
        (lambda doc: doc.pop("unit"), "unit", "missing"),
        (lambda doc: doc.__setitem__("values", "0"), "values", "expected list"),
        (lambda doc: doc["values"].__setitem__(2, "1/0"), "values[2]", "not a rational"),
        (lambda doc: doc["values"].__setitem__(1, None), "values[1]", "expected fraction string"),
        (token("y", 2, "-5"), "branches[1].y", "token 2"),
        (token("y", 0, ""), "branches[1].y", "token 0"),
        (token("y", 1, "1 "), "branches[1].y", "token 2"),
        (token("y", 1, "1" * 4301), "branches[1].y", "token 1"),
        (token("g", 3, "1/2"), "branches[1].g", "token 3"),
        (token("g", 1, "99999"), "branches[1].g", "token 1: index 99999 is past"),
        (token("g", 0, "0 0"), "branches[1].g", "value indices for"),
        (lambda doc: doc["branches"][1].__setitem__("y", 7), "branches[1].y", "expected str"),
        (lambda doc: doc["branches"][1].pop("g"), "branches[1].g", "missing"),
    ]
    for edit, location, words in cases:
        doc = json.loads(blob)
        edit(doc)
        with pytest.raises(ModelFormatError) as exc:
            load(json.dumps(doc))
        assert exc.value.location == location and words in str(exc.value), (location, str(exc.value))


def test_load_reads_any_unit_within_the_plan_limit(monkeypatch):
    """A unit other than the stored depth's loads to the same values when the
    positions are over it; past the plan limit it is refused at `unit`."""
    doc = json.loads(save(MODEL))
    unit = int(doc["unit"])
    for branch in doc["branches"]:
        branch["y"] = " ".join(str(7 * int(y)) for y in branch["y"].split())
    doc["unit"] = f"00{7 * unit}"
    model = load(json.dumps(doc))
    assert model.outer.unit == 7 * unit
    point = (Fraction(1, 3), Fraction(2, 7))
    assert evaluate(model, point) == evaluate(MODEL, point)
    monkeypatch.setattr("ksnet.outer.PLAN_BITS_LIMIT", (7 * unit).bit_length() * MODEL.outer.knot_count - 1)
    with pytest.raises(ModelFormatError, match="plan limit") as exc:
        load(json.dumps(doc))
    assert exc.value.location == "unit"
    assert load(save(MODEL)).outer == MODEL.outer  # the stored depth's unit is always read


def test_load_checks_lambda_against_series_terms():
    """lambda is fixed by d, gamma and meta.series_terms; a model whose weights
    differ from that derivation is refused where they differ."""
    blob = save(MODEL)
    cases = [
        (lambda doc: doc["lambda"].__setitem__(1, "1/7"), "lambda[1]"),
        (lambda doc: doc["lambda_tail"].__setitem__(1, "1/7"), "lambda_tail[1]"),
        (lambda doc: doc["lambda"].append("1"), "lambda"),
        (lambda doc: doc["meta"].__setitem__("series_terms", [0, 3]), "lambda[1]"),
        (lambda doc: doc["meta"].__setitem__("series_terms", [7]), "meta.series_terms"),
        (lambda doc: doc["meta"].__setitem__("series_terms", [1, 4]), "meta.series_terms"),
        (lambda doc: doc["meta"].__setitem__("series_terms", [0, True]), "meta.series_terms"),
        (lambda doc: doc["meta"].pop("series_terms"), "meta.series_terms"),
    ]
    for edit, location in cases:
        doc = json.loads(blob)
        edit(doc)
        with pytest.raises(ModelFormatError) as exc:
            load(json.dumps(doc))
        assert exc.value.location == location
    doc = json.loads(blob)
    doc["lambda"][1] = "0.1712986547877453625234586843051422"  # a decimal spelling of lambda[1] + 1e-34
    with pytest.raises(ModelFormatError, match="lambda"):
        load(json.dumps(doc))
    doc["lambda"][1] = str(Fraction(80542626049 * 2, 470184984576 * 2))
    assert save(load(json.dumps(doc))) == blob


def test_depth_falls_back_to_meta():
    w_default, err_default = evaluate(MODEL, (Fraction(1, 7), Fraction(1, 9)))
    w_meta, err_meta = evaluate(MODEL, (Fraction(1, 7), Fraction(1, 9)), depth=MODEL.meta["depth"])
    assert (w_default, err_default) == (w_meta, err_meta)


def test_describe_topology():
    doc = describe(MODEL)
    assert list(doc) == ["d", "gamma", "layer_widths", "a", "lambda", "lambda_tail", "b", "inner_weights",
                         "knot_counts", "total_knots", "meta"]
    assert doc["layer_widths"] == [2, 10, 5, 1]
    assert doc["knot_counts"] == [len(ys) for ys in MODEL.outer.ys]
    assert doc["total_knots"] == MODEL.outer.knot_count
    assert doc["a"] == "1/30"
    assert doc["meta"] == MODEL.meta and doc["meta"] is not MODEL.meta
    assert "digraph" in dot(2)


def test_describe_topology_d3():
    params = make_params(3, 8)
    spec = default_inner_spec(8)
    pts = [
        (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 8), Fraction(5, 8), Fraction(7, 8)),
    ]
    samples = SampleSet(points=tuple(pts), targets=(Fraction(1), Fraction(2)))
    outer, report = fit_exact(samples, params, spec)
    assert describe(assemble(spec, params, outer))["layer_widths"] == [3, 21, 7, 1]
    assert dot(3).count(" -> w;") == 7
