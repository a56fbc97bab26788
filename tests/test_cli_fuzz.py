"""Fuzz of the command line: corrupted sample and point CSVs, mutated model
files and extreme flag values.

Every case must end in an exit code of the contract (0, 2, 3 or 4); nothing
but argparse's SystemExit(2) may escape `main`.  Each case runs in-process
under a SIGALRM budget, so a hang fails the case instead of stalling the
suite; oversized counts must be refused before any work, which keeps every
case small.
"""

import contextlib
import io
import json
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ksnet.cli import main

EXITS = {0, 2, 3, 4}
CASE_SECONDS = 5
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True)

# literals a cell, a model field or a rational flag may hold instead of a number
LITERALS = [
    "", " ", "0", "1", "-1", "1/2", "-0", "+1/3", "0.5", ".5", "5.", "1e-3", "1E+2", "2", "7/0", "0/0", "1/-3",
    "nan", "inf", "-inf", "abc", "1/2/3", "0x10", "1_0", "１", "½", "\x00", "1e999999999", "1e-999999999",
    "9" * 5000, "1/" + "7" * 5000, "1" + "0" * 4299, "1/3 ", "true", "null", '"1"',
    "1 /2", "1/ 2", "1/+2", "5/", "1/2-3", "--1/2",
]
INTS = [0, 1, 2, 3, -1, 240, 241, 10**6, 10**9, 2**63, 10**18, 10**100]
NEST = "@@nested@@"  # stands in for a value nested past the decoder's recursion limit


def _run(argv) -> int:
    """main(argv)'s exit code within CASE_SECONDS; stdout and stderr are swallowed."""

    def out_of_time(signum, frame):
        raise TimeoutError(f"{argv} ran past {CASE_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:  # argparse rejecting the arguments
                assert exc.code == 2, argv
                code = 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in EXITS, (argv, code)
    return code


def _csv(rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A small sample CSV, a level-1 grid CSV, a point CSV and a model fitted to the samples."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(11)
    points = sorted({(Fraction(rng.getrandbits(20), 2**20), Fraction(rng.getrandbits(20), 2**20)) for _ in range(12)})
    axis = [Fraction(j, 6) for j in range(7)]
    texts = {
        "samples": _csv([["x1", "x2", "f"]] + [[x, y, x * y - y / 3] for x, y in points]),
        "grid": _csv([["x1", "x2", "f"]] + [[x, y, x - y] for y in axis for x in axis]),
        "points": _csv([["x1", "x2"]] + [[y, x] for x, y in points[:5]]),
    }
    for name, text in texts.items():
        (root / f"{name}.csv").write_text(text)
    assert _run(["fit", "--no-timestamp", "--in", root / "samples.csv", "--model", root / "model.json"]) == 0
    return root, texts, (root / "model.json").read_text()


@st.composite
def corrupted_csv(draw, text):
    """`text` with a few rows or cells dropped, doubled, respelled, widened or cut short."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["drop", "double", "respell", "widen", "narrow", "swap"]))
        if edit == "drop":
            del rows[i]
        elif edit == "double":
            rows.insert(i, list(rows[i]))
        elif edit == "respell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(LITERALS))
        elif edit == "widen":
            rows[i].append(draw(st.sampled_from(LITERALS)))
        elif edit == "narrow" and rows[i]:
            rows[i].pop()
        elif edit == "swap" and len(rows) > 2:
            j = draw(st.integers(1, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        if not rows:
            break
    out = _csv(rows)
    if draw(st.booleans()):
        out = out[: draw(st.integers(0, len(out)))]
    return out


def _paths(doc, prefix=()):
    """Every (path, value) in a JSON document, containers included."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


# edits inside a branch's y or g string, or of the unit
LEAF_EDITS = ["non-digit", "sign", "empty", "double space", "past", "long", "swap", "count", "unit"]


def _edit_leaf(draw, doc) -> None:
    """One edit of `doc`'s unit, or of one token of a branch's y or g when some branch
    still has both as non-empty strings: a non-digit, a sign, an empty token, a
    doubled space, an index past the table (a position past the branch in y), a
    token over 4,300 digits, two tokens swapped, or a token dropped or repeated."""
    edit = draw(st.sampled_from(LEAF_EDITS))
    if edit == "unit":
        if isinstance(doc.get("unit"), str):
            unit = doc["unit"]
            doc["unit"] = draw(st.sampled_from([f"00{unit}", f"{unit}0", f"-{unit}", f"+{unit}", f" {unit}", "0", "1e9",
                                                "1" + "0" * 4299, "9" * 4301, "7" * 9000]))
        return
    branches = doc.get("branches") if isinstance(doc.get("branches"), list) else []
    spots = [b for b in branches if isinstance(b, dict) and all(isinstance(b.get(k), str) and b[k] for k in "yg")]
    if not spots:
        return
    branch, key = draw(st.sampled_from(spots)), draw(st.sampled_from("yg"))
    tokens = branch[key].split(" ")
    k = draw(st.integers(0, len(tokens) - 1))
    if edit == "non-digit":
        tokens[k] = draw(st.sampled_from(["x", "١", "²", "1.5", "1/2", "0x1", "1_0", "1e3"]))
    elif edit == "sign":
        tokens[k] = draw(st.sampled_from("-+")) + tokens[k]
    elif edit == "empty":
        tokens[k] = ""
    elif edit == "double space":
        tokens[k] += " "
    elif edit == "past":
        count = len(doc["values"]) if isinstance(doc.get("values"), list) else 0
        tokens[k] = str(count + draw(st.integers(0, 10**6))) if key == "g" else tokens[k] + "0" * draw(st.integers(1, 9))
    elif edit == "long":
        tokens[k] = draw(st.sampled_from(["1" + "0" * 4299, "9" * 4301, "3" * 6000]))
    elif edit == "swap":
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j], tokens[k] = tokens[k], tokens[j]
    elif draw(st.booleans()):  # count: y and g no longer pair up
        del tokens[k]
    else:
        tokens.insert(k, tokens[k])
    branch[key] = " ".join(tokens)


@st.composite
def mutated_model(draw, text):
    """A saved model with keys dropped, values retyped, respelled or nested 1,000-5,000
    levels deep, with up to two edits inside the unit or a branch's y and g
    strings (_edit_leaf), or the file cut short.  The nesting is spliced into the
    text, since json.dumps cannot encode that depth."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p, _ in _paths(doc) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(["drop", "retype", "respell", "int", "nest"]))
        if edit == "drop":
            del parent[path[-1]]
        elif edit == "retype":
            parent[path[-1]] = draw(st.sampled_from([None, True, 1.5, [], {}, "x", 0, [1], {"q": 0}]))
        elif edit == "respell":
            parent[path[-1]] = draw(st.sampled_from(LITERALS))
        elif edit == "int":
            parent[path[-1]] = draw(st.sampled_from(INTS))
        else:
            parent[path[-1]] = NEST
    for _ in range(draw(st.integers(0, 2))):
        _edit_leaf(draw, doc)
    out = json.dumps(doc, indent=2)
    if NEST in out:
        levels = draw(st.integers(1000, 5000))
        out = out.replace(json.dumps(NEST), "[" * levels + "]" * levels)
    if draw(st.booleans()):
        out = out[: draw(st.integers(0, len(out)))]
    return out


@FUZZ
@given(data=st.data(), mode=st.sampled_from(["exact", "iterative"]))
def test_corrupted_sample_csvs_keep_the_exit_contract(base, data, mode):
    root, texts, _ = base
    source = "grid" if mode == "iterative" else "samples"
    (root / "fuzzed.csv").write_text(data.draw(corrupted_csv(texts[source])))
    _run(["fit", "--no-timestamp", "--mode", mode, "--depth", data.draw(st.sampled_from([1, 2, 30])),
          "--in", root / "fuzzed.csv", "--model", root / "fuzzed.json", "--out", root / "fuzzed.report.json"])


@FUZZ
@given(data=st.data(), numeric=st.sampled_from(["exact", "fast"]))
def test_corrupted_point_csvs_keep_the_exit_contract(base, data, numeric):
    root, texts, _ = base
    (root / "fuzzed_points.csv").write_text(data.draw(corrupted_csv(texts["points"])))
    _run(["eval", "--model", root / "model.json", "--in", root / "fuzzed_points.csv", "--numeric", numeric,
          "--out", root / "fuzzed_values.csv"])


@st.composite
def mutated_leaves(draw, text):
    """A saved model with one to three _edit_leaf edits and nothing else, so that
    load reaches the unit and the branch strings."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        _edit_leaf(draw, doc)
    return json.dumps(doc, indent=2)


def _eval_and_describe(root, model_text, numeric) -> None:
    (root / "mutated.json").write_text(model_text)
    _run(["eval", "--model", root / "mutated.json", "--in", root / "points.csv", "--numeric", numeric,
          "--out", root / "mutated_values.csv"])
    _run(["describe", "--model", root / "mutated.json", "--out", root / "mutated_describe.json"])


@FUZZ
@given(data=st.data())
def test_mutated_models_keep_the_exit_contract(base, data):
    root, _, model = base
    _eval_and_describe(root, data.draw(mutated_model(model)), data.draw(st.sampled_from(["exact", "fast"])))


@FUZZ
@given(data=st.data())
def test_mutated_model_leaves_keep_the_exit_contract(base, data):
    root, _, model = base
    _eval_and_describe(root, data.draw(mutated_leaves(model)), data.draw(st.sampled_from(["exact", "fast"])))


# Per command: flags that keep the work small, then the flags a case may replace with an extreme value.
SMALL = {
    "fit": ["--no-timestamp", "--mode", "iterative"],
    "check": ["--no-timestamp", "--samples", "20", "--trials", "2", "--trial-points", "4"],
    "bench": ["--no-timestamp", "--sweep-n", "3", "--mode", "iterative"],
}
INT_FLAGS = ["--d", "--gamma", "--depth", "--seed"]
EXTREME = {
    "fit": INT_FLAGS + ["--grid-level", "--max-iter", "--tolerance", "--damping", "--series-tolerance"],
    "check": INT_FLAGS + ["--samples", "--trials", "--trial-points", "--probe-level", "--series-tolerance"],
    "bench": INT_FLAGS + ["--sweep-n", "--grid-level", "--max-iter", "--tolerance", "--damping",
                          "--series-tolerance"],
}


@FUZZ
@given(data=st.data(), command=st.sampled_from(sorted(SMALL)))
def test_extreme_flag_values_keep_the_exit_contract(base, data, command):
    root, _, _ = base
    argv = [command, *SMALL[command]]
    if command == "fit":
        argv += ["--in", root / "grid.csv", "--model", root / "extreme.json", "--out", root / "extreme.report.json"]
    for flag in data.draw(st.lists(st.sampled_from(EXTREME[command]), min_size=1, max_size=2, unique=True)):
        argv += [flag, data.draw(st.sampled_from(INTS + LITERALS))]
    _run(argv)


def test_values_past_the_number_limits_exit_2(base, capsys):
    """Cases the fuzz found: a digit base past GAMMA_CAP (one inner weight per digit
    was allocated), a target past the double range (the iteration history is inf),
    an exact value too long to write, and a fast value past the double range."""
    root, texts, _ = base
    for gamma in (10_001, 2**63, 10**100):
        assert _run(["fit", "--gamma", gamma, "--in", root / "samples.csv", "--model", root / "g.json"]) == 2
    huge = "1" + "0" * 4299  # the longest integer literal parse_rational reads
    rows = texts["grid"].splitlines()
    rows[1] = rows[1].rpartition(",")[0] + "," + huge
    (root / "huge.csv").write_text("\n".join(rows) + "\n")
    fit = ["fit", "--no-timestamp", "--mode", "iterative", "--in", root / "huge.csv", "--model", root / "huge.json",
           "--out", root / "huge.report.json"]
    assert _run(fit) == 0
    assert json.loads((root / "huge.report.json").read_text())["fit"]["convergence_history"][0] == float("inf")
    (root / "between.csv").write_text("x1,x2\n0,0\n1/7,1/9\n")
    for numeric, message in (("exact", "error: a result has too many digits to write"),
                             ("fast", "error: row 1: w or its error bound lies beyond the double range")):
        capsys.readouterr()
        assert main(["eval", "--model", str(root / "huge.json"), "--in", str(root / "between.csv"),
                     "--numeric", numeric]) == 2
        assert capsys.readouterr().err.startswith(message), numeric
    unwritten = root / "unwritten.csv"  # the text is whole before the file is opened
    assert main(["eval", "--model", str(root / "huge.json"), "--in", str(root / "between.csv"),
                 "--out", str(unwritten)]) == 2
    assert not unwritten.exists()
