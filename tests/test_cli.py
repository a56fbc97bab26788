"""End-to-end command line behavior: formats, exit codes, determinism."""

import csv
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ksnet
from ksnet import cli
from ksnet.cli import EXIT_INPUT, EXIT_OK, EXIT_SEPARATION, main
from ksnet.errors import InputError
from ksnet.network import evaluate, load
from ksnet.rationals import parse_rational


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _sample_rows(seed=0, n=25, f=lambda p: p[0] * p[1], bits=40):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.getrandbits(bits), 2**bits) for _ in range(2)))
    return [[str(p[0]), str(p[1]), str(f(p))] for p in sorted(pts)]


@pytest.fixture
def workdir(tmp_path):
    _write_csv(tmp_path / "samples.csv", ["x1", "x2", "f"], _sample_rows())
    return tmp_path


def _fit(workdir, *extra):
    model = workdir / "model.json"
    rc = main(
        [
            "fit", "--d", "2", "--gamma", "6", "--depth", "30",
            "--in", str(workdir / "samples.csv"), "--model", str(model),
            "--no-timestamp", "--out", str(workdir / "fit.json"), *extra,
        ]
    )
    return rc, model


def test_fit_writes_model_and_report(workdir):
    rc, model_path = _fit(workdir)
    assert rc == EXIT_OK
    report = json.loads((workdir / "fit.json").read_text())
    assert report["command"] == "fit"
    assert report["fit"]["residual_max"] == {"exact": "0", "approx": 0.0}
    assert report["fit"]["separation"]["separated"] is True
    assert "timing_ms" not in report
    model = load(model_path)
    assert model.meta["fit_mode"] == "exact"
    assert model.meta["depth"] == 30
    assert "created" not in model.meta
    for row in _sample_rows():
        point = (parse_rational(row[0]), parse_rational(row[1]))
        w, _ = evaluate(model, point)
        assert w == parse_rational(row[2])


def test_fit_determinism_and_timestamp(workdir):
    rc1, model_path = _fit(workdir)
    first_model = model_path.read_bytes()
    first_report = (workdir / "fit.json").read_bytes()
    rc2, _ = _fit(workdir)
    assert rc1 == rc2 == EXIT_OK
    assert model_path.read_bytes() == first_model
    assert (workdir / "fit.json").read_bytes() == first_report

    rc = main(
        [
            "fit", "--in", str(workdir / "samples.csv"),
            "--model", str(workdir / "stamped.json"), "--out", str(workdir / "stamped_rep.json"),
        ]
    )
    assert rc == EXIT_OK
    assert "created" in json.loads((workdir / "stamped.json").read_text())["meta"]
    assert "timing_ms" in json.loads((workdir / "stamped_rep.json").read_text())


def test_fit_rejects_duplicate_rows(tmp_path, capsys):
    _write_csv(
        tmp_path / "dup.csv",
        ["x1", "x2", "f"],
        [["1/2", "1/2", "1/4"], ["0.5", "0.5", "1/4"]],
    )
    rc = main(["fit", "--in", str(tmp_path / "dup.csv"), "--model", str(tmp_path / "m.json")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert "rows 1 and 2" in err


def test_fit_rejects_bad_gamma(workdir, capsys):
    rc = main(
        ["fit", "--gamma", "5", "--in", str(workdir / "samples.csv"), "--model", str(workdir / "m.json")]
    )
    assert rc == EXIT_INPUT
    assert "2d+2 = 6" in capsys.readouterr().err


def test_fit_separation_failure_prints_witness(tmp_path, capsys):
    eps = Fraction(1, 6**241)
    rows = [
        ["1/3", "1/3", "0"],
        [str(Fraction(1, 3) + eps), str(Fraction(1, 3) + eps), "1"],
    ]
    _write_csv(tmp_path / "twins.csv", ["x1", "x2", "f"], rows)
    rc = main(["fit", "--in", str(tmp_path / "twins.csv"), "--model", str(tmp_path / "m.json")])
    assert rc == EXIT_SEPARATION
    err = capsys.readouterr().err
    assert "separation failure" in err
    assert "[1, -1]" in err


def test_eval_round_trip(workdir, capsys):
    _, model_path = _fit(workdir)
    rows = _sample_rows()[:6]
    _write_csv(workdir / "points.csv", ["x1", "x2"], [r[:2] for r in rows])
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv")])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "w,error_bound"
    assert len(lines) == 7
    for line, row in zip(lines[1:], rows):
        w, err = line.split(",")
        assert parse_rational(w) == parse_rational(row[2])
        assert parse_rational(err) >= 0


def test_eval_fast_mode(workdir):
    _, model_path = _fit(workdir)
    rows = _sample_rows()[:6]
    _write_csv(workdir / "points.csv", ["x1", "x2"], [r[:2] for r in rows])
    out = workdir / "fast.csv"
    rc = main(
        ["eval", "--model", str(model_path), "--in", str(workdir / "points.csv"),
         "--numeric", "fast", "--out", str(out)]
    )
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["w", "error_bound"]
    for row, src in zip(got[1:], rows):
        assert abs(float(row[0]) - float(parse_rational(src[2]))) < 1e-9


@pytest.mark.parametrize("numeric", ["exact", "fast"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_eval_writes_the_bytes_of_csv_writer(workdir, capsys, numeric, to_file):
    """The CSV contract: eval writes what csv.writer's default dialect writes for
    the evaluate_batch results (str cells when exact, repr when fast), and
    csv.reader reads the same cells back."""
    _, model_path = _fit(workdir)
    rng = random.Random(11)
    fresh = [[str(Fraction(rng.getrandbits(20), 2**20)) for _ in range(2)] for _ in range(8)]
    rows = [r[:2] for r in _sample_rows()[:4]] + fresh + [["0", "1"], ["1", "1/3"]]
    _write_csv(workdir / "points.csv", ["x1", "x2"], rows)
    text = str if numeric == "exact" else repr
    points = [tuple(map(parse_rational, row)) for row in rows]
    cells = [["w", "error_bound"]] + [[text(w), text(err)] for w, err in
                                      ksnet.evaluate_batch(load(model_path), points, numeric=numeric)]
    want = io.StringIO()
    csv.writer(want).writerows(cells)
    out = workdir / "values.csv"
    argv = ["eval", "--model", str(model_path), "--in", str(workdir / "points.csv"), "--numeric", numeric]
    assert main(argv + (["--out", str(out)] if to_file else [])) == EXIT_OK
    got = out.read_bytes() if to_file else capsys.readouterr().out.encode()
    assert got == want.getvalue().encode()
    assert list(csv.reader(io.StringIO(got.decode(), newline=""))) == cells


def test_eval_empty_points_gives_header_only(workdir, capsys):
    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [])
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv")])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "w,error_bound\r\n"


def test_eval_cites_offending_row(workdir, capsys):
    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/2"], ["1.5", "0"]])
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv")])
    assert rc == EXIT_INPUT
    assert "row 2" in capsys.readouterr().err
    for numeric in ("exact", "fast"):
        rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv"), "--numeric", numeric])
        assert rc == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: row 2: coordinate 1 must lie in [0, 1], got 3/2\n")


def test_eval_rejects_wrong_column_count(workdir, capsys):
    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2", "x3"], [])
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv")])
    assert rc == EXIT_INPUT
    assert "2" in capsys.readouterr().err


@pytest.mark.parametrize("rows, error", [
    ([["1/2", "1/3", "1/6"], ["-0/4", "007/010", "1"]], None),
    ([["1/2", "1/3", "1/6"], ["0.25", "1e-1", " +1/40"]], None),
    ([["1/2", "1/3", "1/6"], ["1/4", "5/", "1"]], "row 2, column 2: not a rational literal: '5/'"),
    ([["1/2", "1/-3", "1/6"], ["1/4", "1/5"]], "row 1, column 2: not a rational literal: '1/-3'"),
    ([["1/2", "1/3"], ["1/4", "x", "1"]], "row 1: expected 3 cells, got 2"),
])
def test_csv_tables_read_as_one_cell_at_a_time(tmp_path, rows, error):
    """Rows read through the row guard give each cell's own value, and a bad
    table the error of its first bad row or cell."""
    _write_csv(tmp_path / "t.csv", ["x1", "x2", "f"], rows)
    if error is None:
        assert cli._read_table(str(tmp_path / "t.csv"), 3, "") == [tuple(map(parse_rational, row)) for row in rows]
    else:
        with pytest.raises(InputError) as exc:
            cli._read_table(str(tmp_path / "t.csv"), 3, "")
        assert str(exc.value) == error


def test_csv_cells_are_read_once_per_distinct_text(tmp_path, capsys):
    """A repeated cell text becomes one Fraction.  1/2 and 2/4 are two texts of
    one value: in one column they group as one coordinate, and a row that
    repeats a point in other spellings is still refused as a duplicate."""
    _write_csv(tmp_path / "s.csv", ["x1", "x2", "f"], [["1/2", "1/3", "1"], ["2/4", "2/3", "2"], ["1/2", "0", "1"]])
    table = cli._read_table(str(tmp_path / "s.csv"), 3, "")
    want = (["1/2", "1/3", "1"], ["1/2", "2/3", "2"], ["1/2", "0", "1"])
    assert table == [tuple(map(parse_rational, row)) for row in want]
    assert table[0][0] is table[2][0] and table[0][2] is table[2][2]
    samples = cli._read_samples(str(tmp_path / "s.csv"), 2)
    assert samples.groups.values[0] == [(1, 2)] and samples.groups.ids[0] == [0, 0, 0]
    _write_csv(tmp_path / "dup.csv", ["x1", "x2", "f"], [["1/2", "1/3", "1"], ["0", "1", "2"], ["2/4", "2/6", "3"]])
    rc = main(["fit", "--in", str(tmp_path / "dup.csv"), "--model", str(tmp_path / "m.json")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: duplicate point: rows 1 and 3 coincide\n"


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_unreadable_csv_files_are_input_errors(workdir, capsys, command):
    """A cell past the csv module's field limit, and a file that is not UTF-8 text, exit 2
    with one line that names the file: no traceback, and no word of result digits."""
    _, model_path = _fit(workdir)
    model = str(workdir / "m.json") if command == "fit" else str(model_path)
    (workdir / "long.csv").write_text("x1,x2,f\n1/2,1/3," + "1" * 200_000 + "\n")
    (workdir / "latin1.csv").write_bytes(b"x1,x2,f\n1/2,1/3,\xff\n")
    for name, words in (("long.csv", ": field larger than field limit (131072)\n"),
                        ("latin1.csv", ": not UTF-8 text (invalid start byte)\n")):
        path = str(workdir / name)
        capsys.readouterr()
        assert main([command, "--in", path, "--model", model]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {path}{words}")


def test_iterative_fit_requires_full_grid(tmp_path, capsys):
    axis = [Fraction(j, 6) for j in range(7)]
    rows = [
        [str(x1), str(x2), str(x1 + x2)]
        for x1, x2 in itertools.product(axis, repeat=2)
    ]
    _write_csv(tmp_path / "grid.csv", ["x1", "x2", "f"], rows)
    model = tmp_path / "it.json"
    rc = main(
        ["fit", "--mode", "iterative", "--grid-level", "1",
         "--in", str(tmp_path / "grid.csv"), "--model", str(model),
         "--no-timestamp", "--out", str(tmp_path / "rep.json")]
    )
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["fit"]["mode"] == "iterative"
    assert report["fit"]["residual_max"]["exact"] == "0"
    history = report["fit"]["convergence_history"]
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert load(model).meta["grid_level"] == 1

    _write_csv(tmp_path / "partial.csv", ["x1", "x2", "f"], rows[:-1])
    rc = main(
        ["fit", "--mode", "iterative", "--in", str(tmp_path / "partial.csv"),
         "--model", str(model)]
    )
    assert rc == EXIT_INPUT
    assert "missing" in capsys.readouterr().err


def test_iterative_fit_names_the_first_row_off_the_grid(tmp_path, capsys):
    """Rows 3 (axis 2) and 5 (axis 1) leave the level-1 grid, and row 10 repeats
    row 3's off-grid value; the error names row 3."""
    axis = [Fraction(j, 6) for j in range(7)]
    points = [list(p) for p in itertools.product(axis, repeat=2)]
    points[2][1], points[4][0], points[9][1] = Fraction(1, 7), Fraction(2, 7), Fraction(1, 7)
    _write_csv(tmp_path / "grid.csv", ["x1", "x2", "f"], [[str(x1), str(x2), str(x1 * x2)] for x1, x2 in points])
    rc = main(["fit", "--mode", "iterative", "--grid-level", "1", "--in", str(tmp_path / "grid.csv"),
               "--model", str(tmp_path / "it.json")])
    assert rc == EXIT_INPUT
    assert "row 3: (0, 1/7) is not a level-1 grid point" in capsys.readouterr().err
    assert not (tmp_path / "it.json").exists()


def test_check_report_schema(tmp_path):
    out = tmp_path / "check.json"
    rc = main(
        ["check", "--trials", "3", "--trial-points", "10", "--samples", "200",
         "--out", str(out), "--no-timestamp"]
    )
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["inner"]["checks"]] == ["monotone", "holder", "shift", "range"]
    assert report["ranges"]["passed"] is True
    trials = report["separation_trials"]
    assert trials == {
        "passed": True, "trials": 3, "points_per_trial": 10, "depth": 30,
        "failures": 0, "failed_trials": [],
    }


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--sweep-n", "10,20", "--target", "sum", "--mode", "iterative",
         "--out", str(out), "--no-timestamp"]
    )
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    want = io.StringIO()
    csv.writer(want).writerows(rows)
    assert out.read_bytes() == want.getvalue().encode()
    assert rows[0] == [
        "n", "d", "gamma", "depth", "mode", "target", "fit_ms", "knot_count",
        "iterations", "convergence_factor", "separation_retries", "final_depth",
        "residual_max",
    ]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["10", "20", "49"]
    assert rows[1][9] == "" and float(rows[3][9]) > 0
    # knot counts never decrease along the sweep
    counts = [int(r[7]) for r in rows[1:3]]
    assert counts == sorted(counts)


def test_csv_text_writes_what_csv_writer_writes():
    """Rows of the kinds bench writes: ints, names, %.3f and %.6f texts, an empty
    convergence_factor cell and exact fractions; and the eval header."""
    rows = [
        ["n", "d", "gamma", "depth", "mode", "target", "fit_ms", "knot_count", "iterations",
         "convergence_factor", "separation_retries", "final_depth", "residual_max"],
        [10, 2, 6, 30, "exact", "sum", "12.345", 50, 0, "", 0, 30, str(Fraction(0))],
        [49, 3, 8, 60, "iterative", "reciprocal", "1234.500", 343, 17, "0.500000", 1, 61, str(Fraction(-7, 3000))],
        ["w", "error_bound"],
    ]
    want = io.StringIO()
    csv.writer(want).writerows(rows)
    assert cli._csv_text(rows) == want.getvalue()
    assert cli._csv_text([]) == ""


def test_describe_output(workdir, capsys):
    _, model_path = _fit(workdir)
    rc = main(["describe", "--model", str(model_path)])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["layer_widths"] == [2, 10, 5, 1]
    assert doc["gamma"] == 6
    rc = main(["describe", "--model", str(model_path), "--dot"])
    assert rc == EXIT_OK
    assert "digraph" in capsys.readouterr().out


def test_describe_missing_model(tmp_path, capsys):
    rc = main(["describe", "--model", str(tmp_path / "none.json")])
    assert rc == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_model_file_corruption_is_input_error(workdir, capsys):
    _, model_path = _fit(workdir)
    blob = model_path.read_bytes()
    model_path.write_bytes(blob[: len(blob) // 2])
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/2"]])
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv")])
    assert rc == EXIT_INPUT


def test_eval_rejects_depth_beyond_cap(workdir, capsys):
    """Exact eval at depth 5000 used to die formatting a 4300+ digit integer."""
    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/3", "1/7"]])
    for numeric in ("exact", "fast"):
        rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv"),
                   "--depth", "5000", "--numeric", numeric])
        assert rc == EXIT_INPUT
        assert "--depth: depth must be an integer in 1..240, got 5000" in capsys.readouterr().err
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv"), "--depth", "240"])
    assert rc == EXIT_OK


def _cli_subprocess(args, cwd, timeout=30):
    """Run `python -m ksnet.cli` in a child, so a hang fails the test instead of stalling it."""
    env = dict(os.environ, PYTHONPATH=str(Path(ksnet.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "ksnet.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_a_large_shared_knot_certificate_finishes_in_time(workdir):
    """400 random 7-bit points at depth 1 form one dependent component of 400
    rows (rank 224); the retry to depth 2 separates them into components of up
    to 8 rows.  Both eliminations and the solve finish well within the timeout."""
    _write_csv(workdir / "coarse.csv", ["x1", "x2", "f"], _sample_rows(n=400, bits=7))
    done = _cli_subprocess(["fit", "--depth", "1", "--no-timestamp", "--in", "coarse.csv",
                            "--model", "coarse.json", "--out", "coarse.fit.json"], workdir, timeout=10)
    assert done.returncode == EXIT_OK, done.stderr
    fit = json.loads((workdir / "coarse.fit.json").read_text())["fit"]
    assert (fit["separation"]["retries"], fit["depth"], fit["residual_max"]["exact"]) == (1, 2, "0")


def test_knots_without_a_common_denominator_evaluate_or_fail_in_time(workdir):
    """20,000 knots in one branch whose values have unrelated 100-bit
    denominators: they fall back to per-knot denominators after a bounded part
    of their lcm, which in whole would cost time quadratic in the knot count.
    The same knots over a unit of 9,510 bits, not the stored depth's, would
    pass the plan limit, and are refused."""
    _, model_path = _fit(workdir)
    rng = random.Random(5)
    dens = sorted({rng.getrandbits(100) | 1 for _ in range(20_000)}, reverse=True)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/3"]])
    doc = json.loads(model_path.read_text())
    unit, first = int(doc["unit"]), len(doc["values"])
    assert unit % 2**16 == 0
    doc["values"] += [f"1/{m}" for m in dens]
    doc["branches"][0] = {"q": 0, "y": " ".join(str(j * unit >> 16) for j in range(1, len(dens) + 1)),
                          "g": " ".join(str(first + k) for k in range(len(dens)))}
    (workdir / "values.json").write_text(json.dumps(doc))
    done = _cli_subprocess(["eval", "--model", "values.json", "--in", "points.csv"], workdir, timeout=10)
    assert done.returncode == EXIT_OK, done.stderr
    w, err = evaluate(load(workdir / "values.json"), (Fraction(1, 2), Fraction(1, 3)))
    assert f"{w},{err}" in done.stdout
    doc["unit"] = str(3**6000)
    doc["branches"] = [{"q": q, "y": "", "g": ""} for q in range(5)]
    doc["branches"][0] = {"q": 0, "y": " ".join(map(str, range(1, len(dens) + 1))), "g": " ".join("0" * len(dens))}
    (workdir / "positions.json").write_text(json.dumps(doc))
    done = _cli_subprocess(["eval", "--model", "positions.json", "--in", "points.csv"], workdir, timeout=10)
    assert done.returncode == EXIT_INPUT and "unit:" in done.stderr and "plan limit" in done.stderr, done.stderr
    assert "Traceback" not in done.stderr


def test_giant_literals_are_input_errors(workdir):
    """'1e999999999' would make Fraction build a billion-digit integer."""
    _, model_path = _fit(workdir)
    _write_csv(workdir / "huge.csv", ["x1", "x2", "f"], [["1/2", "1/3", "1e999999999"]])
    done = _cli_subprocess(["fit", "--in", "huge.csv", "--model", "huge.json"], workdir)
    assert done.returncode == EXIT_INPUT
    assert "row 1, column 3" in done.stderr and "Traceback" not in done.stderr

    doc = json.loads(model_path.read_text())
    doc["values"][1] = "1e999999999"
    (workdir / "bad_model.json").write_text(json.dumps(doc))
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/2"]])
    done = _cli_subprocess(["eval", "--model", "bad_model.json", "--in", "points.csv"], workdir)
    assert done.returncode == EXIT_INPUT
    assert "values[1]" in done.stderr and "Traceback" not in done.stderr


def test_a_format_1_model_is_refused_at_its_version(workdir):
    """A model written with one object per knot (format 1) exits 2 naming
    format_version, and says to refit."""
    _, model_path = _fit(workdir)
    doc = json.loads(model_path.read_text())
    unit, values = int(doc.pop("unit")), doc.pop("values")
    doc["format_version"] = 1
    doc["branches"] = [{"q": branch["q"], "knots": [{"y": str(Fraction(int(y), unit)), "g": values[int(j)]}
                                                    for y, j in zip(branch["y"].split(), branch["g"].split())]}
                       for branch in doc["branches"]]
    (workdir / "v1.json").write_text(json.dumps(doc, indent=2))
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/2"]])
    done = _cli_subprocess(["eval", "--model", "v1.json", "--in", "points.csv"], workdir)
    assert done.returncode == EXIT_INPUT
    assert "format_version" in done.stderr and "refit" in done.stderr and "Traceback" not in done.stderr


def test_eval_fast_builds_only_the_requested_plan(workdir, monkeypatch):
    from ksnet import network

    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/3"]])
    built = []
    original = network._Plan.__init__

    def spy(self, model, depth):
        built.append(depth)
        original(self, model, depth)

    monkeypatch.setattr(network._Plan, "__init__", spy)
    rc = main(["eval", "--model", str(model_path), "--in", str(workdir / "points.csv"),
               "--numeric", "fast", "--depth", "45", "--out", str(workdir / "out.csv")])
    assert rc == EXIT_OK
    assert built == [45]


def test_iterative_fit_refuses_grid_larger_than_input(workdir):
    """The level-10**9 grid would have (6**(10**9) + 1)**2 points; four rows cannot cover it."""
    _write_csv(workdir / "four.csv", ["x1", "x2", "f"],
               [["0", "0", "0"], ["0", "1", "0"], ["1", "0", "0"], ["1", "1", "1"]])
    done = _cli_subprocess(
        ["fit", "--mode", "iterative", "--grid-level", "1000000000",
         "--in", "four.csv", "--model", "grid.json"], workdir)
    assert done.returncode == EXIT_INPUT
    assert "4 rows" in done.stderr and "Traceback" not in done.stderr


def test_eval_refuses_a_stored_depth_beyond_the_cap(workdir):
    """--depth is capped at 240; a model file's meta.depth must be too."""
    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/3"]])
    for depth in (0, 241, 8000, True, "30"):
        doc = json.loads(model_path.read_text())
        doc["meta"]["depth"] = depth
        (workdir / "deep.json").write_text(json.dumps(doc))
        done = _cli_subprocess(["eval", "--model", "deep.json", "--in", "points.csv"], workdir)
        assert done.returncode == EXIT_INPUT, (depth, done.stderr)
        assert "meta.depth" in done.stderr and "Traceback" not in done.stderr


def test_deeply_nested_model_is_a_format_error(workdir):
    """The JSON decoder gives up past the recursion limit; load reports that as a
    model format problem, before any field is read."""
    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/3"]])
    text = model_path.read_text()
    (workdir / "nested.json").write_text(text.replace('"meta": {', '"meta": {"x": ' + "[" * 1100 + "]" * 1100 + ",", 1))
    for args in (["describe", "--model", "nested.json"], ["eval", "--model", "nested.json", "--in", "points.csv"]):
        done = _cli_subprocess(args, workdir, timeout=5)
        assert done.returncode == EXIT_INPUT, done.stderr
        assert "malformed JSON" in done.stderr and "Traceback" not in done.stderr


def _grid_csv(path, level=1):
    axis = [Fraction(j, 6**level) for j in range(6**level + 1)]
    _write_csv(path, ["x1", "x2", "f"], [[str(a), str(b), str(a * b)] for a in axis for b in axis])


@pytest.mark.parametrize("extra", [["--damping", "1e-3", "--max-iter", "1000000"], ["--damping", "1e-4000"]])
def test_iterative_fit_refuses_work_past_the_cap(tmp_path, extra):
    """Each round adds the bits of the damping's denominator to every exact
    residual; a run whose digits would outgrow the work cap exits 2 early."""
    _grid_csv(tmp_path / "grid.csv")
    done = _cli_subprocess(["fit", "--mode", "iterative", "--grid-level", "1", "--in", "grid.csv",
                            "--model", "it.json", *extra], tmp_path, timeout=5)
    assert done.returncode == EXIT_INPUT, done.stderr
    assert "damping" in done.stderr and "max_iter" in done.stderr and "Traceback" not in done.stderr


def test_eval_refuses_hostile_series_terms(workdir):
    """A term count is capped before lambda is derived from it: term r of lam_p
    needs gamma**((p-1)(d**r-1)/(d-1)), so an uncapped count would hang."""
    from ksnet.hashmaps import SERIES_TERMS_CAP

    _, model_path = _fit(workdir)
    _write_csv(workdir / "points.csv", ["x1", "x2"], [["1/2", "1/3"]])
    counts = [[0, 10**18], [0, 2**40], [0, 40], [0, SERIES_TERMS_CAP + 1], [0, -1], [5, 4], [0, "4"]]
    for series in counts:
        doc = json.loads(model_path.read_text())
        doc["meta"]["series_terms"] = series
        (workdir / "hostile.json").write_text(json.dumps(doc))
        done = _cli_subprocess(["eval", "--model", "hostile.json", "--in", "points.csv"], workdir)
        assert done.returncode == EXIT_INPUT, (series, done.stderr)
        assert "meta.series_terms" in done.stderr and "Traceback" not in done.stderr
    # within the cap, but for d = 3 the tail bound after 11 terms would have over 200,000 digits
    params, inner = ksnet.make_params(3, 8), ksnet.default_inner_spec(8)
    samples = ksnet.SampleSet(points=((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),), targets=(Fraction(1),))
    outer, _ = ksnet.fit_exact(samples, params, inner)
    doc = json.loads(ksnet.save(ksnet.assemble(inner, params, outer)))
    doc["meta"]["series_terms"] = [0, SERIES_TERMS_CAP, SERIES_TERMS_CAP]
    (workdir / "hostile3.json").write_text(json.dumps(doc))
    _write_csv(workdir / "points3.csv", ["x1", "x2", "x3"], [["1/2", "1/3", "0"]])
    done = _cli_subprocess(["eval", "--model", "hostile3.json", "--in", "points3.csv"], workdir)
    assert done.returncode == EXIT_INPUT and "meta.series_terms" in done.stderr, done.stderr
    # a consistent document for d = 2000: its 4001 branches are all present
    d, gamma = 2000, 4002
    doc = {
        "format_version": 2, "d": d, "gamma": gamma,
        "inner_weights": [str(w) for w in ksnet.default_inner_spec(gamma).weights],
        "lambda": ["1"] * d, "lambda_tail": ["0"] * d, "b": [(2 * d + 1) * q for q in range(2 * d + 1)],
        "unit": "1", "values": [], "branches": [{"q": q, "y": "", "g": ""} for q in range(2 * d + 1)],
        "meta": {"series_terms": [0] + [1] * (d - 1)},
    }
    (workdir / "wide.json").write_text(json.dumps(doc))
    done = _cli_subprocess(["describe", "--model", "wide.json"], workdir)
    assert done.returncode == EXIT_INPUT and "meta.series_terms" in done.stderr, done.stderr
    # the same bound makes parameters for d = 1000 fail at once instead of computing gamma**1000000
    done = _cli_subprocess(["check", "--d", "1000", "--gamma", "2002", "--trials", "1"], workdir)
    assert done.returncode == EXIT_INPUT and "tail bound" in done.stderr, done.stderr


@pytest.mark.parametrize("args", [
    ["bench", "--mode", "iterative", "--grid-level", "9", "--sweep-n", "2"],
    ["bench", "--mode", "iterative", "--grid-level", "1000000000"],
    ["check", "--probe-level", "4"],
    ["check", "--probe-level", "1000000000"],
])
def test_oversized_grids_are_refused_before_they_are_built(tmp_path, args):
    done = _cli_subprocess(args, tmp_path)
    assert done.returncode == EXIT_INPUT
    assert "more than 50000 points" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("args, message", [
    (["check", "--trials", "10001"], "--trials must lie in 1..10000"),
    (["check", "--samples", "100001"], "--samples must lie in 2..100000"),
    (["check", "--trial-points", "50001"], "--trial-points must lie in 2..50000"),
    (["check", "--trial-points", str(10**18)], "--trial-points must lie in 2..50000"),
    (["bench", "--sweep-n", "50,50001"], "--sweep-n entries must lie in 1..50000"),
    (["check", "--trials", "10000", "--trial-points", "50000"], "--trials times --trial-points must be at most 50000"),
])
def test_oversized_counts_are_refused_before_any_work(tmp_path, args, message):
    """Each count is a loop or an allocation of that size; past its cap the command
    exits 2 at once (a hang or a memory blow-up would hit the child's timeout)."""
    done = _cli_subprocess(args, tmp_path, timeout=20)
    assert done.returncode == EXIT_INPUT
    assert message in done.stderr and "Traceback" not in done.stderr
    assert not done.stdout
