"""Committed artefacts: every --no-timestamp output of four small fits must stay byte for byte.

tests/golden/ holds the inputs and outputs of a 60-point exact fit, a
level-1 iterative grid fit (both d = 2, base 6, evaluated on queries.csv),
and two 24-point exact fits with their own queries: d = 3 at base 8, and
d = 2 at base 1000, where the inner kernel reads 4-digit chunks.  Each fit
keeps the model, the fit report, exact and fast (--depth 45) eval CSVs, and
the describe JSON.  check.json and
check_depth1.json are two `ksnet check` reports, one where every suite passes
and one at depth 1 with a failed separation trial and its witness.
iterative.sha256.json holds
the SHA-256 of the model and the fit report of five low-depth iterative grid
fits whose rows come shuffled (the level-2, depth-1 one retries at depth 2);
their models run to 1.2 MB, so only the digests are kept.  Regenerate all with

    PYTHONPATH=src python tests/test_golden.py tests/golden

only when an output format changes on purpose.
"""

import contextlib
import hashlib
import itertools
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from ksnet.cli import main
from ksnet.network import _plan, load

GOLDEN = Path(__file__).resolve().parent / "golden"
# tag: (samples, queries, fit flags)
FITS = {
    "exact60": ("exact60.csv", "queries.csv", ["--depth", "30"]),
    "grid1": ("grid1.csv", "queries.csv", ["--depth", "30", "--mode", "iterative", "--grid-level", "1"]),
    "d3_gamma8": ("d3_gamma8.csv", "d3_gamma8.queries.csv", ["--d", "3", "--gamma", "8", "--depth", "30"]),
    "gamma1000": ("gamma1000.csv", "gamma1000.queries.csv", ["--gamma", "1000", "--depth", "30"]),
}
INPUTS = sorted({name for samples, queries, _ in FITS.values() for name in (samples, queries)})


def _run(tag: str) -> list[str]:
    """Write every artefact of one fit into the working directory, which holds
    the inputs (reports record paths, so they are relative); returns the names."""
    samples, queries, flags = FITS[tag]
    model = f"{tag}.model.json"
    runs = {
        f"{tag}.fit.json": ["fit", "--no-timestamp", "--seed", "3", *flags, "--in", samples, "--model", model],
        f"{tag}.exact.csv": ["eval", "--model", model, "--in", queries],
        f"{tag}.fast45.csv": ["eval", "--model", model, "--in", queries, "--numeric", "fast", "--depth", "45"],
        f"{tag}.describe.json": ["describe", "--model", model],
    }
    for out, argv in runs.items():
        assert main([*argv, "--out", out]) == 0, argv
    return [model, *runs]


# exact60's knot values need a common denominator G of 1,131 bits over 300 knots,
# its positions 180 bits at depth 15 and about 360 at depth 60: below this limit
# common_unit refuses G but not the positions, so the plan keeps G = 1
FALLBACK_LIMIT = 1 << 17
FALLBACK = {
    "exact60.g1.exact15.csv": ["--depth", "15"],
    "exact60.g1.fast60.csv": ["--numeric", "fast", "--depth", "60"],
}


def _fallback() -> list[str]:
    """Write the G = 1 eval CSVs of the exact60 model, which the working directory
    holds beside queries.csv; returns the names."""
    with mock.patch("ksnet.outer.PLAN_BITS_LIMIT", FALLBACK_LIMIT):
        for out, flags in FALLBACK.items():
            argv = ["eval", "--model", "exact60.model.json", "--in", "queries.csv", *flags, "--out", out]
            assert main(argv) == 0, argv
    return list(FALLBACK)


CHECKS = {
    "check": ["--samples", "500", "--trials", "5", "--trial-points", "40", "--probe-level", "2"],
    "check_depth1": ["--depth", "1", "--samples", "200", "--trials", "3", "--trial-points", "12",
                     "--probe-level", "1"],
    "check_d3_gamma8": ["--d", "3", "--gamma", "8", "--samples", "500", "--trials", "5", "--trial-points", "40",
                        "--probe-level", "1"],
    "check_gamma1000": ["--gamma", "1000", "--samples", "500", "--trials", "5", "--trial-points", "40",
                        "--probe-level", "1"],
}
# The CLI refuses a probe grid of more than POINT_CAP points, and level 1 at base
# 1000 has 1001**2; the range sweep is closed form (about 30 ms on a 2-vCPU VM), so that
# report is written with the cap lifted in process.
PROBE_CAP = {"check_gamma1000": 1001**2}


def _check(tag: str) -> str:
    """Write one check report into the working directory; returns its name."""
    out = f"{tag}.json"
    argv = ["check", "--no-timestamp", *CHECKS[tag], "--seed", "3", "--out", out]
    with mock.patch("ksnet.cli.POINT_CAP", PROBE_CAP[tag]) if tag in PROBE_CAP else contextlib.nullcontext():
        assert main(argv) == 0, argv
    return out


# (grid level, depth, d, gamma) of the shuffled iterative fits
SHUFFLED = [(1, 1, 2, 6), (2, 1, 2, 6), (1, 2, 2, 6), (1, 1, 3, 8), (2, 3, 2, 7)]
DIGESTS = GOLDEN / "iterative.sha256.json"


def _target(p) -> Fraction:
    return p[0] * p[1] - p[-1] / 3 + (1 if p[0] < Fraction(1, 2) else 0)


def _iterative_digests(level: int, depth: int, d: int, gamma: int) -> dict[str, str]:
    """Fit the level-`level` grid from a shuffled CSV in the working directory;
    the SHA-256 of the model and of the fit report."""
    axis = [Fraction(j, gamma**level) for j in range(gamma**level + 1)]
    points = list(itertools.product(axis, repeat=d))
    random.Random(f"{level}/{depth}/{d}/{gamma}").shuffle(points)
    rows = [[f"x{p + 1}" for p in range(d)] + ["f"]] + [[*map(str, p), str(_target(p))] for p in points]
    Path("grid.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    argv = ["fit", "--no-timestamp", "--mode", "iterative", "--grid-level", str(level), "--depth", str(depth),
            "--d", str(d), "--gamma", str(gamma), "--in", "grid.csv", "--model", "grid.model.json",
            "--out", "grid.fit.json"]
    assert main(argv) == 0, argv
    return {name: hashlib.sha256(Path(f"grid.{name}.json").read_bytes()).hexdigest() for name in ("model", "fit")}


def _tag(case) -> str:
    return "level{}_depth{}_d{}_gamma{}".format(*case)


def _inputs_into(directory: Path) -> None:
    for name in INPUTS:
        shutil.copyfile(GOLDEN / name, directory / name)


def regenerate(target: Path) -> list[str]:
    """Write every golden output into `target`, the working directory, which
    holds the inputs; returns the names written."""
    written = [name for tag in FITS for name in _run(tag)] + _fallback() + [_check(tag) for tag in CHECKS]
    digests = {_tag(case): _iterative_digests(*case) for case in SHUFFLED}
    for name in ("grid.csv", "grid.model.json", "grid.fit.json"):
        Path(name).unlink()
    (target / DIGESTS.name).write_text(json.dumps(digests, indent=2) + "\n")
    return written + [DIGESTS.name]


@pytest.mark.parametrize("tag", sorted(FITS))
def test_outputs_match_goldens(tag, tmp_path, monkeypatch):
    _inputs_into(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name in _run(tag):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_plan_fallback_outputs_match_goldens(tmp_path, monkeypatch):
    """The G = 1 plan gives the committed bytes, and the lowered limit does take it."""
    _inputs_into(tmp_path)
    shutil.copyfile(GOLDEN / "exact60.model.json", tmp_path / "exact60.model.json")
    monkeypatch.chdir(tmp_path)
    for name in _fallback():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    model = load(GOLDEN / "exact60.model.json")
    monkeypatch.setattr("ksnet.outer.PLAN_BITS_LIMIT", FALLBACK_LIMIT)
    assert [_plan(model, depth).value_den for depth in (15, 60)] == [1, 1]
    monkeypatch.undo()
    assert _plan(load(GOLDEN / "exact60.model.json"), 15).value_den > 1


@pytest.mark.parametrize("tag", sorted(CHECKS))
def test_check_reports_match_goldens(tag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = _check(tag)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("case", SHUFFLED, ids=_tag)
def test_shuffled_iterative_fits_match_their_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _iterative_digests(*case) == json.loads(DIGESTS.read_text())[_tag(case)]


def test_every_golden_file_is_an_input_or_a_compared_output(tmp_path, monkeypatch):
    """The tests above copy INPUTS and compare the outputs of _run and _check and
    the digests, which are what regeneration writes: it leaves exactly those
    files beside the inputs, and tests/golden holds nothing else."""
    _inputs_into(tmp_path)
    monkeypatch.chdir(tmp_path)
    written = regenerate(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(INPUTS + written)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(INPUTS + written)


if __name__ == "__main__":
    target = Path(sys.argv[1]).resolve()
    if target != GOLDEN:
        _inputs_into(target)
    os.chdir(target)
    regenerate(target)
