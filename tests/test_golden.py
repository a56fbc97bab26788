"""Committed artefacts: every --no-timestamp output of two small fits must stay byte for byte.

tests/golden/ holds the inputs and outputs of a 60-point exact fit and a
level-1 iterative grid fit: the model, the fit report, exact and fast
(--depth 45) eval CSVs, and the describe JSON.  Regenerate them with

    PYTHONPATH=src python tests/test_golden.py tests/golden

only when an output format changes on purpose.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

from ksnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FITS = {
    "exact60": ("exact60.csv", ["--depth", "30"]),
    "grid1": ("grid1.csv", ["--depth", "30", "--mode", "iterative", "--grid-level", "1"]),
}


def _run(tag: str) -> list[str]:
    """Write every artefact of one fit into the working directory, which holds
    the inputs (reports record paths, so they are relative); returns the names."""
    samples, flags = FITS[tag]
    model = f"{tag}.model.json"
    runs = {
        f"{tag}.fit.json": ["fit", "--no-timestamp", "--seed", "3", *flags, "--in", samples, "--model", model],
        f"{tag}.exact.csv": ["eval", "--model", model, "--in", "queries.csv"],
        f"{tag}.fast45.csv": ["eval", "--model", model, "--in", "queries.csv", "--numeric", "fast", "--depth", "45"],
        f"{tag}.describe.json": ["describe", "--model", model],
    }
    for out, argv in runs.items():
        assert main([*argv, "--out", out]) == 0, argv
    return [model, *runs]


def _inputs_into(directory: Path) -> None:
    for name in [samples for samples, _ in FITS.values()] + ["queries.csv"]:
        shutil.copyfile(GOLDEN / name, directory / name)


@pytest.mark.parametrize("tag", sorted(FITS))
def test_outputs_match_goldens(tag, tmp_path, monkeypatch):
    _inputs_into(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name in _run(tag):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    target = Path(sys.argv[1]).resolve()
    if target != GOLDEN:
        _inputs_into(target)
    os.chdir(target)
    for tag in FITS:
        _run(tag)
