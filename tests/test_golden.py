"""Golden `--format machine` transcripts of every subcommand on every fixture.

Each file under tests/data/golden/ holds one command line, its stdout, its
stderr (when not empty) and its exit code.  The test re-runs the command from
the repository root and compares the transcript byte for byte, so every
refactor that must keep reports unchanged is checked here.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from ccopkit.cli import load_problem_file, main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path("tests") / "data"
GOLDEN = ROOT / DATA / "golden"


def file_cases(path: Path, rel: str) -> dict[str, list[str]]:
    """Case name -> argv for every subcommand that applies to the problem
    file at `path`, named `rel` on the command line: by point length, and on
    the T-side only with regularization."""
    out: dict[str, list[str]] = {}
    stem = path.stem
    pf = load_problem_file(str(path))
    regularized = pf.c is not None
    for name, vec in pf.points.items():
        if vec.size == pf.problem.n:
            out[f"{stem}.certify-m.{name}"] = ["certify", rel, name, "--side", "m"]
            if regularized:
                out[f"{stem}.lift.{name}"] = ["lift", rel, name]
            out[f"{stem}.check-licq.{name}"] = ["check-licq", rel, name]
        elif regularized:
            out[f"{stem}.certify-t.{name}"] = ["certify", rel, name, "--side", "t"]
            out[f"{stem}.project.{name}"] = ["project", rel, name]
            out[f"{stem}.check-licq.{name}"] = ["check-licq", rel, name]
    for method in ("quadratic", "newton"):
        for side in ("m", "t", "both") if regularized else ("m",):
            out[f"{stem}.census-{side}-{method}"] = [
                "census", rel, "--side", side, "--method", method
            ]
    if regularized:
        out[f"{stem}.verify"] = ["verify", rel]
    return out


def cases() -> dict[str, list[str]]:
    """Golden file name -> argv, over every fixture."""
    out: dict[str, list[str]] = {}
    for fixture in sorted((ROOT / DATA).glob("*.prob")):
        out.update(file_cases(fixture, str(DATA / fixture.name)))
    return out


def transcript(argv: list[str]) -> str:
    """Command line, stdout, stderr and exit code of one in-process run."""
    argv = [*argv, "--format", "machine"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = "$ ccopkit " + " ".join(argv) + "\n" + out.getvalue()
    if err.getvalue():
        text += "[stderr]\n" + err.getvalue()
    return text + f"[exit {code}]\n"


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(CASES[name]) == expected


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv), encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES)} transcripts to {GOLDEN}\n")
