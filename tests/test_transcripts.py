"""tests/transcripts.py writes the same problem files and transcripts on
every run, so two library versions can be diffed over them."""

import transcripts


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_two_runs_over_the_fixtures_write_identical_files(tmp_path):
    counts = [transcripts.write(tmp_path / run, seeded=False) for run in ("a", "b")]
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a == b
    assert counts[0] == counts[1] == sum(p.suffix == ".txt" for p in a) > 59


def test_seeded_problem_files_are_fixed(tmp_path):
    for run in ("a", "b"):
        transcripts.write_problems(tmp_path / run)
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a == b and len(a) == 4 + sum(count for count, _, _ in transcripts.KINDS.values())
