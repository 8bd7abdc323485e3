"""Write `--format machine` transcripts of every applicable subcommand over
the fixtures and a fixed set of seeded problem files, for diffing two
versions of the library report by report.

    PYTHONPATH=src python tests/transcripts.py OUTDIR

OUTDIR gets problems/*.prob (copies of the fixtures and the seeded files)
and one <file>.<case>.txt per command, in the format of the golden
transcripts (see test_golden.py).  Commands run from OUTDIR and name their
file as problems/<name>.prob, so two runs into different directories are
comparable with `diff -r`.  The library comes from PYTHONPATH and the
script, seeds and cases from this checkout, so every library version sees
the same files (see README.md, "Comparing two versions").

Per file: certify, check-licq and (with regularization) lift at each named
x, certify, check-licq and project at each named (x, y); census on sides
m, t and both (m only without regularization) by both methods, and by the
Newton method on a 2-point grid; verify on the default and on a 2-point
grid.  Named points are derived from the file's sources alone (the origin,
its companions' y, seeded sparse and lifted points), not from the library.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np

from helpers import affine_source, random_c, random_quadratic_source, random_sparse_point
from test_golden import DATA, ROOT, file_cases, transcript

SEED = 20240607
# kind -> (number of files, smallest n, largest n)
KINDS = {
    "quadratic": (10, 2, 6),
    "inequality": (6, 3, 5),
    "smooth": (6, 2, 4),
    "override": (4, 2, 4),
    "plain": (3, 2, 5),  # no [regularization] section
    "uncertifiable": (3, 2, 4),
    "batch": (2, 8, 8),  # quadratic, s in 3..4: its T census spans several certification batches
}


def _vec(v) -> str:
    return "[" + ", ".join(repr(float(a)) for a in v) + "]"


def _smooth_source(rng, n) -> str:
    """A quadratic plus one small transcendental term per coordinate."""
    terms = [random_quadratic_source(rng, n)]
    for i in range(1, n + 1):
        a = float(rng.uniform(0.1, 0.3))
        kind = int(rng.integers(0, 4))
        terms.append((f"({a!r})*sin(x{i})", f"({a!r})*cos(x{i})",
                      f"({a!r})*exp(0.3*x{i})", f"({a!r})*log(1+x{i}^2)")[kind])
    return " + ".join(terms)


def _companion_ys(c, n, s, eps):
    """The y of every companion of the origin, the largest c at the mid
    component (as regmpoc.companion_y builds them); at most three."""
    ibar = int(np.argmax(c))
    rest = [i for i in range(n) if i != ibar]
    ys = []
    for k in range(min(3, len(rest) - (n - s - 1) + 1)):
        y = np.zeros(n)
        y[ibar] = 1.0 - (n - s - 1) * eps
        y[rest[k : k + n - s - 1]] = 1.0 + eps
        ys.append(y)
    return ys


def seeded_file(kind: str, index: int, rng) -> str:
    """Text of one seeded problem file of `kind`."""
    n_lo, n_hi = KINDS[kind][1:]
    n = int(rng.integers(n_lo, n_hi + 1))
    s = int(rng.integers(3, 5)) if kind == "batch" else int(rng.integers(0, n))
    f = _smooth_source(rng, n) if kind == "smooth" else random_quadratic_source(rng, n)
    g = ""
    if kind == "inequality":
        g = f'"{affine_source(rng.uniform(-1.0, 1.0, size=n), float(rng.uniform(0.2, 1.0)))}"'
    text = f"# {kind} {index}, seed {SEED}\n[problem]\nn = {n}\ns = {s}\n"
    text += f'f = "{f}"\nh = []\ng = [{g}]\n'
    c, eps = random_c(rng, n), float(rng.uniform(0.3, 1.0)) / (n - s)
    if kind == "override":
        c, eps = np.zeros(n), 0.0
    elif kind == "uncertifiable":
        c[1] = c[0]  # not pairwise distinct
    if kind != "plain":
        override = "true" if kind == "override" else "false"
        text += f"\n[regularization]\nc = {_vec(c)}\neps = {eps!r}\noverride = {override}\n"
    points = {"origin": np.zeros(n), "sparse": random_sparse_point(rng, n, s)}
    points["dense"] = rng.uniform(-1.0, 1.0, size=n)
    for k, y in enumerate(_companion_ys(c, n, s, eps)):
        points[f"lifted_origin{k}"] = np.concatenate([np.zeros(n), y])
    y = np.where(points["sparse"] == 0.0, rng.uniform(0.0, 1.0 + eps, size=n), 0.0)
    points["lifted_sparse"] = np.concatenate([points["sparse"], y])
    text += "\n[points]\n" + "".join(f"{name} = {_vec(v)}\n" for name, v in points.items())
    return text


def write_problems(problems: Path, seeded: bool = True) -> list[Path]:
    """Copy the fixtures into `problems` and, if `seeded`, write the seeded
    files beside them; returns their paths in a fixed order."""
    problems.mkdir(parents=True, exist_ok=True)
    paths = []
    for fixture in sorted((ROOT / DATA).glob("*.prob")):
        paths.append(Path(shutil.copy(fixture, problems / fixture.name)))
    if seeded:
        for k, (kind, (count, _, _)) in enumerate(KINDS.items()):
            rng = np.random.default_rng(SEED + k)
            for i in range(count):
                path = problems / f"{kind}{i}.prob"
                path.write_text(seeded_file(kind, i, rng), encoding="utf-8")
                paths.append(path)
    return paths


def cases(paths: list[Path], base: Path) -> dict[str, list[str]]:
    """Case name -> argv over the problem files, named relative to `base`."""
    out: dict[str, list[str]] = {}
    for path in paths:
        rel = str(path.relative_to(base))
        found = file_cases(path, rel)
        sides = sorted({argv[3] for argv in found.values() if argv[0] == "census"})
        for side in sides:
            found[f"{path.stem}.census-{side}-newton-grid2"] = [
                "census", rel, "--side", side, "--method", "newton", "--grid-points", "2"
            ]
        if f"{path.stem}.verify" in found:
            found[f"{path.stem}.verify-grid2"] = ["verify", rel, "--grid-points", "2"]
        out.update(found)
    return out


def write(outdir: Path, seeded: bool = True) -> int:
    """Write the problem files and one transcript per case into `outdir`;
    returns the number of transcripts."""
    outdir = Path(outdir).resolve()
    all_cases = cases(write_problems(outdir / "problems", seeded), outdir)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name, argv in all_cases.items():
            (outdir / f"{name}.txt").write_text(transcript(argv), encoding="utf-8")
    finally:
        os.chdir(cwd)
    return len(all_cases)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/transcripts.py OUTDIR")
    count = write(Path(sys.argv[1]))
    sys.stdout.write(f"wrote {count} transcripts to {sys.argv[1]}\n")
