"""Seeded workload generators, per-item operations and correctness summaries.

Every workload is a sequence of *passes*.  Pass ``p`` of a run with seed
``S`` draws its inputs from ``numpy.random.default_rng(S + p)`` over a fixed
list of instance shapes, so the amount of work per pass barely depends on
the seed (only the coefficients do) and two runs with the same seed see the
same inputs.  Coefficients come from the generators of ``tests/helpers.py``,
so instances follow the same distributions as the test batteries.

An item returns an integer summary (compared against summaries recorded at
the seed commit, see ``expected.json``) and a list of violated invariants
(the paper's identities, checked on every seed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# (n, s, style): style "" is unconstrained, "h" adds one affine equality and
# "g" one affine inequality, as random_quadratic_instance draws them.  The
# point totals of a shape without "g" do not depend on the seed; that keeps
# pass times steady across seeds.  The "g" shapes, whose totals vary, are
# kept small.  Each list is ordered by item time and holds 1, 5 or 15
# items, so the median (item 3 of 5, 8 of 15) and the p90 (item 5 of 5, 14
# of 15) fall inside the block of one shape whose neighbours are well apart
# in time, not on the edge between two.
ROUNDTRIP_SHAPES = (
    (4, 0, ""), (2, 0, "g"), (2, 1, "h"), (3, 1, ""), (4, 1, "h"), (3, 2, "g"), (5, 1, ""),
    (4, 3, ""), (4, 2, "g"), (5, 2, "h"), (6, 2, ""), (5, 2, "g"), (7, 2, ""), (6, 3, "h"),
    (7, 3, ""),
)
CENSUS_SHAPES = ((8, 3, "h"),)
NEWTON_SHAPES = ((4, 1), (5, 1), (4, 2), (5, 2), (6, 2))
# after the four fixtures, which are the fastest items; no equality
# constraints, so every feasible set is connected and `verify` passes its
# mountain-pass count
CLI_SHAPES = (
    (3, 1, ""), (4, 1, ""), (5, 1, ""), (4, 3, ""), (4, 2, "g"), (4, 2, "g"), (5, 2, ""),
    (5, 2, ""), (5, 2, ""), (5, 3, ""), (6, 3, ""),
)
CLI_FIXTURES = ("constrained.prob", "well_e1.prob", "well_ones.prob", "well_ones_relaxed.prob")


@dataclass
class Item:
    """One unit of work: a regularized instance, or a problem file for the CLI."""

    key: str
    label: str
    rp: object = None
    path: str | None = None


def _key(*parts) -> str:
    return hashlib.sha1(json.dumps(parts).encode()).hexdigest()[:16]


def summary_digest(summary: dict) -> str:
    return hashlib.sha1(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


def shape_totals(summary: dict) -> dict:
    """A summary without its split by index: point and companion totals,
    check statuses and the CLI fields.  For a shape without an inequality
    these do not depend on the seed (``record.py`` checks that)."""
    out = dict(summary)
    for key in ("m", "t"):
        if key in out:
            out[key] = sum(out[key].values())
    if "comp" in out:
        out["nondegenerate"] = sum(out["comp"].values())
        out["comp"] = sum(n * int(tag.split("/")[1]) for tag, n in out["comp"].items())
    return out


def _by_index(counts: dict) -> dict:
    return {str(k): int(v) for k, v in counts.items()}


# ---------------------------------------------------------------------------
# Instance generation


def _constraint_row(rng, n):
    """Affine coefficients of magnitude 0.25-1 with random signs.

    helpers.random_quadratic_instance draws them uniform on [-1, 1].  A
    coefficient near 0 puts a stationary point with that single index in
    its support far out (x_i ~ 1/a_i) with multipliers ~ 1/a_i^2, and on
    those `lift` raises BridgeError (see METRICS.md, "Conditioning").
    """
    return rng.uniform(0.25, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)


def _quadratic_sources(helpers, rng, n, style):
    """(f, h, g) drawn in the order helpers.random_quadratic_instance draws
    them, with the constraint row of ``_constraint_row``."""
    h, g = [], []
    if style == "h":
        h.append(helpers.affine_source(_constraint_row(rng, n), float(rng.uniform(-0.5, 0.5))))
    elif style == "g":
        g.append(helpers.affine_source(_constraint_row(rng, n), float(rng.uniform(0.2, 1.0))))
    return helpers.random_quadratic_source(rng, n), h, g


def _regularization(helpers, rng, n, s):
    eps = float(rng.uniform(0.3, 1.0)) / (n - s)
    return helpers.random_c(rng, n), eps


def smooth_source(helpers, rng, n) -> str:
    """Quadratic plus small sin/cos/exp/log(1+x^2) terms and two products.

    The perturbation is small next to the quadratic part, so every support
    pattern keeps one nondegenerate root and damped Newton converges.
    """
    terms = [helpers.random_quadratic_source(rng, n)]
    for i in range(1, n + 1):
        a = float(rng.uniform(0.1, 0.3))
        kind = int(rng.integers(0, 4))
        terms.append(
            (f"({a!r})*sin(x{i})", f"({a!r})*cos(x{i})",
             f"({a!r})*exp(0.3*x{i})", f"({a!r})*log(1+x{i}^2)")[kind]
        )
    for _ in range(2):
        i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        terms.append(f"({float(rng.uniform(-0.2, 0.2))!r})*x{i}*sin(x{j})")
    return " + ".join(terms)


def _item(lib, rng, n, s, f, h, g, label) -> Item:
    c, eps = _regularization(lib.helpers, rng, n, s)
    rp = lib.ck.make_regularized(lib.helpers.make_problem(n, s, f, h, g), c, eps)
    return Item(_key(n, s, f, h, g, [float(v) for v in c], eps), label, rp=rp)


def quadratic_item(lib, rng, n, s, style) -> Item:
    """A quadratic-affine instance of a fixed shape, with coefficients drawn
    like helpers.random_quadratic_instance draws them."""
    return _item(lib, rng, n, s, *_quadratic_sources(lib.helpers, rng, n, style), f"n{n}s{s}{style}")


def smooth_item(lib, rng, n, s) -> Item:
    return _item(lib, rng, n, s, smooth_source(lib.helpers, rng, n), [], [], f"n{n}s{s}")


def write_problem_file(path: Path, n, s, f, h, g, c, eps) -> None:
    quoted = lambda xs: "[" + ", ".join(f'"{x}"' for x in xs) + "]"
    path.write_text(
        "[problem]\n"
        f"n = {n}\ns = {s}\nf = \"{f}\"\nh = {quoted(h)}\ng = {quoted(g)}\n\n"
        "[regularization]\n"
        f"c = [{', '.join(repr(float(v)) for v in c)}]\neps = {eps!r}\n",
        encoding="utf-8",
    )


def _file_item(path: Path, label) -> Item:
    return Item(_key(path.read_text(encoding="utf-8")), label, path=str(path))


def cli_items(lib, rng, k, workdir: Path, fixtures: Path) -> list[Item]:
    """The fixtures, then one written problem file per CLI shape."""
    items = [_file_item(fixtures / name, name) for name in CLI_FIXTURES]
    workdir.mkdir(parents=True, exist_ok=True)
    for i, (n, s, style) in enumerate(CLI_SHAPES):
        f, h, g = _quadratic_sources(lib.helpers, rng, n, style)
        path = workdir / f"k{k}_{i}.prob"
        write_problem_file(path, n, s, f, h, g, *_regularization(lib.helpers, rng, n, s))
        items.append(_file_item(path, f"n{n}s{s}{style}"))
    return items


# ---------------------------------------------------------------------------
# Item operations.  ``run`` is the timed call sequence and returns the raw
# results; ``check`` turns them into (integer summary, invariant violations)
# outside the timed region.


def run_roundtrip(lib, item: Item):
    """Criterion-4 round trip: census, lift every nondegenerate M-point,
    project every companion."""
    ck, rp = lib.ck, item.rp
    census = ck.census_quadratic(rp.base)
    trips = []
    for x, mcert in census.m_points:
        if mcert.nondegenerate:
            liftset = ck.lift(rp, x)
            trips.append((mcert, liftset, [ck.project(rp, x, y) for y, _ in liftset.companions]))
    return census, trips


def check_roundtrip(lib, item: Item, raw):
    census, trips = raw
    n, s = item.rp.n, item.rp.s
    comp: dict[str, int] = {}
    problems = []
    for mcert, liftset, backs in trips:
        want = math.comb(n - mcert.activity.x_norm0 - 1, n - s - 1)
        if len(liftset.companions) != want:
            problems.append(f"{len(liftset.companions)} companions, expected {want}")
        for (_, tcert), back in zip(liftset.companions, backs):
            if not (tcert.nondegenerate and tcert.ndt[4]) or tcert.t_index != mcert.m_index:
                problems.append(f"companion t_index {tcert.t_index} != {mcert.m_index}")
            if back.m_index != mcert.m_index:
                problems.append(f"projection m_index {back.m_index} != {mcert.m_index}")
        tag = f"{mcert.m_index}/{len(liftset.companions)}"
        comp[tag] = comp.get(tag, 0) + 1
    return {"m": _by_index(census.by_index_m), "comp": comp}, problems


def run_census(lib, item: Item):
    """Both quadratic censuses, their merge and the counting identities."""
    ck, rp = lib.ck, item.rp
    merged = ck.merge_censuses(ck.census_quadratic(rp.base), ck.census_t_quadratic(rp))
    return merged, ck.verify_counts(rp, merged)


def run_newton(lib, item: Item):
    """Multistart Newton census on both sides of a smooth instance."""
    ck, rp = lib.ck, item.rp
    grid = ck.GridSpec(3)
    merged = ck.merge_censuses(ck.census_newton(rp.base, grid), ck.census_newton(rp, grid))
    return merged, ck.verify_counts(rp, merged)


def check_two_sided(lib, item: Item, raw):
    """verify_counts statuses, plus the companion count of every
    nondegenerate M-point recounted here (verify_counts skips it on the
    incomplete Newton census)."""
    merged, report = raw
    rp = item.rp
    n, s = rp.n, rp.s
    radius = 10.0 * lib.ck.Tolerances().tol_act
    statuses: dict[str, int] = {}
    for c in report.checks:
        statuses[f"{c.name}:{c.status}"] = statuses.get(f"{c.name}:{c.status}", 0) + 1
    # as in acceptance criterion 6: the mountain-pass bound presumes a
    # connected feasible set, which constraints can break
    connected = not rp.base.h and not rp.base.g
    problems = [t for t in statuses if t.endswith(":fail") and (connected or "mountain" not in t)]
    for xm, mcert in merged.m_points:
        if not mcert.nondegenerate:
            continue
        want = math.comb(n - mcert.activity.x_norm0 - 1, n - s - 1)
        got = sum(1 for xt, _, _ in merged.t_points if np.max(np.abs(xt - xm)) <= radius)
        if got != want:
            problems.append(f"{got} T-points over an M-point, expected {want}")
    summary = {
        "m": _by_index(merged.by_index_m),
        "t": _by_index(merged.by_index_t),
        "checks": statuses,
    }
    return summary, problems


def run_cli(lib, item: Item):
    """`ccopkit verify FILE --format machine`, in process, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(["verify", item.path, "--format", "machine"])
    return code, out.getvalue()


def check_cli(lib, item: Item, raw):
    code, text = raw
    rows = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    verdict = rows.get("verdict", "none").strip('"')
    summary = {
        "exit": int(code),
        "verdict": verdict,
        "checks": int(rows.get("checks", -1)),
        "failures": int(rows.get("failures", -1)),
    }
    problems = [] if code == 0 and verdict == "ok" else [f"exit {code}, verdict {verdict}"]
    return summary, problems


# ---------------------------------------------------------------------------
# Workload table


@dataclass(frozen=True)
class Workload:
    default_seed: int
    make_pass: Callable  # (lib, k, workdir, fixtures) -> list[Item]
    run: Callable  # (lib, item) -> raw results; the timed part
    check: Callable  # (lib, item, raw) -> (summary, problems)


def _shaped(make, shapes):
    def make_pass(lib, k, workdir, fixtures):
        rng = np.random.default_rng(k)
        return [make(lib, rng, *shape) for shape in shapes]

    return make_pass


def _cli_pass(lib, k, workdir, fixtures):
    return cli_items(lib, np.random.default_rng(k), k, workdir, fixtures)


WORKLOADS = {
    "roundtrip": Workload(
        2024, _shaped(quadratic_item, ROUNDTRIP_SHAPES), run_roundtrip, check_roundtrip
    ),
    "census_n8": Workload(
        7, _shaped(quadratic_item, CENSUS_SHAPES), run_census, check_two_sided
    ),
    "newton_smooth": Workload(
        1, _shaped(smooth_item, NEWTON_SHAPES), run_newton, check_two_sided
    ),
    "cli_verify": Workload(1, _cli_pass, run_cli, check_cli),
}
