"""The paper's headline, measured: the regularized reformulation has
exponentially more saddle points than the cardinality-constrained problem.

    PYTHONPATH=src python tests/headline.py                 # n = 8, 10, 12
    PYTHONPATH=src python tests/headline.py --n 8 10 --out table.json
    PYTHONPATH=src python tests/headline.py --n 14          # about 1.1 GB; run apart
    PYTHONPATH=src python tests/headline.py --family coercive

For each n it builds the seed-7 instance: default_rng(7), then
random_quadratic_source(rng, n) and random_c(rng, n) from tests/helpers.py,
unconstrained, s = n//2 + 1 and eps = 0.5/(n - s).  --family coercive builds
coercive_instance(n) of tests/helpers.py instead, whose positive definite
Hessian gives closed-form counts by index (coercive_counts); each count is
then printed with its closed form in parentheses.  It runs the exhaustive
M census and then the T census of that instance in a subprocess of its own,
so that each n's ru_maxrss is its own, and prints one row per n: the M and
T point counts by index, the T/M ratio of saddle points (points of index at
least 1), and each census's seconds and the process's peak RSS after it
(the T census runs second, so its peak includes the M census's).  The T
census certifies C(n, n-s) * 2^s candidates.  --out writes the rows as
JSON.  pytest does not collect this file (like transcripts.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def _saddles(counts: dict) -> int:
    return sum(v for k, v in counts.items() if isinstance(k, int) and k >= 1)


def row(n: int, family: str = "seed7") -> dict:
    """The census counts, times and peaks of the family's instance of size
    n, with the closed-form counts of the coercive family."""
    import numpy as np

    sys.path.insert(0, str(HERE))
    from helpers import coercive_counts, coercive_instance, make_problem, random_c, random_quadratic_source

    from ccopkit import census_quadratic, census_t_quadratic, make_regularized

    s = n // 2 + 1
    if family == "coercive":
        rp = coercive_instance(n)
    else:
        rng = np.random.default_rng(7)
        pr = make_problem(n, s, random_quadratic_source(rng, n))
        rp = make_regularized(pr, random_c(rng, n), 0.5 / (n - s))
    pr = rp.base
    t0 = time.perf_counter()
    m = census_quadratic(pr)
    m_s, m_mb = time.perf_counter() - t0, _peak_mb()
    t0 = time.perf_counter()
    t = census_t_quadratic(rp)
    t_s, t_mb = time.perf_counter() - t0, _peak_mb()
    by_m = {str(k): v for k, v in m.by_index_m.items()}
    by_t = {str(k): v for k, v in t.by_index_t.items()}
    out = {
        "n": n, "s": s, "family": family, "m_points": len(m.m_points), "t_points": len(t.t_points),
        "m_by_index": by_m, "t_by_index": by_t,
        "saddle_ratio": _saddles(t.by_index_t) / max(_saddles(m.by_index_m), 1),
        "m_census_s": m_s, "t_census_s": t_s, "m_peak_mb": m_mb, "t_peak_mb": t_mb,
    }
    if family == "coercive":
        closed = coercive_counts(n, s)
        out["m_closed_form"], out["t_closed_form"] = ({str(k): v for k, v in c.items()} for c in closed)
    return out


def _by_index(r: dict, side: str) -> str:
    """A row's counts by index on one side, each followed by its closed form
    in parentheses where the family has one."""
    closed = r.get(f"{side}_closed_form")
    return ", ".join(f"{k}: {v}" + (f" ({closed.get(k, 0)})" if closed else "") for k, v in r[f"{side}_by_index"].items())


def _table(rows: list[dict]) -> str:
    lines = [
        "| n, s | M points | T points | T/M saddles | M by index | T by index "
        "| M census | T census | peak RSS after M, T |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['n']}, {r['s']} | {r['m_points']:,} | {r['t_points']:,} | {r['saddle_ratio']:.1f} "
            f"| {_by_index(r, 'm')} | {_by_index(r, 't')} | {r['m_census_s']:.2f} s "
            f"| {r['t_census_s']:.2f} s | {r['m_peak_mb']:.0f} MB, {r['t_peak_mb']:.0f} MB |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[8, 10, 12], help="default: 8 10 12")
    parser.add_argument("--family", choices=("seed7", "coercive"), default="seed7", help="default: seed7")
    parser.add_argument("--out", type=Path, help="write the rows as JSON here")
    parser.add_argument("--row", type=int, help=argparse.SUPPRESS)  # one n, in this process
    args = parser.parse_args(argv)
    if args.row is not None:
        print(json.dumps(row(args.row, args.family)))
        return 0
    if any(n < 3 for n in args.n):
        parser.error("--n must be at least 3")
    rows = []
    for n in args.n:
        done = subprocess.run([sys.executable, __file__, "--row", str(n), "--family", args.family],
                              capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        rows.append(json.loads(done.stdout.splitlines()[-1]))
    print(_table(rows))
    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
