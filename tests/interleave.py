"""Time two versions of ccopkit against each other in one process.

    python tests/interleave.py OLD_SRC NEW_SRC                 # 30 rounds of roundtrip
    python tests/interleave.py OLD_SRC NEW_SRC --rounds 40 --seed 77 --workload census_n8
    python tests/interleave.py OLD_SRC NEW_SRC --workload roundtrip census_n8 newton_smooth cli_verify

OLD_SRC and NEW_SRC are `src` directories of two checkouts.  Each is
imported as its own package (`ccopkit_old`, `ccopkit_new`), with its own
copy of tests/helpers.py bound to it, so both live in one interpreter.  A
round draws one pass of the workload's items (bench/workloads.py of this
checkout) for each side from the same seed, then times each side running
them, the two sides in alternating order.  Round r uses seed SEED + r, so
every round sees new instances and nothing is held between rounds.  The
two sides' summaries of each item must be equal; the script stops with
exit code 1 at the first item where they differ.  Several workloads run in
turn, each with its own rounds, one printed block each.

It prints each side's median and quartiles of the per-round time, the
number of rounds each side won, the median time of cyclic garbage
collection within a round (timed with gc.callbacks around the pass) and
the median share of the round it took, and the ratio new/old of the
medians and the median of the per-round ratios.  The host's speed drifts
(up to 2x between subprocess runs of bench/run.py), which alternation
inside one process cancels: both sides of a round run within a second of
each other.  A claim of gain still rests on alternating pairs of
`bench/run.py` runs.  pytest does not collect this file (like
transcripts.py).
"""

from __future__ import annotations

import os

# pinned before numpy is imported, as bench/run.py pins them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402


def _module(name: str, path: Path, package: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None else [str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(src: Path, tag: str) -> SimpleNamespace:
    """The package under src/ccopkit as `ccopkit_<tag>`, its cli module, and
    tests/helpers.py of this checkout imported against it."""
    package = src / "ccopkit"
    ck = _module(f"ccopkit_{tag}", package / "__init__.py", package)
    held = sys.modules.get("ccopkit")
    sys.modules["ccopkit"] = ck  # what helpers.py imports its names from
    try:
        helpers = _module(f"helpers_{tag}", ROOT / "tests" / "helpers.py")
    finally:
        if held is None:
            del sys.modules["ccopkit"]
        else:
            sys.modules["ccopkit"] = held
    return SimpleNamespace(ck=ck, cli=importlib.import_module(f"ccopkit_{tag}.cli"), helpers=helpers)


def _timed(wl, lib, items) -> tuple[float, float, list]:
    """The seconds the pass over items took, the seconds of cyclic garbage
    collection within it (timed by a gc.callbacks hook), and its results."""
    gc.collect()
    spent = [0.0, 0.0]  # collection seconds, start of the running collection

    def clock(phase, info):
        if phase == "start":
            spent[1] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - spent[1]

    gc.callbacks.append(clock)
    try:
        t0 = time.perf_counter()
        raws = [wl.run(lib, item) for item in items]
        seconds = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(clock)
    return seconds, spent[0], raws


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="src directory of the first version")
    parser.add_argument("new", type=Path, help="src directory of the second version")
    parser.add_argument("--workload", nargs="+", default=["roundtrip"], choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=None, help="default: each workload's")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sides = {"old": load_side(args.old.resolve(), "old"), "new": load_side(args.new.resolve(), "new")}
    return 1 if any(_compare(name, sides, args) for name in args.workload) else 0


def _compare(name: str, sides: dict, args) -> int:
    """Run args.rounds alternating rounds of one workload and print its
    block; 1 if the two sides' summaries differ, else 0."""
    wl = WORKLOADS[name]
    seed = wl.default_seed if args.seed is None else args.seed
    times: dict[str, list[float]] = {"old": [], "new": []}
    collected: dict[str, list[float]] = {"old": [], "new": []}  # garbage-collection seconds per round
    wins = {"old": 0, "new": 0}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.rounds):
            order = ("old", "new") if r % 2 == 0 else ("new", "old")
            summaries = {}
            for tag in order:
                lib = sides[tag]
                items = wl.make_pass(lib, seed + r, Path(tmp) / tag, ROOT / "tests" / "data")
                seconds, gc_seconds, raws = _timed(wl, lib, items)
                times[tag].append(seconds)
                collected[tag].append(gc_seconds)
                summaries[tag] = [wl.check(lib, item, raw)[0] for item, raw in zip(items, raws)]
            if summaries["old"] != summaries["new"]:
                k = next(k for k, (a, b) in enumerate(zip(summaries["old"], summaries["new"])) if a != b)
                print(f"interleave: round {r}, item {k}: summaries differ\n"
                      f"  old {summaries['old'][k]}\n  new {summaries['new'][k]}")
                return 1
            old, new = times["old"][-1], times["new"][-1]
            if old != new:
                wins["old" if old < new else "new"] += 1
    print(f"interleave: workload={name} seed={seed} rounds={args.rounds} "
          f"(one pass each, alternating order)")
    for tag, path in (("old", args.old), ("new", args.new)):
        q1, q2, q3 = _quartiles(times[tag])
        share = statistics.median(c / t for c, t in zip(collected[tag], times[tag]))
        print(f"interleave: {tag} {path}: median {q2 * 1e3:.2f} ms, quartiles "
              f"{q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms, won {wins[tag]} of {args.rounds} rounds; "
              f"gc median {statistics.median(collected[tag]) * 1e3:.2f} ms, {share:.1%} of a round")
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    print(f"interleave: new/old {statistics.median(times['new']) / statistics.median(times['old']):.4f} "
          f"by medians, {statistics.median(ratios):.4f} by the median of the per-round ratios")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
