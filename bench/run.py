"""ccopkit benchmark: one seeded workload per process, closed loop, one client.

    python3 bench/run.py --workload roundtrip --seed 2024 --seconds 28 --trace 0

Run from the root of a ccopkit checkout (it imports ``src/ccopkit`` and
``tests/helpers.py`` from there).  Each item starts when the previous one
has finished.  A run sets up its inputs ``SETUP_REPS`` times, then runs
passes of items (see ``workloads.py``) until the next pass would end after
``--seconds``.  Every item's output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Timings are scaled to a reference host speed by the probes
of ``probe.py`` taken around them; the raw values are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the passes
of the first half of the budget untraced, then the same passes again with
every public ccopkit function wrapped (``tracing.py``), and reports the
per-layer metrics.  METRICS.md describes every metric and what should move it.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: one BLAS/OpenMP thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from probe import REFERENCE_MS, Probes  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, shape_totals, summary_digest  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
TAIL_PCT = 90
REQUIRED = ("src/ccopkit/__init__.py", "tests/helpers.py", "tests/data")
END_TO_END = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
              "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    spans: list[tuple[float, float]] = field(default_factory=list)  # item start, end
    failures: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Sum of the item latencies."""
        return sum(t1 - t0 for t0, t1 in self.spans)

    def scaled_seconds(self, probes) -> float:
        return self.seconds * probes.local(self.spans[0][0], self.spans[-1][1])

    def scaled_item_ms(self, probes) -> list[float]:
        return [(t1 - t0) * 1e3 * probes.local(t0, t1) for t0, t1 in self.spans]


def load_library() -> SimpleNamespace:
    """Import ccopkit and tests/helpers.py afresh from this checkout."""
    for name in [m for m in sys.modules if m in ("ccopkit", "helpers") or m.startswith("ccopkit.")]:
        del sys.modules[name]
    ck = importlib.import_module("ccopkit")
    origin = Path(ck.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"ccopkit imported from {origin}, not from this checkout")
    return SimpleNamespace(
        ck=ck, cli=importlib.import_module("ccopkit.cli"), helpers=importlib.import_module("helpers")
    )


def gate(wl, lib, item, raw, expected: dict) -> tuple[list[str], bool]:
    """Invariant violations, plus a mismatch against what was recorded at
    the seed commit: the item's summary digest if this instance was
    recorded, else the totals of its shape if those do not vary with the
    seed.  The flag says whether either was recorded."""
    summary, problems = wl.check(lib, item, raw)
    want = expected.get("items", {}).get(item.key)
    if want is not None:
        if want != summary_digest(summary):
            problems.append(f"summary {json.dumps(summary, sort_keys=True)} != recorded digest {want}")
        return problems, True
    totals = expected.get("shapes", {}).get(item.label)
    if totals is not None:
        if totals != shape_totals(summary):
            problems.append(f"totals {json.dumps(shape_totals(summary), sort_keys=True)} "
                            f"!= recorded {json.dumps(totals, sort_keys=True)}")
        return problems, True
    return problems, False


def run_passes(wl, lib, seed, ctx, probes, *, first=None, budget=None, count=None, tracer=None):
    """Closed loop over passes; stops after `count` passes, or before a pass
    that would end after `budget` seconds (at least one pass runs)."""
    passes: list[PassResult] = []
    t_start = time.perf_counter()
    while True:
        p = len(passes)
        if tracer is not None:
            tracer.begin_item(f"gen{p}")
        items = first if p == 0 and first is not None else wl.make_pass(lib, seed + p, *ctx.dirs)
        result = PassResult()
        for i, item in enumerate(items):
            probes.maybe()
            if tracer is not None:
                tracer.begin_item(f"p{p}.{i}")
            t0 = time.perf_counter()
            try:
                raw = wl.run(lib, item)
            except Exception as exc:  # a failing item is counted; the loop goes on
                raw, problems = None, [f"{type(exc).__name__}: {exc}"]
            result.spans.append((t0, time.perf_counter()))
            if raw is not None:
                problems, recorded = gate(wl, lib, item, raw, ctx.expected)
                ctx.unrecorded += not recorded
            result.failures += [f"{item.label} [{item.key}]: {msg}" for msg in problems[:3]]
            ctx.failed += bool(problems)
            ctx.attempted += 1
        passes.append(result)
        if count is not None:
            if len(passes) >= count:
                break
        elif time.perf_counter() - t_start + statistics.median(r.seconds for r in passes) > budget:
            break
    probes.take()
    return passes


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def end_to_end(passes, setup, probes):
    """End-to-end metrics and a note for each.  Every set-up, pass and item
    is scaled by the probes taken around it (``Probes.local``)."""
    items = [ms for r in passes for ms in r.scaled_item_ms(probes)]
    raw_items = [(t1 - t0) * 1e3 for r in passes for t0, t1 in r.spans]
    tail = float(np.percentile(items, TAIL_PCT))
    metrics = {
        "setup_s": statistics.median((t1 - t0) * probes.local(t0, t1) for t0, t1 in setup),
        "run_s": statistics.median(r.scaled_seconds(probes) for r in passes),
        "item_p50_ms": statistics.median(items),
        "item_tail_ms": tail,
    }
    raw = {
        "setup_s": statistics.median(t1 - t0 for t0, t1 in setup),
        "run_s": statistics.median(r.seconds for r in passes),
        "item_p50_ms": statistics.median(raw_items),
        "item_tail_ms": float(np.percentile(raw_items, TAIL_PCT)),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "run_s": f"median of {len(passes)} passes of {len(passes[0].spans)} items",
        "item_p50_ms": f"{len(items)} items",
        "item_tail_ms": f"p{TAIL_PCT} of {len(items)} items, "
                        f"{sum(ms > tail for ms in items)} beyond it",
    }
    notes = {k: f"raw {raw[k]:.6g}, {notes[k]}" for k in raw}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: per workload")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"bench: {ROOT} is not a ccopkit checkout (missing {', '.join(missing)})\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    recorded = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    ctx = SimpleNamespace(
        dirs=(OUT / args.workload, ROOT / "tests" / "data"),
        expected=recorded.get(args.workload, {}),
        attempted=0,
        failed=0,
        unrecorded=0,
    )
    info = provenance()
    print(f"bench: workload={args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1")
    print("bench: " + " ".join(f"{k}={v!r}" for k, v in info.items()))

    # every set-up lies between two probes
    probes = Probes()
    probes.take()
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = load_library()
        first = wl.make_pass(lib, seed, *ctx.dirs)
        setup.append((t0, time.perf_counter()))
        probes.take()

    if args.trace == 0:
        passes = run_passes(wl, lib, seed, ctx, probes, first=first, budget=args.seconds)
        scaler = probes
        metrics, notes = end_to_end(passes, setup, probes)
        units = END_TO_END
    else:
        untraced = run_passes(wl, lib, seed, ctx, probes, first=first, budget=args.seconds / 2)
        traced_probes = Probes()
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = run_passes(wl, lib, seed, ctx, traced_probes, count=len(untraced),
                                tracer=tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{seed}.jsonl.gz")
        scaler = traced_probes
        overhead = (statistics.median(r.scaled_seconds(traced_probes) for r in traced)
                    / statistics.median(r.scaled_seconds(probes) for r in untraced)) - 1.0
        metrics = tracer.layer_metrics(len(traced), overhead, traced_probes.factor())
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        notes = {name: f"per pass, {len(traced)} traced passes" for name in metrics}
        notes["trace.overhead_frac"] = f"{len(traced)} traced vs untraced passes"
        passes = untraced + traced

    for msg in [msg for r in passes for msg in r.failures][:10]:
        print(f"bench: FAILED {msg}")
    factor = scaler.factor()
    print(f"bench: run-wide host-speed factor {factor:.4g} (trimmed-mean probe "
          f"{REFERENCE_MS / factor:.3g} ms over {len(scaler.samples)} probes, "
          f"reference {REFERENCE_MS:g} ms)")
    for name, value in metrics.items():
        print(f"bench: {name} {value:.6g} {units[name]} ({notes[name]})")
    print(f"bench: failed_frac {ctx.failed / ctx.attempted:.6g} "
          f"({ctx.failed} of {ctx.attempted} items)")
    print(f"bench: unrecorded {ctx.unrecorded} of {ctx.attempted} items (no recorded summary "
          f"or shape totals: checked by the invariants alone)")

    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": info, "notes": notes, **result,
              "unrecorded": ctx.unrecorded,
              "factor": factor, "probe_ms": probes.samples,
              "item_ms": [[(t1 - t0) * 1e3 for t0, t1 in r.spans] for r in passes],
              "setup_s": [t1 - t0 for t0, t1 in setup]}
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
