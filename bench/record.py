"""Record the integer summaries of the seed commit into expected.json.

    python3 bench/record.py

For every workload this runs passes 0..PASSES-1, and 24 passes from the
workload's default seed.  It stores a digest of each item's summary under
the item's instance key (``items``).  For every instance shape whose
``shape_totals`` were the same on all those passes, it also stores those
totals (``shapes``): the gate checks an item that has no recorded digest
against them.  An item that violates an invariant aborts the recording:
summaries are only recorded from a correct program.
"""

from __future__ import annotations

import json
import sys

import run  # pins the BLAS threads before numpy loads
from workloads import WORKLOADS, shape_totals, summary_digest

PASSES = 48


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    lib = run.load_library()
    out = {}
    for name, wl in WORKLOADS.items():
        digests, totals = {}, {}
        passes = sorted(set(range(PASSES)) | set(range(wl.default_seed, wl.default_seed + 24)))
        for k in passes:
            for item in wl.make_pass(lib, k, run.OUT / "record" / name, run.ROOT / "tests" / "data"):
                summary, problems = wl.check(lib, item, wl.run(lib, item))
                if problems:
                    sys.stderr.write(f"record: {name} pass {k} {item.label}: {problems}\n")
                    return 1
                digests[item.key] = summary_digest(summary)
                seen = totals.setdefault(item.label, [])
                if shape_totals(summary) not in seen:
                    seen.append(shape_totals(summary))
        steady = {label: seen[0] for label, seen in totals.items() if len(seen) == 1}
        out[name] = {"shapes": dict(sorted(steady.items())), "items": dict(sorted(digests.items()))}
        varying = sorted(f"{label} ({len(seen)})" for label, seen in totals.items() if len(seen) > 1)
        print(f"record: {name}: {len(digests)} instances; totals vary with the seed for "
              f"{', '.join(varying) or 'no shape'}", flush=True)
    (run.BENCH / "expected.json").write_text(json.dumps(out, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
