"""Host-speed probe.

On a 2-core Intel Xeon VM whose cores are shared with other tenants, speed
drifts between states up to 2x apart for tens of seconds at a time, moving
CPU time together with wall time.  Medians inside one run cannot remove a
drift that lasts the whole run, so the run interleaves this fixed probe
between items and scales each timing by ``REFERENCE_MS`` over the mean of
the probes taken around it.  The probe mimics ccopkit's own instruction mix (a
recursive second-order jet over a small tree with tiny numpy arrays, plus
small SVDs and least squares), so host drift slows it by about the same
factor as the program.  It does not depend on ccopkit: a faster ccopkit
moves the scaled timings and leaves the probe alone.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# the probe's time on the reference host state; scaled timings read as
# "wall time when the probe takes REFERENCE_MS"
REFERENCE_MS = 5.0
# about 3% of a run's time at the reference speed
EVERY_S = 0.15

_N = 6
_TREE = ("+", ("*", ("x", 0), ("x", 1)),
         ("+", ("*", ("c", 0.5), ("*", ("x", 2), ("x", 2))),
          ("*", ("x", 3), ("+", ("x", 4), ("x", 5)))))
_M = np.arange(64, dtype=float).reshape(8, 8) % 7 + np.eye(8)


def _jet(node, x):
    op = node[0]
    if op == "x":
        g = np.zeros(_N)
        g[node[1]] = 1.0
        return x[node[1]], g, np.zeros((_N, _N))
    if op == "c":
        return node[1], np.zeros(_N), np.zeros((_N, _N))
    a, ga, ha = _jet(node[1], x)
    b, gb, hb = _jet(node[2], x)
    if op == "+":
        return a + b, ga + gb, ha + hb
    return a * b, a * gb + b * ga, a * hb + b * ha + np.outer(ga, gb) + np.outer(gb, ga)


def probe_ms() -> float:
    """Time one fixed unit of probe work, in milliseconds."""
    x = np.linspace(-1.0, 1.0, _N)
    rhs = np.linspace(0.0, 1.0, 8)
    t0 = time.perf_counter()
    for _ in range(90):
        _jet(_TREE, x)
    for _ in range(20):
        np.linalg.svd(_M)
        np.linalg.lstsq(_M, rhs, rcond=None)
    return (time.perf_counter() - t0) * 1e3


class Probes:
    """Probe samples taken at most every EVERY_S seconds of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter() at the end of each sample
        self._last = float("-inf")

    def take(self) -> None:
        self.samples.append(probe_ms())
        self._last = time.perf_counter()
        self.times.append(self._last)

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.take()

    def local(self, t0: float, t1: float) -> float:
        """Multiplier that turns a wall time spent from `t0` to `t1` into a
        reference-speed time: REFERENCE_MS over the mean of the last sample
        before `t0`, the samples in between and the first sample after `t1`.
        Host speed drifts within a run, so the probes nearest a timing
        describe it better than the run's mean does."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        return REFERENCE_MS / float(np.mean(self.samples[lo:hi]))

    def factor(self) -> float:
        """Multiplier that turns wall times summed over this run into
        reference-speed times: REFERENCE_MS over the mean of the middle 80%
        of the samples.  A mean follows the share of the run spent in each
        host state, as summed times do; trimming drops single-probe
        outliers.  It scales the per-layer self times."""
        lo, hi = np.percentile(self.samples, [10, 90])
        kept = [s for s in self.samples if lo <= s <= hi]
        return REFERENCE_MS / float(np.mean(kept))
