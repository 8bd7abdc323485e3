"""Per-layer tracing of ccopkit from outside the package.

The public functions listed in ``LAYERS`` are wrapped by rebinding every
module attribute that refers to them (the package namespace, each
``ccopkit.*`` submodule that imported them, and ``tests/helpers.py``), so
calls between modules go through the wrappers too.  Each call records a span
(name, start, end, parent span, item id) in memory; ``uninstall`` puts the
original functions back.  Time spent in unwrapped private helpers counts as
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = {
    "exprcore": ("eval2", "parse"),
    "numkern": ("rank_and_nullbasis", "solve_multipliers", "restricted_inertia"),
    "ccop": ("certify_m", "check_feasible"),
    "regmpoc": ("certify_t", "check_feasible_r"),
    "bridge": ("lift", "project", "verify_counts"),
    "oracle": ("census_quadratic", "census_t_quadratic", "census_newton"),
    "cli": ("load_problem_file", "Report.render", "main"),
}
TRACED = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
_CENSUSES = frozenset({"oracle.census_quadratic", "oracle.census_t_quadratic", "oracle.census_newton"})
_CERTIFIERS = frozenset({"ccop.certify_m", "regmpoc.certify_t"})

# name -> (unit, better) for every per-layer metric ``layer_metrics`` reports
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TRACED for kind, unit in
       (("calls", ("count", "lower")), ("self_s", ("s", "lower")))},
    "exprcore.eval2.repeat_ratio": ("ratio", "lower"),
    "regmpoc.certify_t.stationary_ratio": ("ratio", "higher"),
    "oracle.merged_points": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    item: str


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of its interval covered by child spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = "setup"
        self.eval2_repeats = 0
        self.t_stationary = 0
        self.merged_points = 0
        self._stack: list[int] = []
        self._seen: set = set()
        self._issued: dict[int, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def begin_item(self, item_id: str) -> None:
        """Spans recorded from now on belong to `item_id`; repeats are
        counted within one item."""
        self.item = item_id
        self._seen = set()

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "ccopkit" or k.startswith("ccopkit.")]
        modules.append(lib.helpers)
        for layer, names in LAYERS.items():
            module = getattr(lib.ck, layer)
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._rebind(cls, meth, self._wrap(f"{layer}.{attr}", orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def _rebind(self, owner, key, new) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if name == "exprcore.eval2":
            key = (id(args[0]), np.asarray(args[1], dtype=float).tobytes())
            if key in self._seen:
                self.eval2_repeats += 1
            else:
                self._seen.add(key)
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in _CERTIFIERS and result.feasible and result.stationary:
            self.t_stationary += name == "regmpoc.certify_t"
            census = next((i for i in reversed(self._stack) if self.spans[i].name in _CENSUSES), None)
            if census is not None:
                self._issued[census] += 1
        elif name in _CENSUSES:
            returned = len(result.m_points) + len(result.t_points)
            self.merged_points += self._issued.pop(idx, 0) - returned
        return result

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, passes: int, overhead_frac: float, factor: float = 1.0) -> dict[str, float]:
        """Every PER_LAYER metric, as a mean per traced pass; self times are
        multiplied by the host-speed `factor`."""
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            selfs[span.name] += own
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = selfs[name] * factor / passes
        n_eval, n_cert = calls["exprcore.eval2"], calls["regmpoc.certify_t"]
        out["exprcore.eval2.repeat_ratio"] = self.eval2_repeats / n_eval if n_eval else 0.0
        out["regmpoc.certify_t.stationary_ratio"] = self.t_stationary / n_cert if n_cert else 0.0
        out["oracle.merged_points"] = self.merged_points / passes
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent index, item."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.item]) + "\n")
