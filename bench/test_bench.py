"""Tests of the benchmark itself: python -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from probe import REFERENCE_MS, Probes
from tracing import PER_LAYER, Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
FIXTURES = ROOT / "tests" / "data"


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _items(lib, name, k, tmp_path):
    return workloads.WORKLOADS[name].make_pass(lib, k, tmp_path, FIXTURES)


def _summaries(lib, name, k, tmp_path):
    wl = workloads.WORKLOADS[name]
    out = []
    for item in _items(lib, name, k, tmp_path):
        summary, problems = wl.check(lib, item, wl.run(lib, item))
        assert problems == [], (name, item.label, problems)
        out.append((item.key, summary))
    return out


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1, "a"),
        Span("child", 1.0, 4.0, 0, "a"),
        Span("grandchild", 2.0, 3.0, 1, "a"),
        Span("child", 5.0, 6.5, 0, "a"),
        # overlapping and overhanging children are counted once, clipped
        Span("child", 6.0, 12.0, 0, "a"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 5.0, 2.0, 1.0, 1.5, 6.0])


def test_a_timing_is_scaled_by_the_probes_around_it():
    probes = Probes()
    probes.samples = [10.0, 5.0, 2.5, 20.0]
    probes.times = [1.0, 2.0, 3.0, 4.0]
    # the last probe before, the probes during and the first probe after
    assert probes.local(1.5, 1.6) == pytest.approx(REFERENCE_MS / 7.5)
    assert probes.local(1.5, 3.5) == pytest.approx(REFERENCE_MS / 9.375)
    assert probes.local(0.5, 0.6) == pytest.approx(REFERENCE_MS / 10.0)
    assert probes.local(4.5, 5.0) == pytest.approx(REFERENCE_MS / 20.0)


def test_traced_run_restores_the_original_functions(lib, tmp_path):
    original = lib.ck.exprcore.eval2
    render = lib.cli.Report.render
    tracer = Tracer()
    tracer.install(lib)
    try:
        assert lib.ck.ccop.eval2 is not original
        assert lib.ck.census_quadratic is lib.ck.oracle.census_quadratic
        wl = workloads.WORKLOADS["cli_verify"]
        item = _items(lib, "cli_verify", 3, tmp_path)[1]
        tracer.begin_item("x")
        wl.run(lib, item)
    finally:
        tracer.uninstall()
    assert lib.ck.ccop.eval2 is lib.ck.exprcore.eval2 is original
    assert lib.ck.oracle.eval2 is original and lib.helpers.eval2 is original
    assert lib.cli.Report.render is render
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.load_problem_file", "cli.Report.render", "exprcore.eval2"} <= names
    metrics = tracer.layer_metrics(1, 0.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["cli.main.calls"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_for_one_seed(lib, name, tmp_path):
    assert _summaries(lib, name, 5, tmp_path) == _summaries(lib, name, 5, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_on_a_non_default_seed(lib, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text())[name]
    for item in _items(lib, name, 11, tmp_path):
        problems, _ = run.gate(wl, lib, item, wl.run(lib, item), recorded)
        assert problems == []


def test_gate_fails_on_a_wrong_expected_summary(lib, tmp_path):
    wl = workloads.WORKLOADS["cli_verify"]
    item = _items(lib, "cli_verify", 3, tmp_path)[0]
    raw = wl.run(lib, item)
    summary, _ = wl.check(lib, item, raw)
    right = {"items": {item.key: workloads.summary_digest(summary)}}
    assert run.gate(wl, lib, item, raw, right) == ([], True)
    wrong = dict(summary, checks=summary["checks"] + 1)
    problems, recorded = run.gate(wl, lib, item, raw, {"items": {item.key: workloads.summary_digest(wrong)}})
    assert recorded and len(problems) == 1 and "recorded digest" in problems[0]


def test_gate_checks_shape_totals_of_an_unrecorded_instance(lib, tmp_path):
    wl = workloads.WORKLOADS["roundtrip"]
    item = _items(lib, "roundtrip", 3, tmp_path)[0]
    raw = wl.run(lib, item)
    totals = workloads.shape_totals(wl.check(lib, item, raw)[0])
    assert run.gate(wl, lib, item, raw, {}) == ([], False)
    assert run.gate(wl, lib, item, raw, {"shapes": {item.label: totals}}) == ([], True)
    fewer = dict(totals, m=totals["m"] - 1)
    problems, recorded = run.gate(wl, lib, item, raw, {"shapes": {item.label: fewer}})
    assert recorded and len(problems) == 1 and "totals" in problems[0]


def test_recorded_shape_totals_cover_every_unconstrained_shape():
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text())
    labels = {
        "roundtrip": [f"n{n}s{s}{style}" for n, s, style in workloads.ROUNDTRIP_SHAPES],
        "census_n8": [f"n{n}s{s}{style}" for n, s, style in workloads.CENSUS_SHAPES],
        "newton_smooth": [f"n{n}s{s}" for n, s in workloads.NEWTON_SHAPES],
        "cli_verify": [f"n{n}s{s}{style}" for n, s, style in workloads.CLI_SHAPES],
    }
    for name, shapes in labels.items():
        unconstrained = {label for label in shapes if label[-1].isdigit()}
        assert unconstrained <= set(recorded[name]["shapes"]), name


def test_recorded_summaries_cover_the_default_seeds(lib, tmp_path):
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text())
    for name, wl in workloads.WORKLOADS.items():
        keys = {item.key for item in wl.make_pass(lib, wl.default_seed, tmp_path, FIXTURES)}
        assert keys <= set(recorded[name]["items"]), name


def test_roundtrip_reproduces_criterion_4(lib):
    rng = np.random.default_rng(workloads.WORKLOADS["roundtrip"].default_seed)
    points = companions = 0
    for _ in range(50):
        item = workloads.Item("", "", rp=lib.helpers.random_quadratic_instance(rng))
        summary, problems = workloads.check_roundtrip(lib, item, workloads.run_roundtrip(lib, item))
        assert problems == []
        for tag, count in summary["comp"].items():
            points += count
            companions += count * int(tag.split("/")[1])
    assert (points, companions) == (1832, 3858)


def test_census_reproduces_the_pinned_seed_7_instance(lib):
    rp = lib.helpers.random_quadratic_instance(np.random.default_rng(7))
    item = workloads.Item("", "", rp=rp)
    summary, problems = workloads.check_two_sided(lib, item, workloads.run_census(lib, item))
    assert problems == []
    assert (rp.n, rp.s, sum(summary["m"].values()), sum(summary["t"].values())) == (8, 5, 218, 1002)


@pytest.mark.xfail(strict=True, raises=RuntimeError,  # BridgeError
                   reason="lift cross-checks multipliers of ~1e6 with an absolute tolerance")
def test_lift_on_a_near_zero_constraint_coefficient(lib):
    """Why `_constraint_row` bounds the coefficients away from 0 (METRICS.md,
    "Conditioning").  This passes once `lift` handles such instances."""
    helpers, n, s = lib.helpers, 4, 1
    rng = np.random.default_rng(0)
    f = helpers.random_quadratic_source(rng, n)
    h = [helpers.affine_source(np.array([1e-3, 0.8, -0.6, 0.9]), -0.4)]
    rp = lib.ck.make_regularized(helpers.make_problem(n, s, f, h, []), helpers.random_c(rng, n), 0.5 / (n - s))
    item = workloads.Item("", "", rp=rp)
    assert workloads.check_roundtrip(lib, item, workloads.run_roundtrip(lib, item))[1] == []


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, "--workload", "cli_verify", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_command_fails_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and "{" not in proc.stdout
