"""Tests of the benchmark harness itself: ``pytest benchmarks/perf``."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def _span(pid, span_id, parent_id, name, start_ns, end_ns, **attrs):
    return {"pid": pid, "span_id": span_id, "parent_id": parent_id,
            "name": name, "start_ns": start_ns, "end_ns": end_ns,
            "attrs": attrs}


def test_fold_subtracts_same_pid_children_only():
    records = [
        _span(1, 1, 0, "sweep.run", 0, 100),
        _span(1, 2, 1, "layer.engine.setup", 10, 30),
        _span(1, 3, 1, "layer.engine.chunk", 30, 90, batched=4,
              replayed=1),
        _span(1, 4, 3, "layer.lanes.eval", 40, 70, n=4),
        # Not in SELF_TIME: counts toward its nearest listed ancestor.
        _span(1, 5, 4, "kernel.inner", 50, 60),
        # A forked worker: its ids collide with the main process's, and
        # parent 1 names a main-process span, so span 2 is a pid-2 root.
        _span(2, 2, 1, "layer.exec.task", 20, 80),
        _span(2, 3, 2, "layer.faults.draw", 25, 35, n=25),
        _span(2, 4, 0, "orphan.span", 0, 5),
    ]
    assert traced.self_times(records) == [20, 20, 30, 20, 10, 50, 10, 5]
    metrics = traced.fold(records, pid=1, window=(0, 200), workers=2)
    ns = pytest.approx
    assert metrics["exec.dispatch_s"] == ns(20e-9)
    assert metrics["engine.setup_s"] == ns(20e-9)
    assert metrics["engine.chunk_s"] == ns(30e-9)
    assert metrics["lanes.eval_s"] == ns(30e-9)
    assert metrics["exec.task_s"] == ns(50e-9)
    assert metrics["faults.draw_s"] == ns(10e-9)
    assert metrics["trace.unmapped_s"] == ns(5e-9)
    assert metrics["exec.run_s"] == ns(100e-9)
    assert (metrics["faults.draws"], metrics["lanes.lanes"],
            metrics["engine.lanes_batched"],
            metrics["engine.lanes_replayed"]) == (25, 4, 4, 1)
    assert metrics["engine.batch_ratio"] == ns(0.8)
    # Only main-process roots cover the window.
    assert metrics["trace.coverage"] == ns(0.5)
    assert metrics["trace.other_s"] == ns(100e-9)
    assert metrics["exec.worker_util"] == ns(60 / (2 * 200))
    assert metrics["trace.spans"] == len(records)


def test_fold_clips_coverage_to_the_window():
    records = [_span(7, 1, 0, "sweep.run", 0, 50),
               _span(7, 2, 0, "layer.report.build", 150, 300)]
    metrics = traced.fold(records, pid=7, window=(25, 225))
    assert metrics["trace.coverage"] == pytest.approx((25 + 75) / 200)


BASE = [1.00, 1.01, 0.99, 1.00, 1.02]


@pytest.mark.parametrize("new, better, expected", [
    ([1.02, 1.03, 1.01, 1.02, 1.04], "lower", "ok"),
    ([1.20, 1.21, 1.19, 1.22, 1.20], "lower", "regressed"),
    ([0.80, 0.81, 0.79, 0.80, 0.82], "higher", "regressed"),
    ([0.80, 0.81, 0.79, 0.80, 0.82], "lower", "ok"),
    ([0.70, 1.00, 1.30, 0.80, 1.20], "lower", "unresolved"),
])
def test_compare_verdicts(new, better, expected):
    assert compare.verdict(BASE, new, bound=0.05, better=better) == expected


def test_compare_wide_spread_resolves_when_every_run_is_better():
    assert compare.verdict([2.0, 2.6, 3.0], [1.0, 1.1, 1.5], bound=0.05,
                           better="lower") == "ok"


def test_compare_records_against_benchmark_bounds(tmp_path):
    def record(walls):
        samples = [{"setup_s": 0.3, "wall_s": wall} for wall in walls]
        return {"seed": 1, "scale": 1,
                "workloads": {"x12_lanes": {"samples": samples}}}

    metrics = [{"name": "setup_s", "better": "lower", "bound": 0.1},
               {"name": "wall_s", "better": "lower", "bound": 0.1}]
    rows = compare.compare([record(BASE)], [record([1.5] * 5)], metrics)
    assert [(row[1], row[-1]) for row in rows] == [
        ("setup_s", "ok"), ("wall_s", "regressed")]
    path = tmp_path / "results.jsonl"
    path.write_text("".join(json.dumps(record([wall])) + "\n"
                            for wall in (1.0, 2.0, 3.0)))
    assert compare.load_records(f"{path}@0") == [record([1.0])]
    assert compare.load_records(str(path)) == [record([3.0])]
    assert compare.load_records(f"{path}@1:") == [record([2.0]),
                                                   record([3.0])]


def test_compare_uses_run_medians_when_a_side_has_several_runs():
    def record(median, samples):
        return {"workloads": {"w": {"medians": {"wall_s": median},
                                    "samples": samples}}}

    # Repetitions inside each record are wild; the run medians agree.
    wild = [{"wall_s": v} for v in (0.5, 1.0, 1.5)]
    base = [record(m, wild) for m in (1.00, 1.01, 0.99, 1.00)]
    new = [record(m, wild) for m in (1.01, 1.00, 1.02, 1.00)]
    assert compare.runs(base, "w", "wall_s") == [1.00, 1.01, 0.99, 1.00]
    metric = [{"name": "wall_s", "better": "lower", "bound": 0.05}]
    assert compare.compare(base, new, metric)[0][-1] == "ok"
    assert compare.compare(base[:1], new[:1], metric)[0][-1] == "unresolved"


def test_a_zero_bound_judges_the_worst_repetition():
    # One failed task out of many in one repetition of ten: the median
    # success rate is still 1.0, but the metric may not get worse at all.
    clean, one_bad = [1.0] * 10, [1.0] * 9 + [0.999]
    assert compare.verdict(clean, one_bad, bound=0,
                           better="higher") == "regressed"
    assert compare.verdict(one_bad, one_bad, bound=0, better="higher") == "ok"
    assert compare.verdict(one_bad, clean, bound=0, better="higher") == "ok"

    def record(rates):
        samples = [{"success_rate": rate} for rate in rates]
        return {"workloads": {"w": {"samples": samples,
                                    "medians": {"success_rate": 1.0}}}}

    metric = [{"name": "success_rate", "better": "higher", "bound": 0}]
    base = [record(clean), record(clean)]
    new = [record(clean), record(one_bad)]
    assert compare.compare(base, new, metric)[0][-1] == "regressed"


def test_probed_repetition_reports_times_at_the_reference_speed(
        monkeypatch):
    import run

    # The host runs the probe at half the reference speed.
    probes = iter([0.31, 0.30, 0.29])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    monkeypatch.setattr(run, "repetition", lambda *a, **k: {
        "report": {}, "setup_s": 0.4, "wall_s": 2.0, "cpu_s": 3.0,
        "work_per_s": 500.0, "peak_rss_mb": 40.0})
    sample = run.probed_repetition("w", {}, "0", trace=False)
    assert run.REFERENCE_PROBE_S == pytest.approx(0.15)
    assert sample == {"report": {}, "setup_s": pytest.approx(0.2),
                      "wall_s": pytest.approx(1.0),
                      "cpu_s": pytest.approx(1.5),
                      "work_per_s": pytest.approx(1000.0),
                      "peak_rss_mb": 40.0, "probe_s": 0.30}


def test_plans_are_a_function_of_the_seed():
    for name in workloads.names():
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
        assert workloads.plan(name, 7) != workloads.plan(name, 8)


def test_every_wrap_target_exists():
    for wrap in traced.WRAPS:
        traced.resolve(wrap)


def test_missing_wrap_target_fails_the_launcher():
    with pytest.raises(traced.WrapTargetMissing):
        traced.install([traced.Wrap(
            "repro.campaign.engine:no_such_function", "layer.gone")])


def test_smoke_run_of_every_workload_passes_its_checks(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"]
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == workloads.names()
    for name, result in record["workloads"].items():
        assert result["layers"]["trace.spans"] > 0, name
        chrome = json.loads((HERE / "out" / name / "trace.json").read_text())
        assert chrome["traceEvents"], name
