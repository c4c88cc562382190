"""The benchmark's five workloads: inputs from a seed, timed body, checks.

Each workload is a closed-loop batch job, driven from one process and
sized so one repetition takes about a second and a half on a 2-vCPU
Xeon VM.  A *plan* is the
JSON-able input of one repetition and a pure function of ``(seed,
scale)``; the program only ever sees the configurations in it.

* ``inproc`` workloads run their body inside ``child.py`` (untraced)
  or ``traced.py``: :func:`prepare` imports the program and builds the
  inputs, the returned body is what gets timed, and
  :func:`check_inproc` judges its outputs.
* ``cli`` workloads run ``python -m repro.cli <argv>`` in a fresh work
  directory, exactly as a user would; :func:`check_cli` judges the
  files the command left there.

A check report counts *operations* — sweep tasks: campaign chunks,
soak chunks and grid points.  One fails when it was retried, poisoned
or raised, and every operation of a repetition whose outputs fail a
check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = pathlib.Path(__file__).with_name("expected.json")
FIG8_GOLDEN = ROOT / "tests" / "golden" / "fig8_rows.json"

DEFAULT_SEED = 2010
#: ``--smoke`` divides every fault, round and cycle count by this.
SMOKE_SCALE = 20
#: ``CampaignConfig.faults_per_task`` default: faults per campaign chunk.
CHUNK = 25
X12_SCHEMES = ("plain", "timber-ff", "timber-latch", "razor")
CAMPAIGN_CYCLES = 4000


def benchmark() -> dict:
    """``BENCHMARK.json``: workloads, metrics with units and bounds."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def names() -> list[str]:
    """Workload names, in ``BENCHMARK.json`` order (why each is there
    is recorded beside it and in the README)."""
    return [workload["name"] for workload in benchmark()["workloads"]]


def _seed31(seed: int) -> int:
    return seed % 2 ** 31


def _scaled(count: int, scale: int) -> int:
    return max(1, count // scale)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _campaign(target: str, scheme: str, faults: int, seed: int,
              **extra: typing.Any) -> dict:
    return {"target": target, "scheme": scheme, "num_faults": faults,
            "num_cycles": CAMPAIGN_CYCLES, "seed": _seed31(seed), **extra}


def plan(name: str, seed: int = DEFAULT_SEED, scale: int = 1) -> dict:
    """The inputs of one repetition of workload ``name``."""
    n = lambda count: _scaled(count, scale)  # noqa: E731
    if name == "x12_lanes":
        return {"kind": "inproc", "campaigns": [
            _campaign("pipeline", scheme, n(6_000), seed)
            for scheme in X12_SCHEMES]}
    if name == "forked_replay":
        # dcf and clock-stall have no lane machine; canary's background
        # is never quiet, so every lane replays; relay_horizon=80 makes
        # graph windows longer than the 64-cycle lane cap.
        return {"kind": "inproc", "campaigns": [
            _campaign("pipeline", "dcf", n(3_000), seed),
            _campaign("pipeline", "clock-stall", n(3_000), seed),
            _campaign("pipeline", "canary", n(300), seed),
            _campaign("graph", "timber-ff", n(1_500), seed,
                      relay_horizon=80)]}
    if name == "paper_sweeps":
        # Seed 2010 runs every sweep at its default seeds (the paper's
        # artefacts); other seeds shift all of them by the same offset.
        offset = seed - DEFAULT_SEED
        return {"kind": "inproc",
                "resilience": {"num_cycles": n(4_000),
                               "seed": _seed31(11 + offset)},
                "throughput": {"num_cycles": n(4_000),
                               "seed": _seed31(23 + offset)},
                "shootout": {"num_cycles": n(2_000),
                             "stage_seed": _seed31(300 + offset),
                             "local_seed": _seed31(61 + offset),
                             "droop_seed": _seed31(62 + offset)},
                "figures_seed": _seed31(seed)}
    if name == "campaign_cli":
        faults, workers = n(2_000), min(2, _nproc())
        return {"kind": "cli", "schemes": list(X12_SCHEMES),
                "faults": faults, "workers": workers, "argv": [
                    "campaign", "--target", "pipeline",
                    "--schemes", ",".join(X12_SCHEMES),
                    "--faults", str(faults),
                    "--cycles", str(CAMPAIGN_CYCLES),
                    "--seed", str(_seed31(seed)),
                    "--workers", str(workers),
                    "--cache-dir", "cache", "--checkpoint", "cp.json",
                    "--events", "events.jsonl", "--out", "out.json"]}
    if name == "soak_journal":
        rounds, per_round = n(60), 200
        return {"kind": "cli", "rounds": rounds, "per_round": per_round,
                "argv": [
                    "soak", "--target", "graph", "--scheme", "timber-ff",
                    "--cycles", str(CAMPAIGN_CYCLES),
                    "--rounds", str(rounds),
                    "--faults-per-round", str(per_round),
                    "--seed", str(_seed31(seed)),
                    "--no-cache", "--quiet",
                    "--journal", "journal.jsonl",
                    "--checkpoint", "soak-cp.json",
                    "--events", "events.jsonl", "--out", "out.json"]}
    raise KeyError(f"unknown workload {name!r} (known: {', '.join(names())})")


def planned_ops(plan: dict) -> int:
    """Operations a repetition of ``plan`` attempts (sweep tasks)."""
    if "campaigns" in plan:
        return sum(math.ceil(c["num_faults"] / CHUNK)
                   for c in plan["campaigns"])
    if "schemes" in plan:
        return len(plan["schemes"]) * math.ceil(plan["faults"] / CHUNK)
    if "rounds" in plan:
        return plan["rounds"] * math.ceil(plan["per_round"] / CHUNK)
    from repro.baselines.architectures import ARCHITECTURES
    from repro.processor.perfpoints import PERFORMANCE_POINTS

    # resilience 5x4 and throughput 4x4 grids, one shoot-out point per
    # architecture, one Fig. 8 and one Fig. 1 task per point.
    return 20 + 16 + len(ARCHITECTURES) + 2 * len(PERFORMANCE_POINTS)


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------

def campaign_key(config: dict) -> str:
    """Stable name of one campaign configuration in expected.json."""
    key = (f"{config['target']}/{config['scheme']}/"
           f"faults={config['num_faults']}/cycles={config['num_cycles']}/"
           f"seed={config['seed']}")
    if config.get("relay_horizon", 4) != 4:
        key += f"/horizon={config['relay_horizon']}"
    return key


def _digest(value: typing.Any) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _check_pinned(observed: dict, problems: list[str]) -> None:
    expected = load_expected()["pinned"]
    for key, value in observed.items():
        if key in expected and expected[key] != value:
            problems.append(f"{key}: got {value!r}, pinned "
                            f"{expected[key]!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report(*, attempted: int, failed: int,
            problems: list[str], work: float, observed: dict,
            work_s: float | None = None) -> dict:
    """A check report; failing checks fail every operation."""
    _check_pinned(observed, problems)
    if problems:
        failed = attempted
    return {"attempted": attempted, "failed": failed,
            "problems": problems, "work": work, "work_s": work_s,
            "observed": observed}


def failed_report(plan: dict, problem: str) -> dict:
    """The report of a repetition that produced no checkable output."""
    ops = planned_ops(plan)
    return {"attempted": ops, "failed": ops, "problems": [problem],
            "work": 0.0, "work_s": None, "observed": {}}


def _failed_tasks(summary: dict) -> int:
    return sum(1 for task in summary["per_task"]
               if task["attempts"] > 1 or task["status"] != "done")


def _check_reports(reports: list[dict], faults: list[int],
                   problems: list[str]) -> None:
    """Per-scheme counts sum to the fault count; X12 cross-checks."""
    for report, expected in zip(reports, faults):
        total = sum(report["counts"].values())
        if total != expected or report["num_faults"] != expected:
            problems.append(f"{report['scheme']}: {total} outcomes "
                            f"for {expected} faults")
    by_scheme = {r["scheme"]: r for r in reports
                 if r["target"] == "pipeline"}
    if set(X12_SCHEMES) <= set(by_scheme):
        benign = {by_scheme[s]["counts"]["benign"] for s in X12_SCHEMES}
        if len(benign) != 1:
            problems.append(f"benign counts differ across schemes: "
                            f"{sorted(benign)}")
        plain = by_scheme["plain"]
        if plain["violations"] and plain["coverage"] != 0.0:
            problems.append(f"plain coverage {plain['coverage']} != 0")


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def prepare(plan: dict) -> typing.Callable[[], dict]:
    """Import the program, build the inputs, return the timed body."""
    from repro.exec.runner import SweepRunner

    runner = SweepRunner(workers=1, cache=None)
    if "campaigns" in plan:
        from repro.campaign import CampaignConfig, run_campaign

        configs = [CampaignConfig(**c) for c in plan["campaigns"]]

        def campaigns() -> dict:
            return {"results": [run_campaign(config, runner=runner)
                                for config in configs]}
        return campaigns

    from repro.analysis import experiments

    def sweeps() -> dict:
        # Every experiment makes one runner.run, which replaces
        # runner.last_run: keep each summary as it finishes.
        summaries: list[dict] = []

        def step(experiment, **kwargs):
            value = experiment(runner=runner, **kwargs)
            summaries.append(runner.last_run.summary)
            return value

        started = time.perf_counter()
        out = {
            "resilience": step(experiments.resilience_sweep,
                               **plan["resilience"]),
            "throughput": step(experiments.throughput_sweep,
                               **plan["throughput"]),
            "shootout": step(experiments.shootout_sweep,
                             **plan["shootout"])}
        out["sweeps_s"] = time.perf_counter() - started
        out["fig8"] = step(experiments.fig8_experiment,
                           seed=plan["figures_seed"])
        out["fig1"] = step(experiments.fig1_experiment,
                           seed=plan["figures_seed"])
        out["summaries"] = summaries
        return out
    return sweeps


def check_inproc(plan: dict, out: dict) -> dict:
    """Judge the outputs of an in-process repetition."""
    import dataclasses

    problems: list[str] = []
    observed: dict = {}
    if "campaigns" in plan:
        results = out["results"]
        reports = [r.report.to_json() for r in results]
        for config, report in zip(plan["campaigns"], reports):
            observed[campaign_key(config)] = report["counts"]
        _check_reports(reports,
                       [c["num_faults"] for c in plan["campaigns"]],
                       problems)
        return _report(
            attempted=sum(r.summary["tasks"] for r in results),
            failed=sum(_failed_tasks(r.summary) for r in results),
            problems=problems,
            work=float(sum(len(r.outcomes) for r in results)),
            observed=observed)

    cycles = 0
    for name in ("resilience", "throughput", "shootout"):
        value = out[name]
        points = (list(value.values()) if isinstance(value, dict)
                  else [p.result for p in value])
        want = plan[name]["num_cycles"]
        bad = [p for p in points
               if p.cycles != want or p.captures != want * 5]
        if bad:
            problems.append(f"{name}: {len(bad)} point(s) did not run "
                            f"{want} cycles x 5 stages")
        cycles += sum(p.cycles for p in points)
        key = (f"{name}/cycles={want}/seed="
               f"{plan[name].get('seed', plan[name].get('stage_seed'))}")
        observed[key] = _digest([dataclasses.asdict(p) for p in points])
    rows = [dataclasses.asdict(row) for row in out["fig8"]]
    if len(rows) != 48:
        problems.append(f"fig8: {len(rows)} rows, expected 48")
    if plan["figures_seed"] == DEFAULT_SEED:
        golden = json.loads(FIG8_GOLDEN.read_text(encoding="utf-8"))
        if rows != golden["rows"]:
            problems.append("fig8 rows differ from "
                            "tests/golden/fig8_rows.json")
    observed[f"fig1/seed={plan['figures_seed']}"] = _digest(
        {name: [dataclasses.asdict(d) for d in dists]
         for name, dists in out["fig1"].items()})
    return _report(
        attempted=sum(s["tasks"] for s in out["summaries"]),
        failed=sum(_failed_tasks(s) for s in out["summaries"]),
        problems=problems, work=float(cycles), work_s=out["sweeps_s"],
        observed=observed)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def read_events(workdir: pathlib.Path) -> list[dict]:
    """The run's event spool (header excluded)."""
    from repro.obs.stream import read_events as read

    _header, events = read(workdir / "events.jsonl")
    return events


def _failed_from_events(events: list[dict]) -> int:
    keys = {event["key"] for event in events
            if event["type"] in ("retry", "crash", "quarantine")}
    return len(keys)


def check_cli(plan: dict, workdir: pathlib.Path) -> dict:
    """Judge the files a CLI repetition left in ``workdir``."""
    problems: list[str] = []
    observed: dict = {}
    events = read_events(workdir)
    failed = _failed_from_events(events)
    out = json.loads((workdir / "out.json").read_text(encoding="utf-8"))
    if "schemes" in plan:
        reports = out["reports"]
        config = out["config"]
        for report in reports:
            observed[campaign_key({**config, "scheme": report["scheme"]})
                     ] = report["counts"]
        if [r["scheme"] for r in reports] != plan["schemes"]:
            problems.append(f"reports for {[r['scheme'] for r in reports]}")
        _check_reports(reports, [plan["faults"]] * len(reports),
                       problems)
        work = float(sum(r["num_faults"] for r in reports))
    else:
        from repro.soak import SoakConfig, SoakJournal, replay_round

        header, records = SoakJournal.read(workdir / "journal.jsonl")
        soak = SoakConfig.from_params(header["soak"])
        want = plan["rounds"] * plan["per_round"]
        if len(records) != plan["rounds"] or out["rounds"] != plan["rounds"]:
            problems.append(f"{len(records)} journal records, "
                            f"{out['rounds']} rounds, expected "
                            f"{plan['rounds']}")
        if out["total_faults"] != want:
            problems.append(f"{out['total_faults']} faults, expected "
                            f"{want}")
        if records:
            last = records[-1]
            prev = records[-2]["digest"] if len(records) > 1 else ""
            if replay_round(soak, last, prev)["digest"] != last["digest"]:
                problems.append("replaying the last journal record "
                                "gives another digest")
            campaign = soak.campaign
            observed[f"soak/{campaign.target}/{campaign.scheme}/"
                     f"rounds={len(records)}/per_round="
                     f"{soak.faults_per_round}/cycles="
                     f"{campaign.num_cycles}/seed={campaign.seed}"
                     ] = last["digest"]
        work = float(out["total_faults"])
    return _report(attempted=planned_ops(plan), failed=failed,
                   problems=problems, work=work, observed=observed)
