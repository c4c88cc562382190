#!/usr/bin/env python
"""Observability smoke test: exports parse, counters agree across modes.

Three checks, exercising the full ``--obs-out`` path end to end:

1. Run a tiny fault campaign through the real CLI with ``--obs-out``
   and validate the artefacts: the Chrome trace is JSON with well-formed
   ``traceEvents`` (Perfetto-loadable), and the Prometheus text parses
   line by line and contains the expected counter families.
2. Merge the trace through ``repro-timber obs --chrome`` and validate
   the merged output too.
3. Run small campaigns in-process under vectorized and scalar kernels
   (pipeline timber-ff, canary, dcf and clock-stall, graph plain) and
   assert :func:`repro.obs.semantic_snapshot` is bit-identical for
   each — the determinism contract the property suite pins, checked
   here on every CI push without hypothesis in the loop.
4. Lint every metric family the campaign registered
   (:func:`repro.obs.exporters.lint_metric_names`) — counters must end
   in ``_total``, histograms must declare a unit suffix, every family
   needs help text.
5. Run a live sweep with the event stream enabled, then fold it back
   through ``repro-timber monitor --once --json`` and validate the
   RunHealth schema: the stream the dashboards trust must round-trip
   through the real CLI.

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

CAMPAIGN_ARGS = ("--faults", "40", "--cycles", "300", "--chunk", "10",
                 "--seed", "2010", "--no-cache")

EXPECTED_FAMILIES = (
    "repro_campaign_outcomes_total",
    "repro_pipeline_outcomes_total",
    "repro_exec_tasks_total",
    "repro_sim_events_total",
)

#: One Prometheus exposition line: comment, or ``name{labels} value``.
_PROM_LINE = re.compile(
    r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$")


def _cli(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_OBS", None)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env, timeout=600)
    if result.returncode != 0:
        raise SystemExit(
            f"CLI failed ({result.returncode}): {' '.join(args)}\n"
            f"{result.stdout}\n{result.stderr}")
    return result.stdout


def _check_chrome_trace(path: pathlib.Path) -> int:
    doc = json.loads(path.read_text(encoding="utf-8"))
    events = doc.get("traceEvents")
    if not events:
        raise SystemExit(f"{path}: no traceEvents")
    for event in events:
        missing = {"name", "ph", "ts", "dur", "pid", "tid"} - set(event)
        if missing:
            raise SystemExit(f"{path}: event missing keys {missing}")
        if event["ph"] != "X" or event["ts"] < 0 or event["dur"] < 0:
            raise SystemExit(f"{path}: malformed event {event}")
    return len(events)


def _check_prometheus(path: pathlib.Path) -> int:
    text = path.read_text(encoding="utf-8")
    families = set()
    for line in text.splitlines():
        if not _PROM_LINE.match(line):
            raise SystemExit(f"{path}: unparseable line {line!r}")
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
    missing = [name for name in EXPECTED_FAMILIES
               if name not in families]
    if missing:
        raise SystemExit(f"{path}: missing metric families {missing}")
    return len(families)


#: Campaigns whose semantic snapshot must not depend on the kernel
#: mode: the vector run batches lanes (with prefix-table counters for
#: the canary's never-quiet background), the scalar run replays every
#: lane.
SEMANTIC_CAMPAIGNS = (
    ("pipeline", "timber-ff"),
    ("pipeline", "canary"),
    ("pipeline", "dcf"),
    ("pipeline", "clock-stall"),
    ("graph", "plain"),
)


def _semantic_snapshot_identity() -> int:
    from repro import obs
    from repro.campaign import CampaignConfig, run_campaign
    from repro.exec.worker import WARM
    from repro.kernels import SCALAR_ENV

    metrics = 0
    for target, scheme in SEMANTIC_CAMPAIGNS:
        config = CampaignConfig(target=target, scheme=scheme,
                                num_faults=40, num_cycles=300,
                                faults_per_task=10, seed=2010)
        snapshots = {}
        for mode in ("vector", "scalar"):
            if mode == "scalar":
                os.environ[SCALAR_ENV] = "1"
            else:
                os.environ.pop(SCALAR_ENV, None)
            # Both modes build their own background trajectory, whose
            # run bumps the semantic counters too: start each cold.
            WARM.clear()
            obs.reset()
            obs.enable()
            run_campaign(config)
            snapshots[mode] = json.dumps(obs.semantic_snapshot(),
                                         sort_keys=True)
        os.environ.pop(SCALAR_ENV, None)
        obs.reset()
        obs.disable()
        if snapshots["vector"] != snapshots["scalar"]:
            raise SystemExit(
                f"semantic snapshot of the {target}/{scheme} campaign "
                f"differs between kernel modes")
        metrics += len(json.loads(snapshots["vector"]))
    return metrics


def _lint_live_registry() -> int:
    from repro import obs
    from repro.obs.exporters import lint_metric_names

    # The campaign above ran in a subprocess; register the same
    # families here by importing every instrumented module.
    import repro.core.relay   # noqa: F401
    import repro.exec.runner  # noqa: F401
    import repro.soak.driver  # noqa: F401

    problems = lint_metric_names(obs.REGISTRY)
    if problems:
        raise SystemExit("metric naming lint failed:\n  "
                         + "\n  ".join(problems))
    return len(list(obs.REGISTRY.families()))


#: Keys scripts and dashboards rely on; removing or renaming one is a
#: breaking change and must bump the health schema version.
HEALTH_KEYS = (
    "schema", "run_id", "kind", "lifecycle", "status", "stale",
    "flags", "heartbeat_s", "unit", "total", "done", "executed",
    "cached", "retries", "crashes", "poisoned", "workers",
    "utilization", "cache_hit_rate", "throughput", "eta_s",
    "faults_classified", "faults_per_second",
    "last_event_age_s", "soak",
)


def _check_monitor_roundtrip(tmp: pathlib.Path) -> None:
    spool = tmp / "events.jsonl"
    summary_path = tmp / "summary.json"
    _cli("sweep", "fig1", "--cycles", "300", "--no-cache",
         "--events", str(spool), "--summary", str(summary_path))
    if not spool.exists():
        raise SystemExit(f"{spool}: sweep wrote no event stream")
    out = _cli("monitor", str(spool), "--once", "--json")
    health = json.loads(out)
    missing = [key for key in HEALTH_KEYS if key not in health]
    if missing:
        raise SystemExit(f"monitor JSON missing keys {missing}")
    if health["schema"] != 2:
        raise SystemExit(f"unexpected health schema {health['schema']}")
    if health["status"] != "done" or health["stale"]:
        raise SystemExit(
            f"finished sweep reports status={health['status']!r} "
            f"stale={health['stale']!r}")
    if health["done"] != health["total"] or not health["done"]:
        raise SystemExit(
            f"monitor counted {health['done']}/{health['total']} tasks")
    # The run summary and the monitor are two projections of one fold
    # of the same exec events, so their shared counts must agree.
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    projected = {"done": summary["tasks"], "cached": summary["cache_hits"],
                 "events_processed": summary["events_processed"]}
    folded = {key: health[key] for key in projected}
    if folded != projected:
        raise SystemExit(f"monitor counts {folded} disagree with the "
                         f"run summary's {projected}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        obs_dir = pathlib.Path(tmp) / "obs"
        _cli("campaign", *CAMPAIGN_ARGS, "--obs-out", str(obs_dir))
        events = _check_chrome_trace(obs_dir / "trace.json")
        families = _check_prometheus(obs_dir / "metrics.prom")

        merged = pathlib.Path(tmp) / "merged.json"
        out = _cli("obs", str(obs_dir / "trace.jsonl"),
                   "--chrome", str(merged), "--flame")
        _check_chrome_trace(merged)
        if "campaign.run" not in out:
            raise SystemExit("flame summary missing campaign.run span")

        _check_monitor_roundtrip(pathlib.Path(tmp))

    linted = _lint_live_registry()
    metrics = _semantic_snapshot_identity()
    print(f"obs smoke OK: {events} trace event(s), "
          f"{families} metric families, {linted} families lint-clean, "
          f"monitor round-trip validated, "
          f"{metrics} semantic metrics identical across kernel modes "
          f"over {len(SEMANTIC_CAMPAIGNS)} campaigns")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
