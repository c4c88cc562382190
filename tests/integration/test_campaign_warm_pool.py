"""Integration: the campaign CLI forks its pool from a warm parent.

Before a multi-scheme campaign starts a fork pool, the parent builds the
background of every scheme, so no worker builds one; and pool workers
ship each value's store encoding, so the parent encodes nothing it
stores.  Neither may change what the run computes or stores: a fork
pool's reports and checkpoint values equal a serial run's, the
trajectory cache holds one record per scheme, a fully cached rerun
builds no background at all, and a warm-up that fails leaves the
workers to build lazily.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.campaign import engine
from repro.campaign.trajectory import TRAJECTORY_CACHE_ENV
from repro.cli import main
from repro.exec import read_checkpoint
from repro.exec.runner import MP_START_ENV

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

SCHEMES = ("plain", "timber-ff", "timber-latch")
ARGV = ["campaign", "--schemes", ",".join(SCHEMES), "--faults", "120",
        "--cycles", "600", "--chunk", "10", "--seed", "7",
        "--cache-dir", "cache"]


def _cli(workdir: pathlib.Path, workers: int, argv=ARGV) -> dict:
    """One CLI run in ``workdir`` (default start method); its out.json."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv,
         "--workers", str(workers), "--checkpoint", "cp.json",
         "--out", "out.json"],
        cwd=workdir, env=env, check=True, capture_output=True)
    return json.loads((workdir / "out.json").read_text())


def _checkpoint_values(workdir: pathlib.Path, scheme: str) -> dict:
    return {index: record["value"] for index, record in
            read_checkpoint(workdir / f"cp-{scheme}.json").items()}


def test_fork_pool_matches_a_serial_run(tmp_path):
    pooled_dir, serial_dir = tmp_path / "pooled", tmp_path / "serial"
    pooled_dir.mkdir()
    serial_dir.mkdir()
    pooled = _cli(pooled_dir, workers=2)
    serial = _cli(serial_dir, workers=1)

    assert pooled["reports"] == serial["reports"]
    assert pooled["telemetry"]["batches"] >= 1
    for scheme in SCHEMES:
        values = _checkpoint_values(pooled_dir, scheme)
        assert len(values) == 12
        assert values == _checkpoint_values(serial_dir, scheme)
    # The parent built every background once, before the fork; no
    # worker wrote one.
    records = [line
               for segment in (pooled_dir / "cache" / "trajectories")
               .glob("pack-*.jsonl")
               for line in segment.read_bytes().splitlines()]
    assert len(records) == len(SCHEMES)


def test_fully_cached_rerun_builds_no_background(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(MP_START_ENV, raising=False)
    monkeypatch.setenv(TRAJECTORY_CACHE_ENV,
                       str(tmp_path / "cache" / "trajectories"))
    built: list[str] = []
    evaluator = engine.fault_runner

    def counting(config):
        built.append(config.scheme)
        return evaluator(config)

    monkeypatch.setattr(engine, "fault_runner", counting)
    argv = [*ARGV, "--workers", "2"]
    assert main(argv) == 0
    # Fork pool: this process built each scheme's evaluator once, for
    # the workers to inherit.
    assert built == list(SCHEMES)
    built.clear()
    assert main(argv) == 0
    assert built == []


def test_failed_warm_up_leaves_workers_to_build(tmp_path, monkeypatch,
                                                caplog):
    # The parent's warm-up raises; the pool starts anyway and each worker
    # builds the backgrounds it needs, as without the warm-up.
    # Another seed, so no background an earlier test left in this
    # process's warm cache reaches the workers.
    argv = [("8" if arg == "7" else arg) for arg in ARGV]
    serial_dir = tmp_path / "serial"
    serial_dir.mkdir()
    serial = _cli(serial_dir, workers=1, argv=argv)

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(MP_START_ENV, raising=False)
    monkeypatch.setenv(TRAJECTORY_CACHE_ENV,
                       str(tmp_path / "cache" / "trajectories"))
    parent = os.getpid()
    evaluator = engine.fault_runner

    def failing_in_parent(config):
        if os.getpid() == parent:
            raise RuntimeError("no background here")
        return evaluator(config)

    monkeypatch.setattr(engine, "fault_runner", failing_in_parent)
    assert main([*argv, "--workers", "2", "--out", "out.json"]) == 0
    assert "before_fork hook failed" in caplog.text
    pooled = json.loads((tmp_path / "out.json").read_text())
    assert pooled["reports"] == serial["reports"]
    assert pooled["telemetry"]["batches"] >= 1
