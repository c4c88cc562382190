"""Chaos smoke: the campaign survives worker kills, process kills, and
cache corruption, and ``--resume`` reproduces the reference results.

The drill (run from the repo root with ``PYTHONPATH=src``):

1. A reference campaign runs uninterrupted and writes its coverage
   artefact.
2. The same campaign runs again with a checkpoint and a result cache.
   A preflight asserts the campaign evaluator for this config has a
   lane machine, so the crash and the resume both land on batched
   state.  Mid-sweep — and, since the dispatch layer chunks the ~31 ms
   chunk tasks into multi-task batches, mid-*batch* — one worker
   process is SIGKILLed (the runner must absorb the broken pool with the whole
   batch in flight), and then the campaign process itself is SIGKILLed
   (a hard crash with a partial checkpoint on disk).
3. One result-cache record in the middle of a pack segment is
   overwritten in place — the corruption the integrity check must
   catch rather than serve, without losing the records after it.
4. The checkpoint's last record is cut mid-line — the torn tail a
   crash during an append can leave in the append-only record log.
5. The campaign is re-run with ``--resume``.  It must drop the torn
   record, replay exactly the complete ones, exit cleanly, and its
   coverage reports must be byte-identical to the reference.  The
   background the forked evaluator restores from is never read from
   disk: the resumed run builds it again.

A no-pool drill reruns the reference campaign with ``--workers 2``
under ``REPRO_MP_START=no-such-method``, so no process pool can be
built: the run must finish in-parent with byte-identical coverage
reports, and its event spool must hold exactly one ``fallback`` event
and no ``retry`` event.

A second drill covers the soak mode:

1. A reference soak runs uninterrupted for a fixed number of rounds and
   its journal is kept as the byte-exact target.
2. The same soak runs open-ended (no stop condition) with a state
   checkpoint.  Mid-stream one worker is SIGKILLed (the exec layer must
   absorb it), then the driver itself is SIGKILLed.
3. The journal's last record is truncated — the torn-tail shape a crash
   can leave, which also strands the checkpoint *ahead* of the journal
   (the reconciliation path: the journal must win).
4. The soak resumes to the reference round count.  The journal must be
   byte-identical to the uninterrupted reference.

A third drill covers stale-run detection in the live event stream:

1. A soak runs open-ended with ``--events`` and a short heartbeat.
2. ``repro-timber monitor --once --json`` must report the run as
   ``running`` and not stale while the driver is alive.
3. The driver is SIGKILLed — no ``run_end`` is ever written.
4. One heartbeat interval later the monitor must report ``stale``:
   the liveness contract a dashboard's "is it dead?" badge relies on.
   The killed spool must still read cleanly: no ``StreamCorrupt``,
   strictly increasing ``seq`` and no dropped events.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEME = "timber-ff"
FAULTS = 1000
CYCLES = 3000
CHUNK = 10
SEED = 99

#: Checkpoint flushes every 8 records; wait for at least one flush so
#: the kill provably lands mid-sweep with progress on disk.
MIN_CHECKPOINTED = 8
KILL_DEADLINE_S = 120.0


def _cli(workdir: pathlib.Path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "campaign",
        "--schemes", SCHEME, "--target", "pipeline",
        "--faults", str(FAULTS), "--cycles", str(CYCLES),
        "--chunk", str(CHUNK), "--seed", str(SEED),
        "--workers", "2", *extra,
    ]


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}"
                         if existing else src)
    return env


def _assert_batched_runner() -> None:
    """Preflight: the drill's config must take the lane-batched path.

    Checked in-process before any subprocess runs so an evaluator
    without a lane machine (scalar kernels, missing numpy, a policy
    the batch cannot model) fails the drill loudly instead of
    green-lighting a crash/resume test that never touched batched
    state.
    """
    from repro.campaign import CampaignConfig, fault_runner

    config = CampaignConfig(
        target="pipeline", scheme=SCHEME, num_faults=FAULTS,
        num_cycles=CYCLES, faults_per_task=CHUNK, seed=SEED)
    runner = fault_runner(config)
    assert runner.machine is not None, (
        "chaos drill config resolved to an evaluator without a lane "
        "machine")


def _no_pool_drill(workdir: pathlib.Path, env: dict,
                   reference: pathlib.Path) -> None:
    from repro.obs.stream import read_events

    spool = workdir / "no-pool-events.jsonl"
    out = workdir / "no-pool.json"
    print("[no-pool 1/1] reference campaign with no buildable pool")
    subprocess.run(
        _cli(workdir, "--no-cache", "--events", str(spool),
             "--out", str(out)),
        cwd=REPO_ROOT, env={**env, "REPRO_MP_START": "no-such-method"},
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    expected = json.loads(reference.read_text(encoding="utf-8"))
    got = json.loads(out.read_text(encoding="utf-8"))
    assert json.dumps(got["reports"], sort_keys=True) == \
        json.dumps(expected["reports"], sort_keys=True), (
            "in-parent campaign diverged from the reference:\n"
            f"reference: {expected['reports']}\n"
            f"in-parent: {got['reports']}")
    _header, events = read_events(spool)
    kinds = [event["type"] for event in events]
    assert kinds.count("fallback") == 1, kinds
    assert "retry" not in kinds, kinds
    print("      in-parent reports byte-identical; one fallback event")


#: Soak drill geometry: the reference runs SOAK_ROUNDS rounds; the
#: chaos run is killed once SOAK_KILL_AT rounds are journaled, leaving
#: plenty of headroom below the reference count.
SOAK_ROUNDS = 12
SOAK_KILL_AT = 3


def _soak_cli(journal: pathlib.Path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "soak",
        "--target", "pipeline", "--scheme", SCHEME,
        "--cycles", "1500", "--chunk", "10",
        "--faults-per-round", "60", "--magnitude-bins", "2",
        "--seed", str(SEED), "--workers", "2",
        "--journal", str(journal), "--quiet", *extra,
    ]


def _worker_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, minus multiprocessing bookkeeping."""
    workers = []
    task_dir = pathlib.Path(f"/proc/{pid}/task")
    try:
        tids = list(task_dir.iterdir())
    except OSError:
        return []
    for tid in tids:
        try:
            children = (tid / "children").read_text().split()
        except OSError:  # thread exited mid-scan
            continue
        workers.extend(int(child) for child in children)
    real = []
    for child in workers:
        try:
            cmdline = pathlib.Path(
                f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            real.append(child)
    return real


def _completed_records(checkpoint: pathlib.Path) -> int:
    """Distinct completed tasks in the checkpoint log (torn tail
    ignored, as ``--resume`` would)."""
    from repro.exec import read_checkpoint

    return len(read_checkpoint(checkpoint))


def _damage_pack_record(directory: pathlib.Path) -> str:
    """Overwrite bytes inside one pack record; return where.

    Picks the middle record of the largest segment, so the damaged
    record has intact records after it whenever the segment holds more
    than one, and damages the middle of that record, not its tail.
    """
    segments = sorted(directory.glob("pack-*.jsonl"),
                      key=lambda path: path.stat().st_size)
    assert segments, f"no pack segment under {directory}"
    segment = segments[-1]
    raw = segment.read_bytes()
    lines = raw.splitlines(keepends=True)
    victim = (len(lines) - 1) // 2
    start = sum(len(line) for line in lines[:victim])
    record = lines[victim]
    middle = start + len(record) // 2
    segment.write_bytes(raw[:middle] + b"#" * 8 + raw[middle + 8:])
    return f"{segment.name} record {victim + 1}/{len(lines)}"


def _journal_rounds(journal: pathlib.Path) -> int:
    """Complete round records currently on disk (header excluded)."""
    try:
        raw = journal.read_bytes()
    except OSError:
        return 0
    return max(0, len(raw.split(b"\n")[:-1]) - 1)


def _soak_drill(workdir: pathlib.Path, env: dict) -> None:
    reference = workdir / "soak-reference.jsonl"
    journal = workdir / "soak.jsonl"
    checkpoint = workdir / "soak-cp.json"

    print("[soak 1/4] reference soak (uninterrupted)")
    subprocess.run(
        _soak_cli(reference, "--rounds", str(SOAK_ROUNDS)),
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL)
    reference_bytes = reference.read_bytes()

    print("[soak 2/4] chaos soak: SIGKILL a worker, then the driver")
    proc = subprocess.Popen(
        _soak_cli(journal, "--checkpoint", str(checkpoint)),
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + KILL_DEADLINE_S
    worker_killed = False
    interrupted = False
    orphans: list[int] = []
    while time.monotonic() < deadline and proc.poll() is None:
        rounds = _journal_rounds(journal)
        if rounds >= 1 and not worker_killed:
            for worker in _worker_pids(proc.pid)[:1]:
                try:
                    os.kill(worker, signal.SIGKILL)
                    worker_killed = True
                    print(f"      killed worker {worker}")
                except OSError:
                    pass
        if rounds >= SOAK_KILL_AT:
            orphans = _worker_pids(proc.pid)
            proc.kill()
            interrupted = True
            print(f"      killed soak driver {proc.pid} after "
                  f"{rounds} journaled round(s)")
            break
        time.sleep(0.02)
    proc.wait()
    for orphan in orphans:
        try:
            os.kill(orphan, signal.SIGKILL)
        except OSError:
            pass
    assert interrupted, "soak never journaled enough rounds to kill"
    if not worker_killed:
        print("      WARNING: no soak worker was killed")
    survived = _journal_rounds(journal)
    assert survived >= 1, "no journaled soak progress survived"
    assert survived < SOAK_ROUNDS, \
        "soak outran the kill; raise SOAK_ROUNDS"

    print("[soak 3/4] truncating the journal's last record")
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:-1]))
    # The checkpoint may now cover more rounds than the journal holds
    # — resume must notice and let the journal win.

    print("[soak 4/4] resume and verify byte-identity")
    subprocess.run(
        _soak_cli(journal, "--checkpoint", str(checkpoint),
                  "--resume", "--rounds", str(SOAK_ROUNDS)),
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL)
    resumed_bytes = journal.read_bytes()
    assert resumed_bytes == reference_bytes, (
        "resumed soak journal diverged from the reference "
        f"({_journal_rounds(journal)} vs {SOAK_ROUNDS} rounds)")
    print("      resumed soak journal byte-identical to reference")


#: Stale-drill heartbeat: short, so the drill completes in seconds.
STALE_HEARTBEAT_S = 1.0


def _monitor_health(spool: pathlib.Path, env: dict) -> dict:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "monitor", str(spool),
         "--once", "--json"],
        cwd=REPO_ROOT, env=env, check=True, capture_output=True)
    return json.loads(result.stdout)


def _stale_drill(workdir: pathlib.Path, env: dict) -> None:
    from repro.obs.stream import EventStreamReader, read_events

    spool = workdir / "stale-events.jsonl"
    journal = workdir / "stale.jsonl"

    print("[stale 1/3] open-ended soak with a live event stream")
    proc = subprocess.Popen(
        _soak_cli(journal, "--events", str(spool),
                  "--heartbeat", str(STALE_HEARTBEAT_S)),
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + KILL_DEADLINE_S
        health = None
        while time.monotonic() < deadline and proc.poll() is None:
            if spool.exists():
                health = _monitor_health(spool, env)
                if health["status"] == "running":
                    break
            time.sleep(0.1)
        assert proc.poll() is None, "soak died before the drill"
        assert health is not None and health["status"] == "running", \
            f"monitor never saw the run go live (last: {health})"
        assert not health["stale"], health
        print(f"      monitor: status={health['status']} "
              f"heartbeat={health['heartbeat_s']}s")

        print("[stale 2/3] SIGKILL the driver (no run_end written)")
        orphans = _worker_pids(proc.pid)
        killed_at = time.monotonic()
        proc.kill()
        proc.wait()
        for orphan in orphans:
            try:
                os.kill(orphan, signal.SIGKILL)
            except OSError:
                pass

        print("[stale 3/3] one heartbeat later the run must be stale")
        time.sleep(max(0.0, killed_at + STALE_HEARTBEAT_S + 0.3
                       - time.monotonic()))
        health = _monitor_health(spool, env)
        assert health["stale"] and health["status"] == "stale", (
            "monitor did not flag the dead run as stale within one "
            f"heartbeat interval: {health['status']!r}, "
            f"age {health['last_event_age_s']}s")
        assert "stalled_heartbeat" in health["flags"], health["flags"]
        assert health["lifecycle"] == "running", health["lifecycle"]
        print(f"      monitor: status={health['status']} "
              f"(last event {health['last_event_age_s']:.2f}s ago)")
        _header, events = read_events(spool)  # raises StreamCorrupt
        seqs = [event["seq"] for event in events]
        assert seqs and all(a < b for a, b in zip(seqs, seqs[1:])), seqs
        reader = EventStreamReader(spool)
        reader.poll()
        assert reader.dropped == 0, f"{reader.dropped} dropped events"
        print(f"      killed spool: {len(events)} events, seq "
              f"1..{seqs[-1]}, none dropped")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main() -> int:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    env = _env()
    cache_dir = workdir / "cache"
    checkpoint_base = workdir / "cp.json"
    # The CLI derives one checkpoint file per scheme from the base path.
    checkpoint = workdir / f"cp-{SCHEME}.json"
    ref_out = workdir / "reference.json"
    resumed_out = workdir / "resumed.json"
    try:
        print("[0/5] preflight: campaign evaluator has a lane machine")
        _assert_batched_runner()

        print("[1/5] reference campaign (uninterrupted)")
        subprocess.run(
            _cli(workdir, "--no-cache", "--out", str(ref_out)),
            cwd=REPO_ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL)
        _no_pool_drill(workdir, env, ref_out)

        print("[2/5] chaos campaign: SIGKILL a worker, then the run")
        # Devnull stderr too: pool workers orphaned by the SIGKILL
        # below inherit it, and an inherited pipe end would wedge any
        # harness waiting for this script's output to hit EOF.
        proc = subprocess.Popen(
            _cli(workdir, "--cache-dir", str(cache_dir),
                 "--checkpoint", str(checkpoint_base)),
            cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + KILL_DEADLINE_S
        interrupted = False
        worker_killed = False
        orphans: list[int] = []
        while time.monotonic() < deadline and proc.poll() is None:
            if _completed_records(checkpoint) >= MIN_CHECKPOINTED:
                for _ in range(20):  # workers may be between tasks
                    for worker in _worker_pids(proc.pid)[:1]:
                        try:
                            os.kill(worker, signal.SIGKILL)
                            worker_killed = True
                            print(f"      killed worker {worker}")
                        except OSError:
                            pass
                    if worker_killed or proc.poll() is not None:
                        break
                    time.sleep(0.01)
                time.sleep(0.1)
                if proc.poll() is None:
                    # Workers get reparented to init by the SIGKILL and
                    # block forever on the dead pool's call queue (every
                    # fork worker holds a write end, so no reader ever
                    # sees EOF) — snapshot them first so we can reap.
                    orphans = _worker_pids(proc.pid)
                    proc.kill()
                    interrupted = True
                    print(f"      killed campaign process {proc.pid}")
                break
            time.sleep(0.01)
        proc.wait()
        for orphan in orphans:
            try:
                os.kill(orphan, signal.SIGKILL)
            except OSError:
                pass
        if not interrupted:
            print("      WARNING: campaign finished before the kill "
                  "landed; resume will be a full replay")
        if not worker_killed:
            print("      WARNING: no worker was killed")
        assert _completed_records(checkpoint) >= MIN_CHECKPOINTED, \
            "no checkpointed progress survived the crash"

        print("[3/5] corrupting one result-cache record mid-segment")
        print(f"      damaged {_damage_pack_record(cache_dir)}")

        print("[4/5] cutting the checkpoint's last record mid-line")
        raw = checkpoint.read_bytes()
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        checkpoint.write_bytes(
            raw[:last_start + (len(raw) - last_start) // 2])
        kept = _completed_records(checkpoint)
        print(f"      {kept} complete record(s) left before the torn one")

        print("[5/5] resume and verify")
        subprocess.run(
            _cli(workdir, "--cache-dir", str(cache_dir),
                 "--checkpoint", str(checkpoint_base), "--resume",
                 "--out", str(resumed_out)),
            cwd=REPO_ROOT, env=env, check=True, stdout=subprocess.DEVNULL)

        reference = json.loads(ref_out.read_text(encoding="utf-8"))
        resumed = json.loads(resumed_out.read_text(encoding="utf-8"))
        # The drill only proves mid-batch resilience if batching was
        # actually in play on both sides of the crash.
        assert reference["telemetry"]["batches"] >= 1, \
            reference["telemetry"]
        assert resumed["telemetry"]["batches"] >= 1, \
            resumed["telemetry"]
        assert json.dumps(resumed["reports"], sort_keys=True) == \
            json.dumps(reference["reports"], sort_keys=True), (
                "resumed campaign diverged from the reference:\n"
                f"reference: {reference['reports']}\n"
                f"resumed:   {resumed['reports']}")
        if interrupted:
            assert resumed["telemetry"]["resumed_tasks"] == kept > 0, \
                (kept, resumed["telemetry"])
            print(f"      {resumed['telemetry']['resumed_tasks']} "
                  "task(s) replayed from the checkpoint")

        _soak_drill(workdir, env)
        _stale_drill(workdir, env)
        print("chaos smoke PASSED: resumed results byte-identical, "
              "dead run detected as stale")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
