"""The soak round loop: allocate, draw, dispatch, estimate, journal.

One soak *round* is the unit of determinism and durability:

1. the sampler computes stratum weights from the estimator state after
   all previous rounds (pure function, logged to the journal);
2. the round's ``faults_per_round`` draws are allocated across strata
   (largest remainder, no RNG) as one draw *run* ``(stratum,
   counter_start, count, fault_id_start)`` per funded stratum, from
   per-stratum monotone counters;
3. the runs are cut into chunk tasks, in draw order, and go out over
   the exec layer (:class:`~repro.exec.runner.SweepRunner`: the warm
   pool, retry, timeout-watchdog and crash-quarantine machinery batch
   campaigns use);
4. classified outcomes update the estimator, and one journal record —
   weights, draws, per-stratum class counts, chained outcome digest —
   is appended and flushed; the round has then happened.  The journal
   is group-committed: it is ``fsync``\\ ed at *commit points*, when
   :data:`COMMIT_INTERVAL_S` has passed since the last one and on
   every loop exit (stop, drain or failure).  Each commit also saves
   the checkpoint hint, when one is kept, and emits one ``checkpoint``
   event.

Because outcomes are pure in the drawn specs and weights are pure in
the estimator, the entire stream is a pure function of (configuration,
number of rounds).  Crash safety follows: the journal is prefix-stable,
so resume = rebuild state from the complete journal records (optionally
fast-forwarded from an atomic checkpoint), truncate any torn tail, and
continue — byte-identical to a run that was never interrupted.  A kill
*inside* a round loses only that round's work, and a killed process
loses no flushed round; a power loss can cost the rounds since the last
commit, at most :data:`COMMIT_INTERVAL_S` of them.  Either way the lost
rounds are re-run identically.

Stop conditions (``max_faults``, ``max_runtime_s``,
``target_ci_width``, ``max_rounds``) are checked at round boundaries
and deliberately excluded from the run key: stopping earlier or later
never changes what any round contains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
import typing

import numpy as np

from repro import kernels, obs
from repro.campaign.engine import (
    CampaignConfig,
    chunk_payloads,
    fault_runner,
)
from repro.campaign.outcomes import SEVERITY_LADDER, OutcomeColumns
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.cache import _code_version, stable_key
from repro.exec.checkpoint import atomic_write_json
from repro.exec.runner import (
    SweepDrained,
    SweepRunner,
    SweepTask,
    TaskPayload,
    derive_seed,
    task_key,
)
from repro.exec.worker import WARM
from repro.soak.estimators import EscapeEstimator
from repro.soak.generator import (
    Stratum,
    build_strata,
    specs_for_draws,
)
from repro.soak.journal import (
    JournalCorrupt,
    SoakJournal,
    record_digest,
)
from repro.soak.sampler import AdaptiveSampler

#: Dotted task-function name (module-level, worker-importable).
SOAK_TASK = "repro.soak.driver:soak_chunk_task"

SOAK_CHECKPOINT_SCHEMA_VERSION = 1

#: Seconds between the loop's commit points (journal ``fsync``,
#: checkpoint hint, ``checkpoint`` event); every loop exit commits too.
#: A power loss can cost the rounds of this window, never more.
COMMIT_INTERVAL_S = 1.0

# Soak observability.  Round/fault counters and the CI-width gauge are
# semantic (pure functions of config and round count); wall-clock rates
# live under the ``_seconds`` suffix, excluded from determinism checks.
_OBS_ROUNDS = obs.REGISTRY.family("repro_soak_rounds_total").labels()
_OBS_FAULTS = obs.REGISTRY.family("repro_soak_faults_total")
_OBS_WIDEST_CI = obs.REGISTRY.family("repro_soak_widest_ci_width").labels()
_OBS_ROUND_SECONDS = obs.REGISTRY.family("repro_soak_round_seconds").labels()


@dataclasses.dataclass(frozen=True)
class SoakConfig:
    """Everything that defines a soak stream (stop conditions excluded).

    ``campaign`` supplies the simulation target, scheme, seed, cycle
    budget, and chunk size (``faults_per_task``); the soak fields shape
    the stratification and the adaptive loop.  All of it enters the run
    key — any change starts a new journal lineage.
    """

    campaign: CampaignConfig
    faults_per_round: int = 200
    magnitude_bins: int = 3
    min_weight: float | None = None
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.faults_per_round < 1:
            raise ConfigurationError("faults_per_round must be >= 1")
        if self.magnitude_bins < 1:
            raise ConfigurationError("magnitude_bins must be >= 1")

    def strata(self) -> list[Stratum]:
        return build_strata(self.campaign, self.magnitude_bins)

    def run_key(self) -> str:
        """Identity of the soak stream: sampling semantics + code.

        Excludes operational knobs (commit cadence, stop conditions)
        — they change pacing, never content.
        """
        payload = json.dumps({
            "campaign": self.campaign.to_params(),
            "faults_per_round": self.faults_per_round,
            "magnitude_bins": self.magnitude_bins,
            "min_weight": self.min_weight,
            "adaptive": self.adaptive,
            "code_version": _code_version(),
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_params(self) -> dict:
        return {
            "campaign": self.campaign.to_params(),
            "faults_per_round": self.faults_per_round,
            "magnitude_bins": self.magnitude_bins,
            "min_weight": self.min_weight,
            "adaptive": self.adaptive,
        }

    @classmethod
    def from_params(cls, params: typing.Mapping) -> "SoakConfig":
        fields = dict(params)
        fields["campaign"] = CampaignConfig.from_params(
            fields["campaign"])
        return cls(**fields)


class SoakCheckpoint:
    """Atomic snapshot of the soak loop state (resume fast path).

    The journal alone fully determines the state; the checkpoint just
    spares resume a long fold.  It is saved at the loop's commit points,
    right after the journal sync, so it never covers an unsynced round.
    It is validated against the journal on load (run key, record count,
    chained digest) and silently discarded on any mismatch — the
    journal is the source of truth.
    """

    def __init__(self, path) -> None:
        import pathlib

        self.path = pathlib.Path(path)

    def load(self, run_key: str) -> dict | None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema") != SOAK_CHECKPOINT_SCHEMA_VERSION:
            return None
        if data.get("run_key") != run_key:
            return None
        state = data.get("state")
        return state if isinstance(state, dict) else None

    def save(self, run_key: str, state: dict) -> None:
        atomic_write_json(self.path, {
            "schema": SOAK_CHECKPOINT_SCHEMA_VERSION,
            "run_key": run_key,
            "state": state,
        })


# ---------------------------------------------------------------------------
# Loop state: the journal-determined part of a soak run
# ---------------------------------------------------------------------------

def _zero_state(run_key: str,
                keys: typing.Sequence[str]) -> dict:
    return {
        "run_key": run_key,
        "round": 0,
        "seq": 0,
        "journal_records": 0,
        "digest": "",
        "counters": {key: 0 for key in keys},
        "estimator": {key: {} for key in keys},
    }


def _apply_record(state: dict, record: dict) -> None:
    """Fold one journal round record into ``state`` (with validation)."""
    if record.get("type") != "round":
        raise JournalCorrupt(
            f"unexpected record type {record.get('type')!r}")
    if record.get("round") != state["round"]:
        raise JournalCorrupt(
            f"journal round {record.get('round')} but state expects "
            f"{state['round']}")
    if record.get("seq_start") != state["seq"]:
        raise JournalCorrupt(
            f"round {record['round']}: seq_start "
            f"{record.get('seq_start')} but state expects "
            f"{state['seq']}")
    total = 0
    for key, counter_start, count in record["draws"]:
        if key not in state["counters"]:
            raise JournalCorrupt(
                f"round {record['round']}: unknown stratum {key!r}")
        if counter_start != state["counters"][key]:
            raise JournalCorrupt(
                f"round {record['round']}: stratum {key!r} counter "
                f"{counter_start} but state expects "
                f"{state['counters'][key]}")
        state["counters"][key] += int(count)
        total += int(count)
    state["seq"] += total
    for key, counts in record["counts"].items():
        row = state["estimator"].setdefault(key, {})
        for classification, count in counts.items():
            row[classification] = (row.get(classification, 0)
                                   + int(count))
    state["digest"] = record["digest"]
    state["round"] += 1
    state["journal_records"] += 1


def soak_state_from_journal(soak: SoakConfig,
                            records: typing.Sequence[dict],
                            *, base: dict | None = None) -> dict:
    """Rebuild (or fast-forward) loop state from journal records.

    With ``base`` (a checkpoint state), only the records past
    ``base["journal_records"]`` are folded — the resume fast path.
    """
    keys = [stratum.key for stratum in soak.strata()]
    state = (json.loads(json.dumps(base)) if base is not None
             else _zero_state(soak.run_key(), keys))
    for record in records[state["journal_records"]:]:
        _apply_record(state, record)
    return state


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def soak_chunks(params_list: typing.Sequence[dict]) -> list[TaskPayload]:
    """Batch form of :func:`soak_chunk_task` (``.batch``).

    Consecutive chunks of one configuration regenerate every draw run
    as one column block (:func:`specs_for_draws`, equal to a
    :func:`spec_for_draw` loop) and classify them all in one
    ``evaluate_chunk``; outcomes and work then split back per chunk,
    equal to mapping the task over the list.  The evaluator comes from
    the process's warm cache, so a soak run builds it once, not once
    per round: every fault restores its fork snapshot and installs its
    own overlay, so a reused evaluator classifies like a fresh one.
    """
    payloads: list[TaskPayload] = []
    for _, group in itertools.groupby(
            params_list,
            key=lambda params: (params["config"], params["strata"])):
        chunks = list(group)
        evaluator, strata = _run_context(chunks[0])
        config = evaluator.config
        sizes = [sum(run[2] for run in params["draws"])
                 for params in chunks]
        with obs.trace_span("soak.chunk", target=config.target,
                            scheme=config.scheme, draws=sum(sizes)):
            result = evaluator.evaluate_chunk(specs_for_draws(
                config, strata,
                [run for params in chunks for run in params["draws"]]))
        payloads.extend(chunk_payloads(result, sizes))
    return payloads


def _run_context(params: dict):
    """The campaign evaluator and the strata of a chunk's run, built
    once per process.

    The key holds the kernel mode too: it decides whether the
    evaluator gets a lane machine.
    """
    key = stable_key("soak-evaluator", params["config"], params["strata"],
                     kernels.kernel_mode())
    return WARM.get_or_build("evaluator", key, lambda: (
        fault_runner(CampaignConfig.from_params(params["config"])),
        {name: Stratum.from_params(name, stratum_params)
         for name, stratum_params in params["strata"].items()}))


def soak_chunk_task(params: dict) -> TaskPayload:
    """Sweep task: evaluate one chunk of stratified soak draws.

    ``params["draws"]`` holds draw runs ``[stratum, counter_start,
    count, fault_id_start]``; their specs (:func:`spec_for_draw`,
    vectorized) go through the batch campaign's ``evaluate_chunk``
    path, so soak outcomes are bit-comparable to campaign outcomes.
    The exec layer runs a dispatch batch of chunks through the batch
    form, :func:`soak_chunks`.
    """
    return soak_chunks([params])[0]


soak_chunk_task.batch = soak_chunks  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Round mechanics
# ---------------------------------------------------------------------------

def _numbered(draws: typing.Iterable[typing.Sequence],
              fault_id: int) -> list[list]:
    """Journal draw runs ``[stratum, counter_start, count]`` with each
    run's first fault id appended; ids run on from ``fault_id``."""
    runs = []
    for key, counter_start, count in draws:
        runs.append([key, int(counter_start), int(count), fault_id])
        fault_id += int(count)
    return runs


def _chunked(runs: typing.Sequence[list], size: int) -> list[list[list]]:
    """``runs`` cut into chunks of ``size`` draws, in draw order (the
    last chunk may be short); a run that straddles a cut splits."""
    chunks: list[list[list]] = []
    room = 0
    for key, counter, count, fault_id in runs:
        while count:
            if not room:
                chunks.append([])
                room = size
            take = min(count, room)
            chunks[-1].append([key, counter, take, fault_id])
            counter, fault_id, count, room = (
                counter + take, fault_id + take, count - take, room - take)
    return chunks


#: The per-fault fields the round digest commits to.
_DIGEST_FIELDS = ("fault_id", "kind", "site", "cycle", "magnitude_ps",
                  "classification", "worst_lateness_ps",
                  "max_borrowed_intervals")


def _round_tasks(config: CampaignConfig, shared: dict, round_index: int,
                 runs: typing.Sequence[list]) -> list[SweepTask]:
    """One round's chunk tasks: ``runs`` cut into chunks of
    ``faults_per_task`` draws.

    ``shared`` holds the chunk-task params every round shares — the
    config and strata params, computed once per run.
    """
    return [
        SweepTask(
            experiment=SOAK_TASK,
            params={**shared, "draws": chunk},
            index=index,
            seed=derive_seed(config.seed, SOAK_TASK, round_index, index),
            key=task_key(SOAK_TASK, {
                "target": config.target, "scheme": config.scheme,
                "round": round_index, "chunk": index,
            }),
        )
        for index, chunk in enumerate(_chunked(runs,
                                               config.faults_per_task))
    ]


def _run_round(runner: SweepRunner, tasks: typing.Sequence[SweepTask]
               ) -> OutcomeColumns:
    """Dispatch one round's chunk tasks; the outcome block in draw
    order.  A graceful drain raises :class:`~repro.exec.runner.
    SweepDrained` through: the caller must then *not* journal the
    partial round (its re-run after resume is identical anyway).
    """
    run = runner.run(tasks)
    for task_outcome in run.outcomes:
        if task_outcome.value is None:
            # A poisoned chunk cannot be skipped: dropping its draws
            # would fork the journal from the deterministic stream.
            raise ExecutionError(
                f"soak chunk {task_outcome.task.key} was quarantined "
                f"as poisoned; the stream cannot continue "
                f"deterministically")
    return OutcomeColumns.concat([task_outcome.value
                                  for task_outcome in run.outcomes])


def _round_tally(prev_digest: str, runs: typing.Sequence[list],
                 outcomes: OutcomeColumns,
                 ) -> tuple[dict[str, dict[str, int]], str]:
    """A round's per-stratum class counts and its chained digest.

    ``outcomes`` holds the draws of ``runs`` in order.  Each draw's
    (run, class) pair is one integer code, counted in one
    ``bincount``; strata and classes keep their order of first
    appearance.  The digest hashes the block's JSON rows.
    """
    width = len(SEVERITY_LADDER)
    codes = (np.repeat(np.arange(len(runs)) * width,
                       [run[2] for run in runs])
             + outcomes.classification).tolist()
    tally = np.bincount(codes).tolist() if codes else []
    counts: dict[str, dict[str, int]] = {}
    for code in dict.fromkeys(codes):
        run, classification = divmod(code, width)
        row = counts.setdefault(runs[run][0], {})
        name = SEVERITY_LADDER[classification]
        row[name] = row.get(name, 0) + tally[code]
    return counts, record_digest(prev_digest,
                                 outcomes.json_rows(_DIGEST_FIELDS))


def replay_round(soak: SoakConfig, record: dict,
                 prev_digest: str) -> dict:
    """Re-derive one journal record's outcomes in-process.

    Regenerates every draw from the record's draw runs as one column
    block (:func:`specs_for_draws`, the chunk task's path), classifies
    them as one chunk through the batch-campaign evaluator path, and
    recomputes the per-stratum counts and the chained digest.  Used by
    the property tests and the chaos drill to pin the replay contract:
    ``replay_round(...)["digest"] == record["digest"]`` for every
    record of a valid journal.
    """
    config = soak.campaign
    strata = {stratum.key: stratum for stratum in soak.strata()}
    runs = _numbered(record["draws"], int(record["seq_start"]))
    outcomes, _work = fault_runner(config).evaluate_chunk(
        specs_for_draws(config, strata, runs))
    counts, digest = _round_tally(prev_digest, runs, outcomes)
    return {"counts": counts, "digest": digest, "outcomes": outcomes}


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SoakResult:
    """Where a soak run stopped and what it measured."""

    config: SoakConfig
    rounds: int
    total_faults: int
    stop_reason: str
    drained: bool
    overall: dict
    widest: dict
    per_stratum: list[dict]
    wall_time_s: float
    faults_evaluated: float
    summary: dict

    @property
    def faults_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.faults_evaluated / self.wall_time_s


def _stop_reason(soak: SoakConfig, state: dict,
                 estimator: EscapeEstimator, started: float, *,
                 max_faults: int | None, max_runtime_s: float | None,
                 target_ci_width: float | None,
                 max_rounds: int | None) -> str | None:
    if max_rounds is not None and state["round"] >= max_rounds:
        return "max_rounds"
    if (max_faults is not None
            and estimator.total_faults() >= max_faults):
        return "max_faults"
    if (target_ci_width is not None
            and estimator.widest().ci_width <= target_ci_width):
        return "target_ci_width"
    if (max_runtime_s is not None
            and time.monotonic() - started >= max_runtime_s):
        return "max_runtime"
    return None


def _commit(journal: SoakJournal, checkpoint: SoakCheckpoint | None,
            publisher: typing.Any, state: dict,
            estimator: EscapeEstimator) -> None:
    """One commit point: sync the journal, save the checkpoint hint
    (when one is kept), and emit one ``checkpoint`` event."""
    journal.sync()
    path = journal.path
    if checkpoint is not None:
        state["estimator"] = estimator.snapshot()
        checkpoint.save(state["run_key"], state)
        path = checkpoint.path
    if publisher is not None:
        publisher.checkpoint(path=str(path), round=state["round"])


def run_soak(
    soak: SoakConfig,
    *,
    journal_path,
    checkpoint_path=None,
    runner: SweepRunner | None = None,
    resume: bool = False,
    max_faults: int | None = None,
    max_runtime_s: float | None = None,
    target_ci_width: float | None = None,
    max_rounds: int | None = None,
    status: typing.Callable[[str], None] | None = None,
    publisher: typing.Any = None,
) -> SoakResult:
    """Run (or resume) a soak stream until a stop condition fires.

    At least one of ``max_faults`` / ``max_runtime_s`` /
    ``target_ci_width`` / ``max_rounds`` must be given — a soak with no
    stop condition only ends on a signal, which is almost never what a
    script wants (the CLI allows it explicitly for true open-ended
    soaks).  ``status`` receives a one-line progress string after every
    round.  ``publisher`` (an opened
    :class:`~repro.obs.stream.EventPublisher`) receives one ``round``
    event per journaled round and a ``checkpoint`` event per commit
    point — the live feed ``repro-timber monitor`` folds; its
    ``run_start``/``run_end`` framing stays with the caller, who owns
    the publisher's lifecycle.
    """
    strata = soak.strata()
    keys = [stratum.key for stratum in strata]
    run_key = soak.run_key()
    journal = SoakJournal(journal_path)
    checkpoint = (SoakCheckpoint(checkpoint_path)
                  if checkpoint_path is not None else None)

    if resume:
        header, records = journal.open_resume()
        if header is None:
            journal.open_fresh({"run_key": run_key,
                                "soak": soak.to_params(),
                                "strata": keys})
            state = _zero_state(run_key, keys)
        else:
            if header.get("run_key") != run_key:
                journal.close()
                raise ConfigurationError(
                    f"journal {journal.path} belongs to a different "
                    f"soak run (config or code version changed)")
            base = None
            if checkpoint is not None:
                base = checkpoint.load(run_key)
                if base is not None:
                    covered = base.get("journal_records", 0)
                    if (covered > len(records)
                            or (covered > 0 and records[covered - 1]
                                ["digest"] != base.get("digest"))):
                        # Checkpoint ahead of (or diverged from) the
                        # journal — e.g. the journal tail was torn
                        # after the checkpoint landed.  The journal
                        # wins; rebuild from scratch.
                        base = None
            state = soak_state_from_journal(soak, records, base=base)
    else:
        journal.open_fresh({"run_key": run_key,
                            "soak": soak.to_params(),
                            "strata": keys})
        state = _zero_state(run_key, keys)

    estimator = EscapeEstimator.restore(keys, state["estimator"])
    sampler = AdaptiveSampler(keys, min_weight=soak.min_weight,
                              adaptive=soak.adaptive)
    owns_runner = runner is None
    runner = runner or SweepRunner()
    shared = {"config": soak.campaign.to_params(),
              "strata": {stratum.key: stratum.to_params()
                         for stratum in strata}}
    started = last_commit = time.monotonic()
    committed = state["round"]
    evaluated = 0
    drained = False
    stop = None

    try:
        while True:
            stop = _stop_reason(
                soak, state, estimator, started,
                max_faults=max_faults, max_runtime_s=max_runtime_s,
                target_ci_width=target_ci_width, max_rounds=max_rounds)
            if stop is not None:
                break
            if runner.drain_requested:
                drained = True
                stop = "drained"
                break
            round_started = time.perf_counter()
            weights, alloc = sampler.allocate(estimator,
                                              soak.faults_per_round)
            draws = [[stratum.key, state["counters"][stratum.key],
                      alloc[stratum.key]]
                     for stratum in strata if alloc[stratum.key] > 0]
            runs = _numbered(draws, state["seq"])
            try:
                outcomes = _run_round(runner, _round_tasks(
                    soak.campaign, shared, state["round"], runs))
            except SweepDrained:
                # Partial round: journal untouched (prefix-stable);
                # the identical round re-runs after resume.
                drained = True
                stop = "drained"
                break
            counts, digest = _round_tally(state["digest"], runs, outcomes)
            record = {
                "type": "round",
                "round": state["round"],
                "seq_start": state["seq"],
                "weights": weights,
                "draws": draws,
                "counts": counts,
                "digest": digest,
            }
            journal.append(record)
            _apply_record(state, record)
            for key, row in counts.items():
                estimator.update_counts(key, row)
            evaluated += len(outcomes)
            # The estimator keeps one stats pass until its next update:
            # the widest stratum, the overall estimate, the event, the
            # status line and the next round's sampler weights all read
            # it.
            if obs.REGISTRY.enabled:
                _OBS_ROUNDS.inc()
                for key, row in counts.items():
                    _OBS_FAULTS.labels(stratum=key).inc(
                        sum(row.values()))
                _OBS_WIDEST_CI.set(estimator.widest().ci_width)
                _OBS_ROUND_SECONDS.observe(
                    time.perf_counter() - round_started)
            now = time.monotonic()
            if now - last_commit >= COMMIT_INTERVAL_S:
                _commit(journal, checkpoint, publisher, state, estimator)
                committed, last_commit = state["round"], now
            if publisher is None and status is None:
                continue
            widest = estimator.widest()
            overall = estimator.overall()
            if publisher is not None:
                publisher.emit(
                    "round",
                    round=state["round"],
                    faults=overall["n"],
                    escape_rate=overall["escape_rate"],
                    ci_low=overall["ci_low"],
                    ci_high=overall["ci_high"],
                    widest_stratum=widest.key,
                    widest_ci_width=widest.ci_width,
                    per_stratum=[
                        {"stratum": stats.key, "samples": stats.n,
                         "width": stats.ci_width}
                        for stats in estimator.all_stats()],
                )
            if status is not None:
                elapsed = time.monotonic() - started
                rate = evaluated / elapsed if elapsed > 0 else 0.0
                status(
                    f"soak round={state['round']} "
                    f"faults={overall['n']} "
                    f"escape={overall['escape_rate']:.4f} "
                    f"widest={widest.key}:{widest.ci_width:.4f} "
                    f"{rate:.1f} f/s")
    finally:
        # Whatever ends the loop — stop rule, drain, or a failure —
        # the durable state must reflect every journaled round.
        if state["round"] > committed:
            _commit(journal, checkpoint, publisher, state, estimator)
        journal.close()
        if owns_runner:
            runner.close()

    wall = time.monotonic() - started
    overall = estimator.overall()
    widest_stats = estimator.widest()
    return SoakResult(
        config=soak,
        rounds=state["round"],
        total_faults=estimator.total_faults(),
        stop_reason=stop or "unknown",
        drained=drained,
        overall=overall,
        widest={"stratum": widest_stats.key,
                "ci_width": widest_stats.ci_width,
                "ci_low": widest_stats.ci_low,
                "ci_high": widest_stats.ci_high,
                "n": widest_stats.n},
        per_stratum=[
            {"stratum": stats.key, "n": stats.n,
             "escaped": stats.escaped,
             "escape_rate": stats.escape_rate,
             "ci_low": stats.ci_low, "ci_high": stats.ci_high,
             "ci_width": stats.ci_width,
             "counts": stats.counts}
            for stats in estimator.all_stats()
        ],
        wall_time_s=wall,
        faults_evaluated=evaluated,
        summary=(runner.last_run.summary
                 if runner.last_run is not None else {}),
    )
