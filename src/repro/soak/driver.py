"""The soak round loop: allocate, draw, dispatch, estimate, journal.

One soak *round* is the unit of determinism and durability:

1. the sampler computes stratum weights from the estimator state after
   all previous rounds (pure function, logged to the journal);
2. the round's ``faults_per_round`` draws are allocated across strata
   (largest remainder, no RNG) and minted as ``(stratum, counter,
   fault_id)`` descriptors from per-stratum monotone counters;
3. descriptors are cut into chunk tasks, in draw order, and go out
   over the exec layer (:class:`~repro.exec.runner.SweepRunner` —
   the same warm pool, retry, timeout-watchdog, and crash-quarantine
   machinery batch campaigns use; workers share the campaign's
   background trajectories because
   :meth:`~repro.campaign.engine.CampaignConfig.background_params`
   excludes fault parameters);
4. classified outcomes update the estimator, and one journal record —
   weights, draws, per-stratum class counts, chained outcome digest —
   is fsync'd before the round is considered to have happened.

Because outcomes are pure in the drawn specs and weights are pure in
the estimator, the entire stream is a pure function of (configuration,
number of rounds).  Crash safety follows: the journal is prefix-stable,
so resume = rebuild state from the complete journal records (optionally
fast-forwarded from an atomic checkpoint), truncate any torn tail, and
continue — byte-identical to a run that was never interrupted.  A kill
*inside* a round loses only that round's work; it is re-run identically.

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

from repro import obs
from repro.campaign.engine import (
    CampaignConfig,
    chunk_payloads,
    fault_runner,
)
from repro.campaign.outcomes import FaultOutcome
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.cache import _code_version
from repro.exec.checkpoint import atomic_write_json
from repro.exec.runner import (
    SweepDrained,
    SweepRunner,
    SweepTask,
    TaskPayload,
    derive_seed,
    task_key,
)
from repro.soak.estimators import EscapeEstimator
from repro.soak.generator import (
    Stratum,
    build_strata,
    spec_for_draw,
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

# Soak observability.  Round/fault counters and the CI-width gauge are
# semantic (pure functions of config and round count); wall-clock rates
# live under the ``_seconds`` suffix, excluded from determinism checks.
_OBS_ROUNDS = obs.REGISTRY.counter(
    "repro_soak_rounds_total", "Completed soak rounds").labels()
_OBS_FAULTS = obs.REGISTRY.counter(
    "repro_soak_faults_total",
    "Soak faults evaluated, by stratum",
    labelnames=("stratum",))
_OBS_WIDEST_CI = obs.REGISTRY.gauge(
    "repro_soak_widest_ci_width",
    "Widest per-stratum escape-rate Wilson CI width").labels()
_OBS_ROUND_SECONDS = obs.REGISTRY.histogram(
    "repro_soak_round_seconds",
    "Wall time per soak round (draw + dispatch + update + journal)",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
             10.0, 30.0)).labels()


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
    checkpoint_every_rounds: int = 1

    def __post_init__(self) -> None:
        if self.faults_per_round < 1:
            raise ConfigurationError("faults_per_round must be >= 1")
        if self.magnitude_bins < 1:
            raise ConfigurationError("magnitude_bins must be >= 1")
        if self.checkpoint_every_rounds < 1:
            raise ConfigurationError(
                "checkpoint_every_rounds must be >= 1")

    def strata(self) -> list[Stratum]:
        return build_strata(self.campaign, self.magnitude_bins)

    def run_key(self) -> str:
        """Identity of the soak stream: sampling semantics + code.

        Excludes operational knobs (checkpoint cadence, stop
        conditions) — they change pacing, never content.
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
            "checkpoint_every_rounds": self.checkpoint_every_rounds,
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
    spares resume a long fold.  It is validated against the journal on
    load (run key, record count, chained digest) and silently discarded
    on any mismatch — the journal is the source of truth.
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

    Consecutive chunks of one configuration parse it once, regenerate
    every draw as one column block (:func:`specs_for_draws`, equal to a
    :func:`spec_for_draw` loop), and classify them all in one
    ``evaluate_chunk`` of one evaluator; outcomes and work then split
    back per chunk, equal to mapping the task over the list.
    """
    payloads: list[TaskPayload] = []
    for _, group in itertools.groupby(
            params_list,
            key=lambda params: (params["config"], params["strata"])):
        run = list(group)
        config = CampaignConfig.from_params(run[0]["config"])
        strata = {key: Stratum.from_params(key, stratum_params)
                  for key, stratum_params in run[0]["strata"].items()}
        draws = [draw for params in run for draw in params["draws"]]
        runner = fault_runner(config)
        with obs.trace_span("soak.chunk", target=config.target,
                            scheme=config.scheme, draws=len(draws)):
            result = runner.evaluate_chunk(
                specs_for_draws(config, strata, draws))
        payloads.extend(chunk_payloads(
            result, [len(params["draws"]) for params in run]))
    return payloads


def soak_chunk_task(params: dict) -> TaskPayload:
    """Sweep task: evaluate one chunk of stratified soak draws.

    Regenerates each draw's spec (:func:`spec_for_draw`, vectorized)
    and classifies the chunk through the campaign evaluator's
    ``evaluate_chunk`` — the identical (lane-batched, when enabled)
    path a batch campaign chunk takes, which is what makes soak
    outcomes bit-comparable to campaign outcomes.  Outcomes come back
    scattered to draw order.  The exec layer runs a dispatch batch of
    chunks through the batch form, :func:`soak_chunks`.
    """
    return soak_chunks([params])[0]


soak_chunk_task.batch = soak_chunks  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Round mechanics
# ---------------------------------------------------------------------------

def _round_draws(strata: typing.Sequence[Stratum],
                 alloc: typing.Mapping[str, int],
                 counters: typing.Mapping[str, int],
                 seq_start: int) -> typing.Iterator[tuple[str, int, int]]:
    """The round's draw descriptors, in canonical (strata) order."""
    fault_id = seq_start
    for stratum in strata:
        base = counters[stratum.key]
        for offset in range(alloc[stratum.key]):
            yield stratum.key, base + offset, fault_id
            fault_id += 1


def _outcome_digest_payload(outcome: FaultOutcome) -> list:
    """The per-fault fields the round digest commits to."""
    return [
        outcome.fault_id, outcome.kind, outcome.site, outcome.cycle,
        outcome.magnitude_ps, outcome.classification,
        outcome.worst_lateness_ps, outcome.max_borrowed_intervals,
    ]


def _run_round(soak: SoakConfig, runner: SweepRunner,
               strata: typing.Sequence[Stratum], state: dict,
               alloc: typing.Mapping[str, int],
               ) -> tuple[list[tuple[str, FaultOutcome]], int]:
    """Dispatch one round's draws; returns (keyed outcomes, work units).

    Raises :class:`~repro.exec.runner.SweepDrained` through from the
    exec layer when a graceful drain interrupts the round — the caller
    must then *not* journal it (a partial round is not replayable; the
    re-run after resume is identical anyway).
    """
    config = soak.campaign
    draws = list(_round_draws(strata, alloc, state["counters"],
                              state["seq"]))
    size = config.faults_per_task
    chunks = [draws[start:start + size]
              for start in range(0, len(draws), size)]
    config_params = config.to_params()
    strata_params = {stratum.key: stratum.to_params()
                     for stratum in strata}
    tasks = [
        SweepTask(
            experiment=SOAK_TASK,
            params={"config": config_params, "strata": strata_params,
                    "draws": [list(draw) for draw in chunk]},
            index=index,
            seed=derive_seed(config.seed, SOAK_TASK, state["round"],
                             index),
            key=task_key(SOAK_TASK, {
                "target": config.target, "scheme": config.scheme,
                "round": state["round"], "chunk": index,
            }),
        )
        for index, chunk in enumerate(chunks)
    ]
    run = runner.run(tasks)
    keyed: list[tuple[str, FaultOutcome]] = []
    work = 0
    for chunk, task_outcome in zip(chunks, run.outcomes):
        if task_outcome.value is None:
            # A poisoned chunk cannot be skipped: dropping its draws
            # would fork the journal from the deterministic stream.
            raise ExecutionError(
                f"soak chunk {task_outcome.task.key} was quarantined "
                f"as poisoned; the stream cannot continue "
                f"deterministically")
        work += task_outcome.events_processed
        for (key, _counter, _fault_id), outcome in zip(
                chunk, task_outcome.value):
            keyed.append((key, outcome))
    return keyed, work


def replay_round(soak: SoakConfig, record: dict,
                 prev_digest: str) -> dict:
    """Re-derive one journal record's outcomes in-process.

    Regenerates every draw from the record's descriptors, classifies
    them as one chunk through the batch-campaign evaluator path, and
    recomputes the per-stratum counts and the chained digest.  Used by
    the property tests and the chaos drill to pin the replay contract:
    ``replay_round(...)["digest"] == record["digest"]`` for every
    record of a valid journal.
    """
    config = soak.campaign
    strata = {stratum.key: stratum for stratum in soak.strata()}
    seq = int(record["seq_start"])
    keys: list[str] = []
    specs = []
    for key, counter_start, count in record["draws"]:
        for offset in range(int(count)):
            specs.append(spec_for_draw(config, strata[key],
                                       int(counter_start) + offset,
                                       seq + len(specs)))
            keys.append(key)
    outcomes, _work = fault_runner(config).evaluate_chunk(specs)
    counts: dict[str, dict[str, int]] = {}
    for key, outcome in zip(keys, outcomes):
        row = counts.setdefault(key, {})
        row[outcome.classification] = row.get(
            outcome.classification, 0) + 1
    digest = record_digest(prev_digest, [
        _outcome_digest_payload(outcome) for outcome in outcomes])
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
    event per journaled round and a ``checkpoint`` event per durable
    checkpoint — the live feed ``repro-timber monitor`` folds; its
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
    started = time.monotonic()
    start_round = state["round"]
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
            try:
                keyed, _work = _run_round(soak, runner, strata, state,
                                          alloc)
            except SweepDrained:
                # Partial round: journal untouched (prefix-stable);
                # the identical round re-runs after resume.
                drained = True
                stop = "drained"
                break
            counts: dict[str, dict[str, int]] = {}
            for key, outcome in keyed:
                row = counts.setdefault(key, {})
                row[outcome.classification] = row.get(
                    outcome.classification, 0) + 1
            digest = record_digest(state["digest"], [
                _outcome_digest_payload(outcome)
                for _key, outcome in keyed])
            record = {
                "type": "round",
                "round": state["round"],
                "seq_start": state["seq"],
                "weights": weights,
                "draws": [[stratum.key, state["counters"][stratum.key],
                           alloc[stratum.key]]
                          for stratum in strata
                          if alloc[stratum.key] > 0],
                "counts": counts,
                "digest": digest,
            }
            journal.append(record)
            _apply_record(state, record)
            for key, row in counts.items():
                estimator.update_counts(key, row)
            evaluated += len(keyed)
            widest = estimator.widest()
            if obs.REGISTRY.enabled:
                _OBS_ROUNDS.inc()
                for key, row in counts.items():
                    _OBS_FAULTS.labels(stratum=key).inc(
                        sum(row.values()))
                _OBS_WIDEST_CI.set(widest.ci_width)
                _OBS_ROUND_SECONDS.observe(
                    time.perf_counter() - round_started)
            if (checkpoint is not None
                    and state["round"] % soak.checkpoint_every_rounds
                    == 0):
                state["estimator"] = estimator.snapshot()
                checkpoint.save(run_key, state)
                if publisher is not None:
                    publisher.checkpoint(path=str(checkpoint.path),
                                         round=state["round"])
            if publisher is not None:
                overall = estimator.overall()
                publisher.emit(
                    "round",
                    round=state["round"],
                    faults=estimator.total_faults(),
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
                overall = estimator.overall()
                status(
                    f"soak round={state['round']} "
                    f"faults={estimator.total_faults()} "
                    f"escape={overall['escape_rate']:.4f} "
                    f"widest={widest.key}:{widest.ci_width:.4f} "
                    f"{rate:.1f} f/s")
    finally:
        # Whatever ends the loop — stop rule, drain, or a failure —
        # the durable state must reflect every journaled round.
        if checkpoint is not None and state["round"] > start_round:
            state["estimator"] = estimator.snapshot()
            checkpoint.save(run_key, state)
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
