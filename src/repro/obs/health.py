"""Run health: a pure fold from an event prefix to a ``RunHealth``.

``HealthFold.apply`` consumes events in spool order (header included)
and ``health()`` projects the accumulated state into one JSON-able
:class:`RunHealth` model.  The fold is deliberately *pure*: it never
reads the clock on its own — staleness is judged against a ``now``
passed by the caller — so the same event prefix always folds to the
same health, whether it is fed live by the CLI's in-process listener or
re-read from disk by ``repro-timber monitor``.  That sharing is the
satellite guarantee: CLI progress lines and the monitor render the same
fold, so they cannot disagree.

Derived signals
---------------
* **Throughput** — EMA over per-``progress`` (or per-``round``, for
  soak) instantaneous rates on the writer's monotonic clock; the peak
  EMA is retained so collapse is detectable.
* **Fault throughput** — campaign/soak ``metrics`` events carry
  snapshot deltas of ``repro_campaign_outcomes_total``; summing them
  counts classified faults, and dividing by the writer's monotonic
  elapsed time yields ``faults_per_second`` — campaign speed in the
  unit the benches gate on, independent of task sizing.
* **ETA** — remaining units over the throughput EMA, when a total is
  known.
* **Staleness** — the writer heartbeats at least every
  ``heartbeat_s/2 * 1.5`` seconds while alive, so a wall-clock gap
  greater than one full ``heartbeat_s`` means the writer died without
  a ``run_end`` — the run is reported ``stale``.

Anomaly flags (recomputed at projection time, never stored):

* ``stalled_heartbeat`` — the staleness rule above;
* ``retry_storm`` — retries exceed half the executed-task count (min
  10 retries), the signature of a flapping worker pool;
* ``throughput_collapse`` — the throughput EMA fell below a quarter of
  its peak after at least five rate samples.
"""

from __future__ import annotations

import dataclasses
import typing

HEALTH_SCHEMA_VERSION = 2

#: Counter family whose snapshot deltas (in ``metrics`` events) count
#: classified faults — the source of ``faults_per_second``.
_FAULT_OUTCOME_FAMILY = "repro_campaign_outcomes_total"

#: EMA smoothing for instantaneous rate samples.
_EMA_ALPHA = 0.3

#: ``throughput_collapse`` fires below this fraction of the peak EMA.
_COLLAPSE_FRACTION = 0.25

#: ... after at least this many rate samples (warmup guard).
_COLLAPSE_MIN_SAMPLES = 5

#: ``retry_storm`` needs at least this many retries ...
_RETRY_STORM_MIN = 10

#: ... and more than this ratio of retries to executed tasks.
_RETRY_STORM_RATIO = 0.5


@dataclasses.dataclass
class RunHealth:
    """Point-in-time health of one run, folded from its event prefix."""

    run_id: str | None = None
    kind: str = "run"
    #: Raw lifecycle from events: pending/running/draining/done/
    #: drained/error.
    lifecycle: str = "pending"
    #: Lifecycle with staleness applied — what UIs should show.
    status: str = "pending"
    stale: bool = False
    flags: tuple[str, ...] = ()
    heartbeat_s: float | None = None
    started_wall: float | None = None
    last_event_wall: float | None = None
    last_event_type: str | None = None
    last_event_age_s: float | None = None
    last_seq: int = 0
    phase: str | None = None
    unit: str = "tasks"
    total: int | None = None
    done: int = 0
    executed: int = 0
    cached: int = 0
    resumed: int = 0
    poisoned: int = 0
    retries: int = 0
    crashes: int = 0
    fallbacks: int = 0
    batches: int = 0
    checkpoints: int = 0
    events_processed: int = 0
    workers: int = 0
    busy_s: float = 0.0
    elapsed_s: float = 0.0
    utilization: float | None = None
    cache_hit_rate: float | None = None
    throughput: float | None = None
    throughput_peak: float | None = None
    eta_s: float | None = None
    faults_classified: int = 0
    faults_per_second: float | None = None
    #: Soak-only block (``None`` for sweep/campaign runs).
    soak: dict | None = None

    def to_json(self) -> dict:
        """Schema-stable machine-readable projection.

        Key set and meaning are pinned by ``scripts/obs_smoke.py``;
        bump ``schema`` when changing either.
        """
        body = dataclasses.asdict(self)
        body["flags"] = list(self.flags)
        return {"schema": HEALTH_SCHEMA_VERSION, **body}


class HealthFold:
    """Incremental fold of an event stream into run health."""

    def __init__(self, *, stale_after_s: float | None = None) -> None:
        #: Override for the staleness threshold (defaults to the
        #: header's ``heartbeat_s``).
        self.stale_after_s = stale_after_s
        self._run_id: str | None = None
        self._kind = "run"
        self._heartbeat_s: float | None = None
        self._lifecycle = "pending"
        self._end_status: str | None = None
        self._started_wall: float | None = None
        self._started_mono: int | None = None
        self._last_wall: float | None = None
        self._last_mono: int | None = None
        self._last_type: str | None = None
        self._last_seq = 0
        self._phase: str | None = None
        self._unit = "tasks"
        self._total: int | None = None
        self._phase_totals = 0
        self._counts: dict[str, int] = {}
        self._busy_s = 0.0
        self._workers = 0
        # Rate estimation: (units, mono_ns) of the previous sample.
        self._rate_prev: tuple[int, int] | None = None
        self._ema: float | None = None
        self._ema_peak: float | None = None
        self._rate_samples = 0
        self._uses_rounds = False
        self._soak: dict | None = None
        self._faults_classified = 0

    # -- folding -----------------------------------------------------------
    def apply(self, event: dict) -> None:
        etype = event.get("type")
        if etype == "header":
            self._run_id = event.get("run_id")
            self._kind = event.get("kind", "run")
            self._heartbeat_s = event.get("heartbeat_s")
            self._started_wall = event.get("wall")
            self._started_mono = event.get("mono_ns")
            return
        self._last_wall = event.get("wall", self._last_wall)
        self._last_mono = event.get("mono_ns", self._last_mono)
        self._last_type = etype
        seq = event.get("seq")
        if isinstance(seq, int):
            self._last_seq = max(self._last_seq, seq)
        if etype == "run_start":
            self._lifecycle = "running"
            self._kind = event.get("kind", self._kind)
            self._unit = event.get("unit", self._unit)
            if event.get("total") is not None:
                self._total = event["total"]
            if self._started_wall is None:
                self._started_wall = event.get("wall")
            if self._started_mono is None:
                self._started_mono = event.get("mono_ns")
        elif etype == "phase_start":
            self._phase = event.get("phase")
            self._workers = event.get("workers", self._workers)
            if event.get("total") is not None:
                self._phase_totals += event["total"]
        elif etype == "progress":
            for key in ("done", "executed", "cached", "resumed",
                        "poisoned", "retries", "crashes", "fallbacks",
                        "batches", "checkpoints", "events_processed"):
                if key in event:
                    # All counters are monotone and cumulative; max
                    # keeps an immediate retry/crash event from being
                    # rolled back by a progress snapshot taken before
                    # it.
                    self._counts[key] = max(self._counts.get(key, 0),
                                            event[key])
            self._busy_s = event.get("busy_s", self._busy_s)
            self._workers = event.get("workers", self._workers)
            if event.get("phase") is not None:
                self._phase = event["phase"]
            if not self._uses_rounds:
                self._rate_sample(self._counts.get("done", 0),
                                  event.get("mono_ns"))
        elif etype == "round":
            # Soak progress: faults, not runner tasks, are the unit.
            if not self._uses_rounds:
                self._uses_rounds = True
                self._unit = "faults"
                self._rate_prev = None  # restart rate estimation
                self._rate_samples = 0
                self._ema = self._ema_peak = None
            self._soak = {
                "rounds": event.get("round"),
                "faults": event.get("faults"),
                "escape_rate": event.get("escape_rate"),
                "ci_low": event.get("ci_low"),
                "ci_high": event.get("ci_high"),
                "widest_stratum": event.get("widest_stratum"),
                "widest_ci_width": event.get("widest_ci_width"),
                "per_stratum": event.get("per_stratum"),
            }
            if event.get("faults") is not None:
                self._rate_sample(event["faults"], event.get("mono_ns"))
        elif etype in ("retry", "crash", "quarantine", "fallback"):
            key = {"retry": "retries", "crash": "crashes",
                   "quarantine": "poisoned",
                   "fallback": "fallbacks"}[etype]
            total = event.get("total")
            if total is not None:
                self._counts[key] = max(self._counts.get(key, 0), total)
            else:  # pragma: no cover - defensive
                self._counts[key] = self._counts.get(key, 0) + 1
        elif etype == "metrics":
            # Metrics events ship snapshot *deltas*; each outcome
            # counter increment is one classified fault, whatever the
            # target/scheme/classification labels say.
            record = (event.get("delta") or {}).get(
                _FAULT_OUTCOME_FAMILY)
            if record:
                self._faults_classified += sum(
                    int(entry.get("value", 0))
                    for entry in record.get("series", ()))
        elif etype == "checkpoint":
            if event.get("total") is not None:
                self._counts["checkpoints"] = event["total"]
        elif etype == "drain":
            if self._lifecycle in ("pending", "running"):
                self._lifecycle = "draining"
        elif etype == "run_end":
            status = event.get("status", "ok")
            self._end_status = status
            self._lifecycle = {"ok": "done"}.get(status, status)
        # heartbeat / phase_end only refresh last-event state.

    def apply_all(self, events: typing.Iterable[dict]) -> "HealthFold":
        for event in events:
            self.apply(event)
        return self

    def _rate_sample(self, units: int, mono_ns: int | None) -> None:
        if mono_ns is None:
            return
        prev = self._rate_prev
        self._rate_prev = (units, mono_ns)
        if prev is None:
            return
        d_units = units - prev[0]
        d_s = (mono_ns - prev[1]) / 1e9
        if d_units <= 0 or d_s <= 0:
            return
        inst = d_units / d_s
        self._ema = (inst if self._ema is None
                     else _EMA_ALPHA * inst
                     + (1.0 - _EMA_ALPHA) * self._ema)
        self._ema_peak = max(self._ema_peak or 0.0, self._ema)
        self._rate_samples += 1

    # -- projection --------------------------------------------------------
    def health(self, *, now_wall: float | None = None) -> RunHealth:
        """Project current state; ``now_wall`` drives staleness.

        Passing ``now_wall=None`` skips staleness entirely (useful for
        deterministic tests over finished streams).
        """
        counts = self._counts
        done = counts.get("done", 0)
        executed = counts.get("executed", 0)
        cached = counts.get("cached", 0)
        retries = counts.get("retries", 0)
        total = self._total
        if total is None and self._phase_totals:
            total = self._phase_totals
        unit_count = done
        if self._uses_rounds and self._soak:
            unit_count = self._soak.get("faults") or 0
        elapsed_s = 0.0
        if self._started_mono is not None and self._last_mono is not None:
            elapsed_s = max(0.0,
                            (self._last_mono - self._started_mono) / 1e9)
        utilization = None
        if self._workers and elapsed_s > 0 and executed:
            utilization = min(
                1.0, self._busy_s / (elapsed_s * self._workers))
        hit_rate = None
        if executed + cached:
            hit_rate = cached / (executed + cached)
        eta_s = None
        if (total is not None and self._ema
                and self._lifecycle in ("running", "draining")):
            eta_s = max(0.0, (total - unit_count) / self._ema)
        age_s = None
        stale = False
        if now_wall is not None and self._last_wall is not None:
            age_s = max(0.0, now_wall - self._last_wall)
            threshold = self.stale_after_s
            if threshold is None:
                threshold = self._heartbeat_s
            if (threshold is not None
                    and self._lifecycle in ("running", "draining")
                    and age_s > threshold):
                stale = True
        flags: list[str] = []
        if stale:
            flags.append("stalled_heartbeat")
        if (retries >= _RETRY_STORM_MIN
                and retries > _RETRY_STORM_RATIO * max(1, executed)):
            flags.append("retry_storm")
        if (self._ema is not None and self._ema_peak
                and self._rate_samples >= _COLLAPSE_MIN_SAMPLES
                and self._ema < _COLLAPSE_FRACTION * self._ema_peak):
            flags.append("throughput_collapse")
        status = "stale" if stale else self._lifecycle
        return RunHealth(
            run_id=self._run_id,
            kind=self._kind,
            lifecycle=self._lifecycle,
            status=status,
            stale=stale,
            flags=tuple(flags),
            heartbeat_s=self._heartbeat_s,
            started_wall=self._started_wall,
            last_event_wall=self._last_wall,
            last_event_type=self._last_type,
            last_event_age_s=age_s,
            last_seq=self._last_seq,
            phase=self._phase,
            unit=self._unit,
            total=total,
            done=unit_count,
            executed=executed,
            cached=cached,
            resumed=counts.get("resumed", 0),
            poisoned=counts.get("poisoned", 0),
            retries=retries,
            crashes=counts.get("crashes", 0),
            fallbacks=counts.get("fallbacks", 0),
            batches=counts.get("batches", 0),
            checkpoints=counts.get("checkpoints", 0),
            events_processed=counts.get("events_processed", 0),
            workers=self._workers,
            busy_s=self._busy_s,
            elapsed_s=elapsed_s,
            utilization=utilization,
            cache_hit_rate=hit_rate,
            throughput=self._ema,
            throughput_peak=self._ema_peak,
            eta_s=eta_s,
            faults_classified=self._faults_classified,
            faults_per_second=(
                self._faults_classified / elapsed_s
                if self._faults_classified and elapsed_s > 0 else None),
            soak=dict(self._soak) if self._soak else None,
        )


def fold_events(events: typing.Iterable[dict], *,
                now_wall: float | None = None,
                stale_after_s: float | None = None) -> RunHealth:
    """Fold a complete event prefix (header first) into a health."""
    fold = HealthFold(stale_after_s=stale_after_s)
    fold.apply_all(events)
    return fold.health(now_wall=now_wall)
