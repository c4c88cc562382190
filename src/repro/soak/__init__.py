"""Continuous soak mode: open-ended streaming fault injection.

Where :mod:`repro.campaign` answers *"what does this scheme do over a
fixed population of N faults?"*, ``repro.soak`` answers the operational
question behind online error resilience: *"keep injecting until we are
confident"*.  A soak run streams stratified fault draws — one stratum
per (fault kind x magnitude bin) — through the same per-fault
evaluators a batch campaign uses, updates per-stratum escape-rate
estimates with Wilson confidence intervals incrementally, and reweights
the next round of draws toward the strata whose intervals are still
wide (with a weight floor so no stratum starves, and uniform-weight
stratified estimates so adaptive allocation never biases the headline
escape rate).

Determinism model: the run proceeds in *rounds*.  The sampler weights
for round ``r`` are a pure function of the estimator state after rounds
``[0, r)``; every draw is counter-based per stratum (pure in the seed,
stratum key, and the stratum's own draw counter); outcomes are pure in
the drawn specs.  The whole stream is therefore a pure function of
``(config, number of rounds)`` — which is what makes the append-only
journal prefix-stable, any journal window replayable bit-identically,
and a SIGKILL-interrupted run resumable to the byte.

Modules:

* :mod:`repro.soak.estimators` — per-stratum outcome counts, Wilson
  intervals, uniform-weight stratified combination;
* :mod:`repro.soak.sampler` — CI-width-proportional weights with a
  floor, largest-remainder integer allocation (no RNG);
* :mod:`repro.soak.generator` — strata construction and counter-based
  spec draws (:func:`repro.campaign.faults.draw_spec`);
* :mod:`repro.soak.journal` — fsync-per-record append-only JSONL with
  torn-tail recovery;
* :mod:`repro.soak.driver` — the round loop: allocate, draw, dispatch
  through :class:`repro.exec.SweepRunner`, update, journal, checkpoint.
"""

from repro.soak.driver import (
    SOAK_TASK,
    SoakCheckpoint,
    SoakConfig,
    SoakResult,
    replay_round,
    run_soak,
    soak_chunk_task,
    soak_state_from_journal,
)
from repro.soak.estimators import (
    EscapeEstimator,
    StratumStats,
    wilson_interval,
)
from repro.soak.generator import (
    Stratum,
    build_strata,
    spec_for_draw,
    stratum_lanes,
)
from repro.soak.journal import JournalCorrupt, SoakJournal
from repro.soak.sampler import AdaptiveSampler, allocate_counts

__all__ = [
    "AdaptiveSampler",
    "EscapeEstimator",
    "JournalCorrupt",
    "SOAK_TASK",
    "SoakCheckpoint",
    "SoakConfig",
    "SoakJournal",
    "SoakResult",
    "Stratum",
    "StratumStats",
    "allocate_counts",
    "build_strata",
    "replay_round",
    "run_soak",
    "soak_chunk_task",
    "soak_state_from_journal",
    "spec_for_draw",
    "stratum_lanes",
    "wilson_interval",
]
