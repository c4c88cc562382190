"""Outcome taxonomy for fault campaigns.

Every injected fault is classified by what the deployed scheme did with
it, mapped onto the paper's checking-period semantics (``c = k*t``,
leading TB intervals mask silently, trailing ED intervals mask *and*
flag, the error relay widens the downstream capture window):

* ``masked_tb`` — absorbed silently in a time-borrowing interval: the
  violation fit within the first borrowed interval and never reached
  the central error-control unit (paper Sec. 4, the common case TIMBER
  optimises for).
* ``masked_ed`` — absorbed and flagged: the borrow reached an
  error-detection interval (or a detection scheme like Razor caught and
  recovered it), so the controller heard about it.
* ``relayed`` — masked using a select *incremented downstream* per the
  error-relay rules: the capture borrowed two or more intervals, which
  only happens when an upstream element warned it in advance
  (``select_out = select_in + 1``, paper Sec. 5.1).
* ``escaped`` — silent data corruption: the violation exceeded what the
  scheme tolerates and no flag was raised in time (a plain flip-flop's
  only non-clean outcome).
* ``false_positive`` — the scheme flagged or predicted without any
  actual violation (canary guard bands do this by design).
* ``benign`` — the fault had no architecturally visible effect at all
  (landed on a path no data traversed, or too small to matter).

Precedence is severity-ordered: one escaped capture poisons the whole
fault regardless of how many others were masked.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.campaign.faults import FAULT_KINDS
from repro.columns import ColumnBlock

MASKED_TB = "masked_tb"
MASKED_ED = "masked_ed"
RELAYED = "relayed"
ESCAPED = "escaped"
FALSE_POSITIVE = "false_positive"
BENIGN = "benign"

#: Report ordering: most desirable first, severity last.
OUTCOME_CLASSES = (MASKED_TB, MASKED_ED, RELAYED, ESCAPED,
                   FALSE_POSITIVE, BENIGN)

#: :func:`classify_flags`'s precedence ladder, most severe first.  The
#: batched paths carry classes as indices into it.
SEVERITY_LADDER = (ESCAPED, RELAYED, MASKED_ED, MASKED_TB, FALSE_POSITIVE,
                   BENIGN)


@dataclasses.dataclass(frozen=True)
class CaptureEvent:
    """One non-clean capture observed during a fault's run.

    A flattened, JSON-able projection of
    :class:`repro.core.masking.CaptureOutcome` plus where/when it
    happened — the raw material :func:`classify_events` consumes.
    """

    cycle: int
    site: str
    lateness_ps: int
    masked: bool = False
    detected: bool = False
    predicted: bool = False
    flagged: bool = False
    failed: bool = False
    borrowed_intervals: int = 0


@dataclasses.dataclass(frozen=True)
class FaultOutcome:
    """Classification of one injected fault."""

    fault_id: int
    kind: str
    site: str
    cycle: int
    magnitude_ps: int
    classification: str
    events: int = 0
    worst_lateness_ps: int = 0
    max_borrowed_intervals: int = 0


class OutcomeColumns(ColumnBlock):
    """Classified faults as columns: one int64 row per
    :class:`FaultOutcome` field (:class:`~repro.columns.ColumnBlock`).

    ``kind`` holds indices into :data:`~repro.campaign.faults.
    FAULT_KINDS`, ``site`` into ``sites`` and ``classification`` into
    :data:`SEVERITY_LADDER`.  Campaign and soak outcomes stay in this
    form from the evaluator to the report, the result store and the
    soak journal; it is also a sequence of :class:`FaultOutcome`.
    """

    record = FaultOutcome
    labels = {"kind": FAULT_KINDS, "classification": SEVERITY_LADDER}

    @classmethod
    def for_faults(cls, faults: typing.Any) -> "OutcomeColumns":
        """The outcome block of a :class:`~repro.campaign.faults.
        FaultColumns` block: its identity rows copied, the classified
        rows (``classification`` onwards) zero for the caller to fill."""
        table = np.zeros((len(cls.fields), len(faults)), dtype=np.int64)
        for row, name in enumerate(cls.fields[:FOLDED]):
            table[row] = getattr(faults, name)
        return cls(faults.sites, table)

    def class_counts(self) -> dict[str, int]:
        """Faults per class, :data:`OUTCOME_CLASSES` order."""
        tally = np.bincount(self.classification,
                            minlength=len(SEVERITY_LADDER)).tolist()
        return {name: tally[SEVERITY_LADDER.index(name)]
                for name in OUTCOME_CLASSES}


#: :class:`OutcomeColumns` rows from ``classification`` on: what
#: evaluating a fault adds to its identity.
FOLDED = OutcomeColumns.fields.index("classification")


def classify_flags(*, any_failed: bool, any_relayed: bool,
                   any_masked_ed: bool, any_masked: bool,
                   any_warned: bool) -> str:
    """Severity-ordered classification from pre-folded event flags.

    The precedence ladder shared by the per-event stream
    (:func:`classify_events`) and the batched lane machines
    (:mod:`repro.kernels.fault_batch`), which fold the same flags out
    of arrays: ``escaped`` dominates (any silent corruption is fatal),
    then ``relayed`` (a >= 2-interval borrow proves the relay fired),
    then the flagged/silent masking split, then pure warnings."""
    if any_failed:
        return ESCAPED
    if any_relayed:
        return RELAYED
    if any_masked_ed:
        return MASKED_ED
    if any_masked:
        return MASKED_TB
    if any_warned:
        return FALSE_POSITIVE
    return BENIGN


def classify_events(events: typing.Sequence[CaptureEvent]) -> str:
    """Collapse a fault's capture events into one taxonomy class."""
    return classify_flags(
        any_failed=any(event.failed for event in events),
        any_relayed=any(event.masked and event.borrowed_intervals >= 2
                        for event in events),
        any_masked_ed=any((event.masked and event.flagged)
                          or event.detected for event in events),
        any_masked=any(event.masked for event in events),
        any_warned=any(event.predicted or event.flagged
                       for event in events),
    )


def outcome_from_events(spec: typing.Any,
                        events: typing.Sequence[CaptureEvent],
                        ) -> FaultOutcome:
    """Build the :class:`FaultOutcome` record for ``spec``."""
    return FaultOutcome(
        fault_id=spec.fault_id,
        kind=spec.kind,
        site=spec.site,
        cycle=spec.cycle,
        magnitude_ps=spec.magnitude_ps,
        classification=classify_events(events),
        events=len(events),
        worst_lateness_ps=max(
            (event.lateness_ps for event in events), default=0),
        max_borrowed_intervals=max(
            (event.borrowed_intervals for event in events), default=0),
    )
