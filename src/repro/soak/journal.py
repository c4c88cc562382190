"""Append-only, fsync-per-record soak journal with torn-tail recovery.

The journal is the soak run's replay log: one JSON line per completed
round holding everything needed to regenerate and re-verify that round
— the sampler weights in force, the draw descriptors ``(stratum key,
counter start, count)``, the per-stratum outcome-class counts, and a
SHA-256 digest of the classified outcomes (chained to the previous
record's digest, so any prefix has a single summarizing hash).  Records
carry **no wall-clock data**: an interrupted run's journal is a
byte-exact prefix of the uninterrupted run's — the property the chaos
drill pins.  The file mechanics (``fsync`` per ``append``, torn-tail
truncation on ``open_resume``, :class:`JournalCorrupt` on damage before
the tail, the ``{type: header, schema}`` header rule) are the shared
:class:`repro.exec.recordlog.RecordLog`; this module adds the schema
version, sorted-key lines and the digest chain.
"""

from __future__ import annotations

import hashlib
import json
import typing

from repro.exec.recordlog import RecordLog, RecordLogCorrupt

JOURNAL_SCHEMA_VERSION = 1


class JournalCorrupt(RecordLogCorrupt):
    """The journal is damaged in a way a crash cannot explain."""


def record_digest(prev_digest: str, payload: typing.Any) -> str:
    """Chained SHA-256 over a canonical JSON encoding of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(prev_digest.encode("ascii")
                          + encoded).hexdigest()


class SoakJournal(RecordLog):
    """One soak run's append-only JSONL record stream."""

    corrupt = JournalCorrupt
    sort_keys = True
    schema = JOURNAL_SCHEMA_VERSION

    def append(self, record: dict) -> None:
        """Durably append one record (write + flush + fsync)."""
        self.write(self.encode(record))
