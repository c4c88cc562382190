"""Append-only, group-committed soak journal with torn-tail recovery.

The journal is the soak run's replay log: one JSON line per completed
round holding everything needed to regenerate and re-verify that round
— the sampler weights in force, the draw descriptors ``(stratum key,
counter start, count)``, the per-stratum outcome-class counts, and a
SHA-256 digest of the classified outcomes (chained to the previous
record's digest, so any prefix has a single summarizing hash).  Records
carry **no wall-clock data**: an interrupted run's journal is a
byte-exact prefix of the uninterrupted run's — the property the chaos
drill pins.  The file mechanics (one held-open append handle, torn-tail
truncation on ``open_resume``, :class:`JournalCorrupt` on damage before
the tail, the ``{type: header, schema}`` header rule) are the shared
:class:`repro.exec.recordlog.RecordLog`; this module adds the schema
version, sorted-key lines and the digest chain.

Durability is group-committed.  :meth:`SoakJournal.append` writes and
flushes each round, so a killed process loses nothing the kernel
already holds; the driver ``fsync``\\ s the journal (:meth:`sync`) at
its commit points — at most :data:`repro.soak.driver.COMMIT_INTERVAL_S`
apart, and on every exit.  A power loss can therefore cost the rounds
of the last second, which resume recomputes byte-identically: the
stream is a pure function of (configuration, rounds).
"""

from __future__ import annotations

import hashlib

from repro.exec.recordlog import RecordLog, RecordLogCorrupt

JOURNAL_SCHEMA_VERSION = 1


class JournalCorrupt(RecordLogCorrupt):
    """The journal is damaged in a way a crash cannot explain."""


def record_digest(prev_digest: str, encoded: str) -> str:
    """Chained SHA-256 over ``encoded``, a payload's canonical JSON
    text (sorted keys, ``(",", ":")`` separators, ASCII)."""
    return hashlib.sha256(prev_digest.encode("ascii")
                          + encoded.encode("utf-8")).hexdigest()


class SoakJournal(RecordLog):
    """One soak run's append-only JSONL record stream."""

    corrupt = JournalCorrupt
    sort_keys = True
    schema = JOURNAL_SCHEMA_VERSION
    sync_writes = False

    def append(self, record: dict) -> None:
        """Append one record, flushed; :meth:`sync` makes it durable."""
        self.write(self.encode(record))
