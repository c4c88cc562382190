"""Torn-write properties of every durable append log.

Four files are append-only logs framed one record per line
(:func:`repro.exec.recordlog.frame_lines`): the sweep checkpoint and the
soak journal (:class:`~repro.exec.recordlog.RecordLog`, ``fsync`` per
append), the run-event spool (:class:`~repro.obs.stream.EventSpool`, a
``RecordLog`` that flushes without ``fsync``) and the result cache's
pack segments (:class:`~repro.exec.ResultCache`).  For any record
sequence:

1. a cut at any byte reads as exactly the complete records before the
   cut — in the record log, the soak journal, the event spool, the
   checkpoint and the cache pack;
2. reopening after a torn tail truncates it and appends after it, and
   the cache appends after a torn segment tail without losing a record;
3. an unparseable checkpoint or journal line with complete lines after
   it is never a crash artefact and raises instead of being dropped;
4. a byte flip inside a cache record is a logged miss, never a wrong
   value, and leaves every other record served;
5. a sweep checkpoint cut anywhere resumes the complete prefix, and its
   values equal an uninterrupted run's.
"""

import functools
import logging
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignConfig
from repro.campaign.engine import campaign_tasks
from repro.exec import (
    RecordLog,
    RecordLogCorrupt,
    ResultCache,
    SweepCheckpoint,
    SweepRunner,
    expand_grid,
    read_checkpoint,
)
from repro.obs.stream import EventSpool
from repro.soak import JournalCorrupt, SoakJournal

SQUARE = "repro.exec.testing:square_task"

_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=12))
_records = st.lists(
    st.dictionaries(st.text(max_size=6), _scalars, max_size=4),
    min_size=1, max_size=8)


def _write_log(path: pathlib.Path, header: dict,
               records: list[dict]) -> bytes:
    log = RecordLog(path)
    log.open_fresh(header)
    for record in records:
        log.write(log.encode(record))
    log.close()
    return path.read_bytes()


def _last_line_start(raw: bytes) -> int:
    return raw.rstrip(b"\n").rfind(b"\n") + 1


@settings(max_examples=60, deadline=None)
@given(records=_records, extra=_records, cut=st.floats(0, 1,
                                                       exclude_max=True))
def test_torn_tail_recovers_exact_prefix_and_appends(records, extra, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "log.jsonl"
        header = {"run": "k"}
        raw = _write_log(path, header, records)
        start = _last_line_start(raw)
        path.write_bytes(raw[:start + int(cut * (len(raw) - start))])

        assert RecordLog.read(path) == (header, records[:-1])
        log = RecordLog(path)
        assert log.open_resume() == (header, records[:-1])
        assert path.read_bytes() == raw[:start]
        for record in extra:
            log.write(log.encode(record))
        assert RecordLog.read(path) == (header, records[:-1] + extra)


@settings(max_examples=40, deadline=None)
@given(records=_records.filter(lambda r: len(r) >= 2),
       data=st.data())
def test_mid_file_damage_raises(records, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "log.jsonl"
        raw = _write_log(path, {"type": "header", "schema": 1}, records)
        lines = raw.splitlines(keepends=True)
        # Damage any record line that has a complete line after it.
        victim = data.draw(st.integers(1, len(lines) - 2))
        lines[victim] = lines[victim][:max(1, len(lines[victim]) // 2)
                                      ] + b"\n"
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(RecordLogCorrupt):
            RecordLog(path).open_resume()
        with pytest.raises(JournalCorrupt):
            SoakJournal.read(path)
        assert path.read_bytes() == damaged  # nothing truncated


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.integers(-50, 50), min_size=1, max_size=12),
       every=st.integers(1, 4),
       cut=st.floats(0, 1, exclude_max=True))
def test_sweep_checkpoint_resumes_the_complete_prefix(values, every, cut):
    tasks = expand_grid(SQUARE, {"x": values}, root_seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cp.json"
        reference = SweepRunner(
            checkpoint=SweepCheckpoint(path, every=every)).run(tasks)
        raw = path.read_bytes()
        start = _last_line_start(raw)
        path.write_bytes(raw[:start + int(cut * (len(raw) - start))])
        kept = read_checkpoint(path)
        assert len(kept) == len(tasks) - 1

        resumed = SweepRunner(
            checkpoint=SweepCheckpoint(path, every=every,
                                       resume=True)).run(tasks)
        assert resumed.values == reference.values
        assert resumed.summary["resumed_tasks"] == len(kept)
        assert {o.task.index for o in resumed.outcomes
                if o.resumed} == set(kept)
        assert sorted(read_checkpoint(path)) == list(range(len(tasks)))


def _complete(raw: bytes, cut: int) -> int:
    """Number of newline-terminated lines in ``raw[:cut]``."""
    return raw[:cut].count(b"\n")


@pytest.mark.parametrize("log_cls", [RecordLog, SoakJournal, EventSpool],
                         ids=["record-log", "soak-journal", "event-spool"])
@settings(max_examples=40, deadline=None)
@given(records=_records, cut=st.floats(0, 1))
def test_cut_at_any_byte_reads_the_complete_prefix(log_cls, records, cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "log.jsonl"
        header = {"type": "header", "schema": 1}
        raw = _write_log(path, header, records)
        at = int(cut * len(raw))
        path.write_bytes(raw[:at])
        lines = _complete(raw, at)
        expected = (header, records[:lines - 1]) if lines else (None, [])
        assert log_cls.read(path) == expected


_CAMPAIGN = CampaignConfig(num_faults=24, num_cycles=300, seed=11,
                           faults_per_task=4)


@functools.lru_cache(maxsize=1)
def _reference_run() -> tuple[list, bytes]:
    """An uninterrupted checkpointed campaign: values and checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "reference.json"
        run = SweepRunner(checkpoint=SweepCheckpoint(path, every=2)).run(
            campaign_tasks(_CAMPAIGN))
        return run.values, path.read_bytes()


@settings(max_examples=20, deadline=None)
@given(cut=st.floats(0, 1))
def test_checkpoint_cut_anywhere_resumes_identically(cut):
    tasks = campaign_tasks(_CAMPAIGN)
    values, raw = _reference_run()
    with tempfile.TemporaryDirectory() as tmp:
        at = int(cut * len(raw))
        path = pathlib.Path(tmp) / "cp.json"
        path.write_bytes(raw[:at])
        kept = read_checkpoint(path)
        assert len(kept) == max(0, _complete(raw, at) - 1)

        resumed = SweepRunner(checkpoint=SweepCheckpoint(
            path, every=2, resume=True)).run(tasks)
        assert resumed.values == values
        assert resumed.summary["resumed_tasks"] == len(kept)
        assert sorted(read_checkpoint(path)) == list(range(len(tasks)))


_values = st.lists(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.lists(st.integers(0, 9), max_size=3),
    min_size=1, max_size=8)


def _filled_pack(directory: pathlib.Path, values: list):
    cache = ResultCache(directory)
    keys = [cache.key_for("exp", {"i": i}, seed=0)
            for i in range(len(values))]
    for key, value in zip(keys, values):
        cache.put(key, value)
    return keys, cache._path(keys[0])


@settings(max_examples=40, deadline=None)
@given(values=_values, cut=st.floats(0, 1))
def test_cache_pack_cut_anywhere_serves_the_complete_prefix(values, cut):
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        keys, segment = _filled_pack(directory, values)
        raw = segment.read_bytes()
        at = int(cut * len(raw))
        segment.write_bytes(raw[:at])
        kept = _complete(raw, at)
        reader = ResultCache(directory)
        assert [reader.get(key) for key in keys] == (
            [(True, value) for value in values[:kept]]
            + [(False, None)] * (len(values) - kept))
        # Appending after the torn tail loses nothing, for any reader.
        for key, value in list(zip(keys, values))[kept:]:
            reader.put(key, value)
        assert [ResultCache(directory).get(key) for key in keys] == [
            (True, value) for value in values]


@settings(max_examples=60, deadline=None)
@given(values=_values, data=st.data())
def test_cache_byte_flip_is_a_logged_miss(values, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        keys, segment = _filled_pack(directory, values)
        raw = bytearray(segment.read_bytes())
        lines = bytes(raw).splitlines(keepends=True)
        victim = data.draw(st.integers(0, len(lines) - 1))
        start = sum(map(len, lines[:victim]))
        at = start + data.draw(st.integers(0, len(lines[victim]) - 2))
        raw[at] ^= data.draw(st.integers(1, 255))
        segment.write_bytes(bytes(raw))

        reader = ResultCache(directory)
        logger = logging.getLogger("repro.exec.cache")
        seen: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda record: seen.append(record.getMessage())
        logger.addHandler(handler)
        try:
            got = [reader.get(key) for key in keys]
        finally:
            logger.removeHandler(handler)
        assert got == [(False, None) if i == victim else (True, value)
                       for i, value in enumerate(values)]
        assert any("corrupted" in message for message in seen)
