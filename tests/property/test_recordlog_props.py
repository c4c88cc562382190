"""Properties of the shared append-only record log under torn writes.

A crash during an append can only tear the log's final line, so for any
record sequence and any cut inside that line:

1. reopening recovers exactly the complete prefix, truncates the file
   to it, and appends after the reopen round-trip;
2. an unparseable line with complete lines after it is never a crash
   artefact and raises instead of being dropped;
3. a sweep checkpoint cut the same way resumes the complete prefix and
   its values equal an uninterrupted run's.
"""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    RecordLog,
    RecordLogCorrupt,
    SweepCheckpoint,
    SweepRunner,
    expand_grid,
    read_checkpoint,
)
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
