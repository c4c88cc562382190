"""Unit tests for the on-disk result cache and its JSON encoding."""

import json
import logging
import multiprocessing

import pytest

from repro.analysis.experiments import (
    Fig8Row,
    ResiliencePoint,
    ThroughputPoint,
)
from repro.errors import ConfigurationError
from repro.exec.cache import (
    ResultCache,
    decode_result,
    encode_result,
    encode_stored,
)
from repro.pipeline.pipeline import PipelineResult
from repro.timing.distribution import CriticalPathDistribution


def _pipeline_result() -> PipelineResult:
    return PipelineResult(
        scheme="timber-ff", cycles=1000, period_ps=1000, clean=900,
        masked=50, masked_flagged=10, detected=20, predicted=5,
        failed=0, replay_cycles=40, slow_cycles=12,
        total_time_ps=1_010_000, max_borrow_ps=120, borrow_chain_max=3,
    )


#: One instance of every experiment result dataclass the sweeps cache.
RESULT_SAMPLES = [
    _pipeline_result(),
    ResiliencePoint(technique="razor", droop_amplitude=0.08,
                    result=_pipeline_result()),
    ThroughputPoint(technique="canary", overclock_percent=4.0,
                    result=_pipeline_result()),
    Fig8Row(point="medium", checking_percent=30.0, style="ff",
            with_tb_interval=True, margin_percent=10.0,
            ffs_replaced=120, ffs_total=400,
            power_overhead_percent=7.25,
            relay_area_overhead_percent=1.5, relay_slack_percent=70.0),
    CriticalPathDistribution(percent_threshold=20.0, num_ffs=400,
                             num_endpoints=200, num_startpoints=90,
                             num_through=60),
]


class TestEncoding:
    @pytest.mark.parametrize("sample", RESULT_SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_round_trip_every_result_dataclass(self, sample):
        encoded = encode_result(sample)
        json.dumps(encoded)  # must be pure JSON
        assert decode_result(encoded) == sample

    def test_round_trip_containers(self):
        value = {"rows": [_pipeline_result()], "tag": (1, 2),
                 "n": None, "ok": True}
        decoded = decode_result(encode_result(value))
        assert decoded == value
        assert isinstance(decoded["tag"], tuple)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_result({1: "x"})

    def test_unencodable_value_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_result(object())


def _put_many(directory, writer: int, count: int) -> None:
    """Pool-worker stand-in: store ``count`` entries, some shared."""
    cache = ResultCache(directory)
    try:
        for i in range(count):
            cache.put(cache.key_for("exp", {"i": i}, seed=writer),
                      [writer, i])
            cache.put(cache.key_for("shared", {"i": i}, seed=0), i)
    finally:
        cache.close()


@pytest.fixture
def open_cache():
    """``ResultCache(...)`` that closes every cache it made when the
    test ends, so no pack segment handle outlives its test."""
    caches = []

    def make(*args, **kwargs) -> ResultCache:
        caches.append(ResultCache(*args, **kwargs))
        return caches[-1]

    yield make
    for cache in caches:
        cache.close()


class TestResultCache:
    def test_miss_then_hit(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        key = cache.key_for("exp", {"x": 1}, seed=3)
        assert cache.get(key) == (False, None, None)
        cache.put(key, _pipeline_result(), experiment="exp")
        hit, value, stored = cache.get(key)
        assert hit and value == _pipeline_result()
        assert stored == encode_stored(_pipeline_result())
        assert len(cache) == 1

    def test_key_depends_on_config_and_seed(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        base = cache.key_for("exp", {"x": 1}, seed=3)
        assert cache.key_for("exp", {"x": 2}, seed=3) != base
        assert cache.key_for("exp", {"x": 1}, seed=4) != base
        assert cache.key_for("other", {"x": 1}, seed=3) != base

    def test_code_version_invalidates(self, open_cache, tmp_path):
        old = open_cache(tmp_path, version="v1")
        key = old.key_for("exp", {}, seed=0)
        old.put(key, _pipeline_result())
        # Same key hashed under the new version differs...
        new = open_cache(tmp_path, version="v2")
        assert new.key_for("exp", {}, seed=0) != key
        # ...and even a colliding key is rejected by the entry check.
        assert new.get(key) == (False, None, None)

    def test_corrupt_entry_is_a_miss(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        key = cache.key_for("exp", {}, seed=0)
        cache.put(key, _pipeline_result())
        _replace_record(cache, key, b"{not json")
        assert open_cache(tmp_path).get(key) == (False, None, None)

    def test_clear(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        for i in range(3):
            cache.put(cache.key_for("exp", {"i": i}, seed=0), i)
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_clear_removes_legacy_entries_and_orphans(self, open_cache,
                                                      tmp_path):
        # A schema-2 entry file and the temp file of a store killed
        # between create and rename must not outlive clear().
        cache = open_cache(tmp_path)
        cache.put(cache.key_for("exp", {}, seed=0), 1)
        (tmp_path / "deadbeef.json").write_text("{}", encoding="utf-8")
        (tmp_path / "tmpabc123.tmp").write_text("{", encoding="utf-8")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []
        assert len(open_cache(tmp_path)) == 0

    def test_len_counts_live_keys(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        key = cache.key_for("exp", {}, seed=0)
        cache.put(key, 1)
        cache.put(key, 2)  # superseded, not a second entry
        cache.put(cache.key_for("exp", {}, seed=1), 3)
        assert len(cache) == len(open_cache(tmp_path)) == 2
        assert open_cache(tmp_path).get(key)[:2] == (True, 2)

    def test_entries_share_one_segment_per_process(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        keys = [cache.key_for("exp", {"i": i}, seed=0) for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert [p.name for p in tmp_path.iterdir()] == [
            cache._path(keys[0]).name]
        fresh = open_cache(tmp_path)
        assert [fresh.get(key)[:2] for key in keys] == [
            (True, i) for i in range(4)]

    def test_concurrent_writers_lose_nothing(self, open_cache, tmp_path):
        # More writer processes than cores, all appending at once: each
        # owns its segment, so every record of every writer survives.
        writers, count = 6, 150
        context = multiprocessing.get_context("spawn")
        procs = [context.Process(target=_put_many,
                                 args=(str(tmp_path), writer, count))
                 for writer in range(writers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0] * writers
        assert len(list(tmp_path.glob("pack-*.jsonl"))) == writers
        cache = open_cache(tmp_path)
        assert len(cache) == writers * count + count
        for writer in range(writers):
            for i in range(count):
                assert cache.get(cache.key_for("exp", {"i": i},
                                               seed=writer))[:2] == (
                    True, [writer, i])
        assert all(cache.get(cache.key_for("shared", {"i": i}, seed=0))[:2]
                   == (True, i) for i in range(count))

    def test_invalid_key_rejected(self, open_cache, tmp_path):
        with pytest.raises(ConfigurationError):
            open_cache(tmp_path).put('a"b', 1)


def _replace_record(cache, key, line: bytes) -> None:
    """Overwrite ``key``'s record in its pack segment with ``line``."""
    segment, offset, length = cache.locate(key)
    raw = segment.read_bytes()
    segment.write_bytes(raw[:offset] + line + raw[offset + length:])


def _record(cache, key) -> dict:
    segment, offset, length = cache.locate(key)
    return json.loads(segment.read_bytes()[offset:offset + length])


def _encode(entry: dict) -> bytes:
    return json.dumps(entry, separators=(",", ":")).encode("utf-8")


class TestCorruptionInjection:
    """A damaged record is logged and rebuilt — never served.

    Each case damages the stored record in place inside its pack
    segment, then reads through a fresh cache (a later process indexing
    the pack from disk).  The damaged bytes stay on disk; the miss drops
    the record from the index and the next put supersedes it.
    """

    def _stored(self, open_cache, tmp_path):
        cache = open_cache(tmp_path)
        key = cache.key_for("exp", {"x": 1}, seed=0)
        cache.put(key, _pipeline_result(), experiment="exp")
        return cache, key

    def _assert_logged_miss(self, open_cache, tmp_path, key, caplog):
        reader = open_cache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert reader.get(key) == (False, None, None)
        assert any("corrupted" in record.message
                   for record in caplog.records)
        assert reader.locate(key) is None  # never served again
        return reader

    def test_truncated_entry_deleted_and_logged(self, open_cache, tmp_path,
                                                caplog):
        cache, key = self._stored(open_cache, tmp_path)
        segment, offset, length = cache.locate(key)
        record = segment.read_bytes()[offset:offset + length]
        _replace_record(cache, key, record[:37])
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)
        # A record cut after its key is a logged miss too.
        _replace_record(cache, key, record[:length // 2])
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)

    def test_non_json_entry_deleted(self, open_cache, tmp_path, caplog):
        cache, key = self._stored(open_cache, tmp_path)
        _replace_record(cache, key, b"\x00\xffgarbage")
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)
        # Garbage behind an intact key prefix fails the parse instead.
        _replace_record(cache, key, b'{"key":"' + key.encode() + b'",\xff')
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)

    def test_json_non_object_entry_deleted(self, open_cache, tmp_path, caplog):
        cache, key = self._stored(open_cache, tmp_path)
        _replace_record(cache, key, b"[1, 2, 3]")
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)

    def test_tampered_result_fails_checksum(self, open_cache, tmp_path,
                                            caplog):
        cache, key = self._stored(open_cache, tmp_path)
        entry = _record(cache, key)
        entry["result"]["fields"]["failed"] = 999  # silent bit-flip
        _replace_record(cache, key, _encode(entry))
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)

    def test_missing_checksum_field_deleted(self, open_cache, tmp_path,
                                            caplog):
        cache, key = self._stored(open_cache, tmp_path)
        entry = _record(cache, key)
        del entry["checksum"]
        _replace_record(cache, key, _encode(entry))
        self._assert_logged_miss(open_cache, tmp_path, key, caplog)

    def test_stale_version_is_plain_miss_not_deleted(self, open_cache,
                                                     tmp_path, caplog):
        # A version mismatch is legitimate staleness, not corruption.
        old = open_cache(tmp_path, version="v1")
        key = old.key_for("exp", {}, seed=0)
        old.put(key, _pipeline_result())
        new = open_cache(tmp_path, version="v2")
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert new.get(key) == (False, None, None)
        assert not caplog.records
        assert new.locate(key) is not None  # left on disk, still indexed
        assert open_cache(tmp_path, version="v1").get(key)[:2] == (
            True, _pipeline_result())

    def test_rebuild_after_corruption(self, open_cache, tmp_path, caplog):
        cache, key = self._stored(open_cache, tmp_path)
        _replace_record(cache, key, b"oops")
        reader = self._assert_logged_miss(open_cache, tmp_path, key, caplog)
        reader.put(key, _pipeline_result(), experiment="exp")
        hit, value, _stored = reader.get(key)
        assert hit and value == _pipeline_result()
        # The rebuilt record wins for every later reader too.
        assert open_cache(tmp_path).get(key)[:2] == (True, _pipeline_result())

    def test_mid_segment_damage_keeps_later_records(self, open_cache, tmp_path,
                                                    caplog):
        cache = open_cache(tmp_path)
        keys = [cache.key_for("exp", {"i": i}, seed=0) for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, [_pipeline_result()] * (i + 1))
        entry = _record(cache, keys[2])
        for column in entry["result"]["fields"].values():
            column.pop()  # one outcome dropped from the column record
        _replace_record(cache, keys[2], _encode(entry))
        reader = self._assert_logged_miss(open_cache, tmp_path, keys[2],
                                          caplog)
        for i in (0, 1, 3, 4):
            assert reader.get(keys[i])[:2] == (
                True, [_pipeline_result()] * (i + 1))
