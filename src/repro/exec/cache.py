"""On-disk result cache for sweep tasks.

Entries are keyed by a SHA-256 content hash of the task configuration
(experiment name, params, seed) plus the *code version* (package version
and a cache schema version), so upgrading the library or changing any
input silently invalidates stale entries.  Result values are experiment
dataclasses; they round-trip through a small tagged JSON encoding that
reconstructs the exact dataclass types on load.  The store form
(:func:`encode_stored`) additionally writes a list of one scalar-field
dataclass, or a :class:`~repro.columns.ColumnBlock` of them — a
campaign chunk's outcomes — as columns, and is serialized once per
task, by the pool worker that computed it or else by the runner, which
hands the same text to the cache and the sweep checkpoint.  Stored
columns of a block's record type decode straight into a block.

Entries live in an append-only *pack*: ``pack-<pid>.jsonl`` segments,
one per writer process, so pool workers never contend for a lock.  Each
entry is one line (:func:`repro.exec.recordlog.encode_line`) that starts
with its key; the first :meth:`ResultCache.get` indexes every segment
(key → segment, offset, length; the newest record for a key wins) and
each lookup reads and verifies only its own slice.  A cache appends
through one handle on its segment, opened by the first put of the
process and held until :meth:`ResultCache.close`.

Every record ends in a SHA-256 checksum of all its other bytes; a
truncated, corrupted, or tampered record fails verification (when the
pack is indexed and again on read) and is treated as a miss — logged,
never served, and superseded by the next store — never as silently
wrong data.  Damage stays inside its own line, so the records after it
in the segment are still served.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import logging
import os
import pathlib
import re
import typing

from repro.columns import ColumnBlock
from repro.errors import ConfigurationError
from repro.exec.recordlog import encode_line, frame_lines

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.runner import SweepTask

logger = logging.getLogger("repro.exec.cache")

#: Bump to invalidate every existing cache entry on disk (result layout
#: or semantics changed without a package-version bump).
#: 2: entries gained a result checksum for integrity verification.
#: 3: entries moved into append-only pack segments; task values are
#: stored through :func:`encode_stored` (columns for outcome lists).
CACHE_SCHEMA_VERSION = 3

#: Default cache location; overridable per-cache or via environment.
DEFAULT_CACHE_DIR = ".repro-cache"


def _code_version() -> str:
    from repro import __version__

    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def stable_key(*parts: typing.Any) -> str:
    """SHA-256 content hash of a canonical JSON encoding of ``parts``.

    The same construction as the result-cache key and the sweep run
    key: stable across processes, platforms, and Python versions, so it
    is safe to address shared state (e.g. the per-worker warm cache)
    by it.  Non-JSON values fall back to ``str()``.
    """
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Tagged JSON encoding of experiment result dataclasses
# ---------------------------------------------------------------------------

def encode_result(value: typing.Any) -> typing.Any:
    """Encode a result value into JSON-able data.

    Dataclass instances become ``{"__dataclass__": "module:QualName",
    "fields": {...}}``; tuples are tagged so they survive the round trip
    as tuples; dicts must have string keys.  A
    :class:`~repro.columns.ColumnBlock` encodes as the list of its
    records.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": (
                f"{type(value).__module__}:{type(value).__qualname__}"),
            "fields": {
                field.name: encode_result(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode_result(item) for item in value]}
    if isinstance(value, (list, ColumnBlock)):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"cannot cache dict with non-string key {key!r}")
        return {key: encode_result(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot cache value of type {type(value).__name__}")


_SCALARS = (type(None), bool, int, float, str)


@functools.lru_cache(maxsize=None)
def _column_fields(cls: type) -> tuple[str, ...] | None:
    """Field names of a dataclass that can be built from them alone."""
    if not dataclasses.is_dataclass(cls):
        return None
    fields = dataclasses.fields(cls)
    if not all(field.init for field in fields):
        return None
    return tuple(field.name for field in fields)


def encode_stored(value: typing.Any) -> str:
    """The one serialized form of a task value in the cache and checkpoint.

    A non-empty list of instances of one dataclass whose fields all hold
    scalars becomes ``{"__columns__": "module:QualName", "fields":
    {name: [values...]}}``, and so does a non-empty
    :class:`~repro.columns.ColumnBlock`, straight from its columns and
    with the same bytes as the list of its records; every other value
    is :func:`encode_result`.  :func:`decode_result` reads both.
    """
    encoded: typing.Any = None
    if isinstance(value, ColumnBlock) and len(value):
        cls = value.record
        encoded = {"__columns__": f"{cls.__module__}:{cls.__qualname__}",
                   "fields": value.columns()}
    elif isinstance(value, list) and value:
        cls = type(value[0])
        names = _column_fields(cls)
        if names is not None and all(type(item) is cls for item in value):
            columns = {name: [getattr(item, name) for item in value]
                       for name in names}
            if all(type(item) in _SCALARS
                   for column in columns.values() for item in column):
                encoded = {"__columns__": f"{cls.__module__}:"
                                          f"{cls.__qualname__}",
                           "fields": columns}
    if encoded is None:
        encoded = encode_result(value)
    return json.dumps(encoded, separators=(",", ":"))


def _dataclass_named(tag: str) -> typing.Any:
    module_name, _, qualname = tag.partition(":")
    cls: typing.Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        cls = getattr(cls, part)
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(f"{tag} is not a dataclass")
    return cls


def decode_result(data: typing.Any) -> typing.Any:
    """Inverse of :func:`encode_result` (and of :func:`encode_stored`).

    Stored columns of a record type with a
    :class:`~repro.columns.ColumnBlock` decode into that block when
    every value fits it, into the list of records otherwise.
    """
    if isinstance(data, dict):
        if "__dataclass__" in data:
            cls = _dataclass_named(data["__dataclass__"])
            fields = {key: decode_result(item)
                      for key, item in data["fields"].items()}
            return cls(**fields)
        if "__columns__" in data:
            cls = _dataclass_named(data["__columns__"])
            block = ColumnBlock.for_record(cls)
            if block is not None:
                decoded = block.from_columns(data["fields"])
                if decoded is not None:
                    return decoded
            names = tuple(data["fields"])
            return [cls(**dict(zip(names, row)))
                    for row in zip(*data["fields"].values())]
        if "__tuple__" in data:
            return tuple(decode_result(item) for item in data["__tuple__"])
        return {key: decode_result(item) for key, item in data.items()}
    if isinstance(data, list):
        return [decode_result(item) for item in data]
    return data


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------

#: Keys are spliced into a record's first field unescaped, so the pack
#: index can read them without parsing the record.
_KEY = re.compile(r"[A-Za-z0-9_.:-]+")
_KEY_PREFIX = b'{"key":"'
#: Every record ends in a SHA-256 of all the bytes before this field.
_CHECKSUM = b',"checksum":"'
_TRAILER = len(_CHECKSUM) + 64 + len(b'"}')


def _seal(body: bytes) -> bytes:
    """A record line: ``body`` (an unclosed JSON object) plus checksum."""
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return body + _CHECKSUM + digest + b'"}\n'


def _unseal(line: bytes) -> bytes | None:
    """The JSON object of an intact record line, or None if damaged."""
    body, trailer = line[:-_TRAILER], line[-_TRAILER:]
    if not (body.startswith(_KEY_PREFIX) and trailer.startswith(_CHECKSUM)
            and trailer.endswith(b'"}')):
        return None
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    if digest != trailer[len(_CHECKSUM):-2]:
        return None
    return body + b"}"


class ResultCache:
    """A directory of content-addressed task results (an append-only pack).

    Args:
        directory: The cache directory (default ``$REPRO_CACHE_DIR`` or
            ``.repro-cache``).
        version: Code version stamped into every record; a record of
            another version is a plain miss.
    """

    def __init__(self, directory: str | os.PathLike | None = None, *,
                 version: str | None = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR",
                                       DEFAULT_CACHE_DIR)
        self.directory = pathlib.Path(directory)
        self.version = version if version is not None else _code_version()
        #: key -> (segment, offset, length) of its newest intact record;
        #: built on the first lookup, then kept current by our puts.
        self._index: dict[str, tuple[pathlib.Path, int, int]] | None = None
        #: ``(pid, segment, handle)`` puts append through; a forked child
        #: sees another pid and opens its own segment.
        self._writer: tuple[int, pathlib.Path, typing.BinaryIO] | None = None

    # -- keys --------------------------------------------------------------
    def key_for(self, experiment: str, params: typing.Mapping,
                seed: int) -> str:
        """Content hash of one task configuration + code version."""
        payload = json.dumps(
            {
                "experiment": experiment,
                "params": params,
                "seed": seed,
                "version": self.version,
            },
            sort_keys=True, separators=(",", ":"), default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _segment(self) -> pathlib.Path:
        """This process's pack segment (the one its puts append to)."""
        return self.directory / f"pack-{os.getpid()}.jsonl"

    def _segments(self) -> list[pathlib.Path]:
        """Every pack segment, oldest write first."""
        def written(path: pathlib.Path) -> tuple[int, str]:
            try:
                return path.stat().st_mtime_ns, path.name
            except OSError:
                return 0, path.name
        return sorted(self.directory.glob("pack-*.jsonl"), key=written)

    def locate(self, key: str) -> tuple[pathlib.Path, int, int] | None:
        """``(segment, offset, length)`` of ``key``'s newest record."""
        return self._load_index().get(key)

    def _path(self, key: str) -> pathlib.Path:
        """The segment holding ``key``'s newest record (or the writer's)."""
        location = self.locate(key)
        return location[0] if location is not None else self._segment()

    def _load_index(self) -> dict[str, tuple[pathlib.Path, int, int]]:
        if self._index is None:
            index: dict[str, tuple[pathlib.Path, int, int]] = {}
            for segment in self._segments():
                try:
                    raw = segment.read_bytes()
                except OSError:
                    continue
                for offset, line in frame_lines(raw):
                    if _unseal(line) is None:
                        logger.warning(
                            "cache record at %s:%d corrupted (checksum "
                            "mismatch); skipping it", segment.name, offset)
                        continue
                    end = line.index(b'"', len(_KEY_PREFIX))
                    key = line[len(_KEY_PREFIX):end].decode("ascii")
                    index[key] = (segment, offset, len(line))
            self._index = index
        return self._index

    # -- storage -----------------------------------------------------------
    def get(self, key: str) -> tuple[bool, typing.Any, str | None]:
        """Return ``(hit, value, stored)``; damaged records count as
        misses.

        ``stored`` is the hit's :func:`encode_stored` text as the record
        holds it, so a caller that stores the value again (the sweep
        checkpoint) need not re-encode it.  Indexing checks every
        record's checksum, and a lookup checks its own slice again.  A
        record that fails (truncated write, disk corruption, manual
        tampering) is logged, never served, and reported as a miss so
        the task recomputes and the next put supersedes it.
        """
        location = self.locate(key)
        if location is None:
            return False, None, None
        segment, offset, length = location
        try:
            with open(segment, "rb") as handle:
                handle.seek(offset)
                entry = _unseal(handle.read(length))
        except OSError:
            return False, None, None
        if entry is None or not entry.startswith(
                _KEY_PREFIX + key.encode("ascii") + b'"'):
            self._index.pop(key)
            logger.warning(
                "cache entry %s at %s:%d corrupted (checksum mismatch); "
                "recomputing", key[:16], segment.name, offset)
            return False, None, None
        record = json.loads(entry)
        if record["version"] != self.version:
            # Legitimately stale (older code / schema); a plain miss,
            # not corruption — leave the record for inspection.
            return False, None, None
        # :meth:`put` spliced the stored text in as the last field.
        head = encode_line({name: field for name, field in record.items()
                            if name != "result"})[:-2] + b',"result":'
        stored = (entry[len(head):-1].decode("utf-8")
                  if entry.startswith(head) else None)
        return True, decode_result(record["result"]), stored

    def put(self, key: str, value: typing.Any, *,
            experiment: str = "", meta: dict | None = None,
            encoded: str | None = None) -> None:
        """Append ``value`` under ``key`` (the newest record wins).

        ``encoded`` is ``value``'s :func:`encode_stored` text when the
        caller already has it.  The line is flushed, not ``fsync``\\ ed:
        a torn record is a miss, never a wrong value.  The segment's
        tail is checked once, when this process first opens it.
        """
        if not _KEY.fullmatch(key):
            raise ConfigurationError(f"invalid cache key {key!r}")
        if encoded is None:
            encoded = encode_stored(value)
        line = _seal(encode_line({
            "key": key,
            "version": self.version,
            "experiment": experiment,
            "meta": meta or {},
        }, result=encoded)[:-2])
        segment, handle = self._open_segment()
        handle.write(line)
        handle.flush()
        if self._index is not None:
            # Appends land at the end of the file, so the record starts
            # its own length before where the write left the handle.
            self._index[key] = (segment, handle.tell() - len(line),
                                len(line) - 1)

    def _open_segment(self) -> tuple[pathlib.Path, typing.BinaryIO]:
        """This process's segment and the handle puts append through."""
        pid = os.getpid()
        if self._writer is not None and self._writer[0] == pid:
            return self._writer[1], self._writer[2]
        self.directory.mkdir(parents=True, exist_ok=True)
        segment = self._segment()
        handle = open(segment, "ab+")
        end = handle.seek(0, os.SEEK_END)
        if end:
            # A writer killed mid-line (an earlier process with this
            # pid) left a torn tail: start on a fresh line.
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        self._writer = (pid, segment, handle)
        return segment, handle

    def close(self) -> None:
        """Release the segment handle (a later put reopens it)."""
        writer, self._writer = self._writer, None
        if writer is not None and writer[0] == os.getpid():
            writer[2].close()

    # -- task-level convenience -------------------------------------------
    def get_task(self, task: "SweepTask",
                 ) -> tuple[bool, typing.Any, str | None]:
        return self.get(self.key_for(task.experiment, task.params,
                                     task.seed))

    def put_task(self, task: "SweepTask", value: typing.Any,
                 meta: dict | None = None, *,
                 encoded: str | None = None) -> None:
        self.put(self.key_for(task.experiment, task.params, task.seed),
                 value, experiment=task.experiment, meta=meta,
                 encoded=encoded)

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns the number of keys removed.

        Removes the pack segments, schema-2 ``*.json`` entry files, and
        ``*.tmp`` files orphaned by a writer killed mid-store.
        """
        removed = len(self)
        self.close()
        for pattern in ("pack-*.jsonl", "*.json", "*.tmp"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    continue
                if pattern == "*.json":
                    removed += 1
        self._index = {}
        return removed

    def __len__(self) -> int:
        """Number of live keys in the pack."""
        return len(self._load_index())
