"""On-disk result cache for sweep tasks.

Entries are JSON files keyed by a SHA-256 content hash of the task
configuration (experiment name, params, seed) plus the *code version*
(package version and a cache schema version), so upgrading the library
or changing any input silently invalidates stale entries.  Result values
are experiment dataclasses; they round-trip through a small tagged JSON
encoding that reconstructs the exact dataclass types on load.

Every entry carries a SHA-256 checksum of its canonical encoded result;
a truncated, corrupted, or tampered file fails verification on read and
is treated as a miss — logged, deleted, and rebuilt on the next store —
never as silently wrong data.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import logging
import os
import pathlib
import tempfile
import typing

from repro.errors import ConfigurationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.runner import SweepTask

logger = logging.getLogger("repro.exec.cache")

#: Bump to invalidate every existing cache entry on disk (result layout
#: or semantics changed without a package-version bump).
#: 2: entries gained a result checksum for integrity verification.
CACHE_SCHEMA_VERSION = 2

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
    as tuples; dicts must have string keys.
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
    if isinstance(value, list):
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


def decode_result(data: typing.Any) -> typing.Any:
    """Inverse of :func:`encode_result`."""
    if isinstance(data, dict):
        if "__dataclass__" in data:
            module_name, _, qualname = data["__dataclass__"].partition(":")
            cls: typing.Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                cls = getattr(cls, part)
            if not dataclasses.is_dataclass(cls):
                raise ConfigurationError(
                    f"{data['__dataclass__']} is not a dataclass")
            fields = {key: decode_result(item)
                      for key, item in data["fields"].items()}
            return cls(**fields)
        if "__tuple__" in data:
            return tuple(decode_result(item) for item in data["__tuple__"])
        return {key: decode_result(item) for key, item in data.items()}
    if isinstance(data, list):
        return [decode_result(item) for item in data]
    return data


def result_checksum(encoded: typing.Any) -> str:
    """SHA-256 of the canonical JSON form of an encoded result."""
    payload = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------

class ResultCache:
    """A directory of content-addressed task results."""

    def __init__(self, directory: str | os.PathLike | None = None, *,
                 version: str | None = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR",
                                       DEFAULT_CACHE_DIR)
        self.directory = pathlib.Path(directory)
        self.version = version if version is not None else _code_version()

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

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    # -- storage -----------------------------------------------------------
    def get(self, key: str) -> tuple[bool, typing.Any]:
        """Return ``(hit, value)``; unreadable entries count as misses.

        A file that exists but cannot be parsed, or whose checksum does
        not match its payload (truncated write, disk corruption, manual
        tampering), is logged, deleted, and reported as a miss so the
        task recomputes and rebuilds the entry.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return False, None
        try:
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            version = entry["version"]
            if version != self.version:
                # Legitimately stale (older code / schema); a plain
                # miss, not corruption — leave the file for inspection.
                return False, None
            checksum = entry["checksum"]
            result = entry["result"]
        except (ValueError, KeyError, TypeError) as error:
            self._discard_corrupt(path, f"unparseable entry: {error}")
            return False, None
        if result_checksum(result) != checksum:
            self._discard_corrupt(path, "checksum mismatch")
            return False, None
        return True, decode_result(result)

    def _discard_corrupt(self, path: pathlib.Path, reason: str) -> None:
        logger.warning(
            "cache entry %s corrupted (%s); deleting and recomputing",
            path.name, reason)
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, value: typing.Any, *,
            experiment: str = "", meta: dict | None = None) -> None:
        """Store ``value`` under ``key`` (atomic rename, last-write-wins)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        encoded = encode_result(value)
        entry = {
            "version": self.version,
            "experiment": experiment,
            "result": encoded,
            "checksum": result_checksum(encoded),
            "meta": meta or {},
        }
        fd, tmp_name = tempfile.mkstemp(dir=self.directory,
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(entry))  # one write, not per chunk
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- task-level convenience -------------------------------------------
    def get_task(self, task: "SweepTask") -> tuple[bool, typing.Any]:
        return self.get(self.key_for(task.experiment, task.params,
                                     task.seed))

    def put_task(self, task: "SweepTask", value: typing.Any,
                 meta: dict | None = None) -> None:
        self.put(self.key_for(task.experiment, task.params, task.seed),
                 value, experiment=task.experiment, meta=meta)

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))
