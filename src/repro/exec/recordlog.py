"""Append-only JSONL record log with torn-tail recovery.

The one durable log primitive behind the sweep checkpoint
(:mod:`repro.exec.checkpoint`) and the soak journal
(:mod:`repro.soak.journal`): a header line, then one JSON object per
line.  The line framing (:func:`encode_line`, :func:`frame_lines`) is
shared with the result cache's pack segments (:mod:`repro.exec.cache`).
An append costs its own bytes plus one ``fsync``, however long the log
already is.  Every write ends on a newline and is ``fsync``\\ ed
before it returns, so a crash can tear only the final line:
:meth:`RecordLog.open_resume` truncates such a tail in place, while an
unparseable line with complete lines after it cannot be explained by a
crash and raises :class:`RecordLogCorrupt`.
"""

from __future__ import annotations

import json
import os
import pathlib
import typing

from repro.errors import ReproError


class RecordLogCorrupt(ReproError):
    """The log is damaged in a way a crash cannot explain."""


def fsync_dir(directory: pathlib.Path) -> None:
    """``fsync`` a directory so a create or rename in it is durable."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - directories not fsync-able
        pass
    finally:
        os.close(dir_fd)


def encode_line(record: dict, *, sort_keys: bool = False,
                **encoded: str) -> bytes:
    """One record as a complete, newline-terminated JSON line.

    ``encoded`` fields are JSON text serialized once elsewhere (a task
    value shared by the cache and the checkpoint); they are spliced in
    verbatim after ``record``'s own fields instead of re-encoded.
    """
    text = json.dumps(record, sort_keys=sort_keys, separators=(",", ":"))
    if encoded:
        spliced = ",".join(f"{json.dumps(name)}:{value}"
                           for name, value in encoded.items())
        text = f"{text[:-1]}{',' if record else ''}{spliced}}}"
    return text.encode("utf-8") + b"\n"


def frame_lines(raw: bytes) -> typing.Iterator[tuple[int, bytes]]:
    """``(offset, line)`` for every newline-terminated line of ``raw``.

    The newline is not part of ``line``.  An unterminated tail is torn
    by definition and never yielded.
    """
    offset = 0
    end = raw.find(b"\n")
    while end >= 0:
        yield offset, raw[offset:end]
        offset = end + 1
        end = raw.find(b"\n", offset)


class RecordLog:
    """One append-only JSONL file: a header line, then records."""

    #: Raised on mid-file damage; subclasses narrow it.
    corrupt: type[RecordLogCorrupt] = RecordLogCorrupt
    #: Canonical (sorted-key) lines; off keeps a record's dict order.
    sort_keys = False

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self._open = False

    def encode(self, record: dict, **encoded: str) -> bytes:
        """One record as a complete line (see :func:`encode_line`)."""
        return encode_line(record, sort_keys=self.sort_keys, **encoded)

    def check_header(self, header: dict) -> None:
        """Raise :attr:`corrupt` if ``header`` does not belong here."""

    # -- opening -----------------------------------------------------------
    def open_fresh(self, header: dict) -> None:
        """Start a new log holding only ``header``, replacing any file."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._write(self.encode(header), "wb")
        fsync_dir(self.path.parent)
        self._open = True

    def open_resume(self) -> tuple[dict | None, list[dict]]:
        """Truncate a torn tail, reopen; return (header, records).

        A missing or empty file yields ``(None, [])`` and stays closed.
        """
        header, records, good_end, size = self._scan()
        if good_end < size:
            with open(self.path, "rb+") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        self._open = header is not None
        return header, records

    @classmethod
    def read(cls, path: str | os.PathLike
             ) -> tuple[dict | None, list[dict]]:
        """Parse a log read-only: a torn tail is ignored, not truncated."""
        header, records, _, _ = cls(path)._scan()
        return header, records

    def _scan(self) -> tuple[dict | None, list[dict], int, int]:
        """(header, records, last good byte offset, file size)."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            raw = b""
        lines: list[dict] = []
        offset = 0
        segments = list(frame_lines(raw))
        for index, (start, line) in enumerate(segments):
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("line is not a JSON object")
            except ValueError as error:
                if index == len(segments) - 1:
                    break  # torn line that happens to end in a newline
                raise self.corrupt(
                    f"{self.path}: unreadable record {index} ({error}) "
                    f"with records after it") from error
            lines.append(record)
            offset = start + len(line) + 1
        if not lines:
            return None, [], 0, len(raw)
        self.check_header(lines[0])
        return lines[0], lines[1:], offset, len(raw)

    # -- appending ---------------------------------------------------------
    def write(self, data: bytes) -> None:
        """Durably append encoded lines (write + flush + fsync)."""
        if not self._open:
            raise ReproError(f"{self.path}: record log used before open")
        self._write(data, "ab")

    def _write(self, data: bytes, mode: str) -> None:
        with open(self.path, mode) as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
