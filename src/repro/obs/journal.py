"""Append-only structured event journal (JSONL) with crash-safe replay.

The serving layer appends one JSON object per handled request and the
evaluation harness one per scored example; offline tooling
(:mod:`repro.eval.journal_analysis`) replays the file into per-stage /
per-hardness breakdowns.

Durability follows the same contract as :mod:`repro.core.persist`, adapted
to an append-only file (this module cannot import ``persist`` — that would
cycle through the pipeline — so it re-implements the two small fsync
idioms):

- **Synced appends.**  Every record is one ``\\n``-terminated line,
  flushed and (by default) fsynced before :meth:`Journal.append` returns,
  so an acknowledged record survives a crash.
- **Torn-tail repair.**  A crash mid-write leaves at most one partial
  trailing line.  Reopening for append first terminates such a tail with
  a newline so later records never concatenate onto the torn prefix, and
  :func:`iter_journal` skips unparseable lines instead of failing the
  replay — a crash costs at most the unacknowledged record.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import threading
import time
from typing import Callable, Iterator


class Journal:
    """Thread-safe append-only JSONL event log.

    >>> journal = Journal(tmp_path / "events.jsonl")
    >>> journal.append({"event": "translate", "ok": True})
    >>> next(iter_journal(journal.path))["event"]
    'translate'
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        fsync: bool = True,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._clock = clock if clock is not None else time.time
        self._lock = threading.Lock()
        self._handle: io.BufferedWriter | None = None

    # ------------------------------------------------------------------
    # Writing.

    def _open_locked(self) -> io.BufferedWriter:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._handle = open(self.path, "ab")
            _fsync_dir(self.path.parent)
        return self._handle

    def _repair_torn_tail(self) -> None:
        """Newline-terminate a partial trailing line from a crashed writer."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())

    def append(self, record: dict, stamp: bool = True) -> dict:
        """Durably append one *record*; returns the line as written.

        With *stamp* (the default) a ``"ts"`` wall-clock timestamp from
        the injectable clock is added when the record lacks one.
        """
        if stamp and "ts" not in record:
            record = {**record, "ts": round(self._clock(), 6)}
        line = (
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode()
        with self._lock:
            # The journal lock IS the durable-append serialization
            # point: writers must not interleave write+fsync pairs, so
            # holding it across the I/O is the contract, not a bug.
            # Like every lock in src/, Journal._lock is a leaf:
            # nothing else is ever taken under it.
            handle = self._open_locked()  # locklint: allow[CC002]
            handle.write(line)
            handle.flush()
            if self.fsync:
                # locklint: allow[CC002] — fsync under the append lock
                os.fsync(handle.fileno())
        return record

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_journal(path: str | pathlib.Path) -> Iterator[dict]:
    """Replay a journal, skipping torn/corrupt lines (crash tolerance).

    A missing file replays as empty.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        return
    with open(path, "rb") as handle:
        for raw in handle:
            record = _parse_line(raw)
            if record is not None:
                yield record


def _parse_line(raw: bytes) -> dict | None:
    """One journal line as a dict, or None for blank/corrupt lines."""
    line = raw.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None  # torn write from a crash: skip, don't fail
    return record if isinstance(record, dict) else None


def _fsync_dir(path: pathlib.Path) -> None:
    """fsync a directory so a freshly created journal file survives."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
