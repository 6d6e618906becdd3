"""Rotating checkpoint store with last-good recovery.

:class:`CheckpointStore` manages a directory of numbered pipeline
snapshots (``ckpt-00000001``, ``ckpt-00000002``, ...) plus an atomically
updated ``LATEST`` pointer file.  Each snapshot is written with the
crash-safe :func:`repro.core.persist.save_pipeline` (staged + renamed,
checksummed manifest), so the store's recovery walk is simple: try the
pointer's snapshot, then every older snapshot newest-first, skipping
anything :func:`~repro.core.persist.load_pipeline` rejects as corrupt —
a process crash mid-save or a bit-flipped file costs one snapshot, not
the service.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import time

from repro.core.persist import load_pipeline, save_pipeline
from repro.core.pipeline import MetaSQL
from repro.obs.metrics import get_registry
from repro.sqlkit.errors import CheckpointError

_SNAPSHOT = re.compile(r"^ckpt-(\d{8})$")
_LATEST = "LATEST"


class CheckpointStore:
    """Keep the last *keep* good checkpoints of a pipeline under *root*.

    An optional *journal* (:class:`repro.obs.journal.Journal`) receives
    a ``checkpoint_skipped`` event for every corrupt/torn snapshot the
    recovery walk steps over — the happy path used to skip silently,
    which hid slow media corruption until the last good snapshot was
    gone.
    """

    def __init__(
        self, root: str | pathlib.Path, keep: int = 3, journal=None
    ) -> None:
        if keep < 1:
            raise ValueError("a checkpoint store must keep at least one")
        self.root = pathlib.Path(root)
        self.keep = keep
        self.journal = journal

    # ------------------------------------------------------------------
    # Inspection.

    def snapshots(self) -> list[pathlib.Path]:
        """Snapshot directories, oldest first."""
        if not self.root.is_dir():
            return []
        found = [
            path
            for path in self.root.iterdir()
            if path.is_dir() and _SNAPSHOT.match(path.name)
        ]
        return sorted(found, key=lambda path: path.name)

    def latest(self) -> pathlib.Path | None:
        """The pointer's snapshot, or the newest on disk as a fallback."""
        pointer = self.root / _LATEST
        if pointer.is_file():
            name = pointer.read_text().strip()
            candidate = self.root / name
            if _SNAPSHOT.match(name) and candidate.is_dir():
                return candidate
        snapshots = self.snapshots()
        return snapshots[-1] if snapshots else None

    # ------------------------------------------------------------------
    # Writing.

    def save(self, pipeline: MetaSQL) -> pathlib.Path:
        """Write a new snapshot, advance ``LATEST``, prune old ones."""
        self.root.mkdir(parents=True, exist_ok=True)
        snapshots = self.snapshots()
        if snapshots:
            last_index = int(_SNAPSHOT.match(snapshots[-1].name).group(1))
        else:
            last_index = 0
        path = self.root / f"ckpt-{last_index + 1:08d}"
        started = time.perf_counter()
        save_pipeline(pipeline, path)
        self._write_pointer(path.name)
        self.prune(protect=path.name)
        get_registry().histogram(
            "checkpoint_save_seconds",
            "Wall seconds to write, point at, and prune one snapshot.",
        ).observe(time.perf_counter() - started)
        return path

    def _write_pointer(self, name: str) -> None:
        pointer = self.root / _LATEST
        staged = self.root / f".{_LATEST}.tmp"
        with open(staged, "w") as handle:
            handle.write(name + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, pointer)

    def prune(self, keep: int | None = None, protect: str | None = None) -> list[str]:
        """Delete stale ``ckpt-NNNNNNNN`` rotations beyond *keep*.

        *keep* defaults to the store's configured retention; the
        ``LATEST`` pointer's snapshot (and *protect*, when given) is
        never deleted even if it falls in the stale range.  Returns the
        deleted snapshot names, oldest first.
        """
        if keep is None:
            keep = self.keep
        if keep < 1:
            raise ValueError("prune must keep at least one snapshot")
        pointer = self.latest()
        protected = {protect} if protect else set()
        if pointer is not None:
            protected.add(pointer.name)
        snapshots = self.snapshots()
        excess = len(snapshots) - keep
        deleted: list[str] = []
        for path in snapshots[:excess] if excess > 0 else []:
            if path.name in protected:
                continue
            shutil.rmtree(path, ignore_errors=True)
            deleted.append(path.name)
        return deleted

    # ------------------------------------------------------------------
    # Recovery.

    def load_latest(self) -> MetaSQL:
        """Restore the last *good* checkpoint.

        Tries the ``LATEST`` pointer first, then every remaining
        snapshot newest-first; snapshots that fail verification
        (truncated, bit-flipped, torn) are skipped.  Raises
        :class:`CheckpointError` only when no snapshot loads.
        """
        tried: list[tuple[str, str]] = []
        started = time.perf_counter()
        for path in self._recovery_order():
            try:
                pipeline = load_pipeline(path)
            except CheckpointError as exc:
                tried.append((path.name, str(exc)))
                self._record_skip(path.name, exc)
                continue
            get_registry().histogram(
                "checkpoint_load_seconds",
                "Wall seconds to restore the last good snapshot "
                "(includes skipped corrupt ones).",
            ).observe(time.perf_counter() - started)
            return pipeline
        detail = (
            "; ".join(f"{name}: {why}" for name, why in tried)
            or "store is empty"
        )
        raise CheckpointError(
            f"no loadable checkpoint under {self.root} ({detail})",
            path=self.root,
        )

    def _record_skip(self, name: str, exc: CheckpointError) -> None:
        """A corrupt snapshot was stepped over: count it and journal it.

        Silent skipping is the recovery walk working as designed, but it
        must still be *observable* — a store quietly burning through its
        rotation is a disk going bad.
        """
        get_registry().counter(
            "metasql_checkpoint_skipped_corrupt_total",
            "Corrupt/torn snapshots skipped during recovery.",
        ).inc()
        if self.journal is None:
            return
        try:
            self.journal.append(
                {
                    "event": "checkpoint_skipped",
                    "store": str(self.root),
                    "snapshot": name,
                    "error": str(exc),
                }
            )
        except Exception:  # repolint: allow[broad-except] — journalling never fails recovery
            pass

    def _recovery_order(self) -> list[pathlib.Path]:
        ordered: list[pathlib.Path] = []
        pointer = self.latest()
        if pointer is not None:
            ordered.append(pointer)
        for path in reversed(self.snapshots()):
            if path not in ordered:
                ordered.append(path)
        return ordered
