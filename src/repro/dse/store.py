"""Resumable, content-keyed result store for design-space sweeps.

The store is an append-only JSONL file of *chunk lines*.  Every
:meth:`ResultStore.put_many` call appends one line,
``{"keys": [<sha1>, ...], "records": [<record>, ...]}``, whose two lists are
parallel: a record is either an evaluation's metrics dict or, for a design
point whose evaluation failed after exhausting the retry budget,
``{"failure": {...}}`` with a :meth:`repro.resilience.TaskFailure.as_record`
payload.  The line is one plain ``json.dumps`` of the records as given, so a
record reloads with the same keys in the same order.  Keys are content
hashes over the baseline GPU, the design point and the workload's layer
:meth:`~repro.core.layer.ConvLayerConfig.structural_key` fingerprint (see
:func:`repro.dse.runner.store_keys`), so a sweep that is interrupted and
rerun — or a different sweep that happens to revisit the same point — skips
every evaluation already on disk.  Failure records resume too: a point that
failed permanently is *not* re-evaluated on resume (delete the store file
to force a re-run).

Durability model: every :meth:`ResultStore.put_many` writes and flushes one
line, so a killed process loses at most the chunk being written;
:class:`ResultStore` counts a truncated (or otherwise corrupt) line in
``corrupt_lines`` on load and the next append starts a fresh line.  JSON
float serialization round-trips exactly, which keeps resumed sweeps
bit-identical to uninterrupted ones.  A persistent store takes an exclusive
advisory lock (``flock``) on its JSONL file before the first append; a
second concurrent writer gets :class:`StoreLockedError` instead of silently
interleaving lines.  A store written in the older one-line-per-point format
(``{"key", "metrics"|"failure", "point"}``) can never produce a hit under the
current keys, so opening one raises :class:`StaleStoreError` rather than
silently re-evaluating and appending to it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX platform: advisory locking degrades to no-op
    fcntl = None

#: field distinguishing a failure record from a metrics record.
FAILURE_FIELD = "failure"


def is_failure_record(record: Optional[Dict[str, object]]) -> bool:
    """Whether a stored record describes a failed evaluation."""
    return isinstance(record, dict) and FAILURE_FIELD in record


class StoreLockedError(RuntimeError):
    """Another process holds the store file's exclusive writer lock."""


class StaleStoreError(ValueError):
    """The store file holds one-line-per-point records of an older format."""


class ResultStore:
    """Keyed record store with optional JSONL persistence.

    With ``path=None`` the store is a plain in-memory dict (useful as the
    per-session dedupe memo); with a path it loads every chunk line on open
    and appends one line per :meth:`put_many` (:meth:`put` and
    :meth:`put_failure` are one-pair calls).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = os.path.expanduser(path) if path else None
        self._records: Dict[str, Dict[str, object]] = {}
        self._file = None
        #: records answered from disk/memory since open (reporting only).
        self.hits = 0
        #: lines dropped on load because they did not parse (truncated tail).
        self.corrupt_lines = 0
        if self.path and os.path.exists(self.path):
            self._load()

    # -- persistence ----------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                payload = None
                try:
                    payload = json.loads(line)
                    chunk = dict(zip(payload["keys"], payload["records"],
                                     strict=True))
                except (ValueError, KeyError, TypeError):
                    if isinstance(payload, dict) and "key" in payload:
                        raise StaleStoreError(
                            f"result store {self.path!r} holds "
                            "one-line-per-point records of an older format "
                            "that can never match current keys; delete the "
                            "file or use a new --store") from None
                    self.corrupt_lines += 1
                    continue
                self._records.update(chunk)

    def _lock_file(self) -> None:
        """Take the exclusive advisory writer lock (released on close)."""
        if fcntl is None:
            return
        try:
            fcntl.flock(self._file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle, self._file = self._file, None
            handle.close()
            raise StoreLockedError(
                f"result store {self.path!r} is locked by another writer; "
                "point concurrent sweeps at distinct store files") from exc

    def _open_for_append(self) -> None:
        if self._file is not None:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock_file()
        # a kill mid-append can leave a torn line without a newline;
        # start clean so the next record does not fuse with the debris.
        if self._file.tell() > 0:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    self._file.write("\n")

    # -- mapping interface ----------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        record = self._records.get(key)
        if record is not None:
            self.hits += 1
        return record

    def put(self, key: str, metrics: Dict[str, object]) -> None:
        self.put_many([(key, metrics)])

    def put_many(self, pairs) -> None:
        """Insert ``(key, record)`` pairs with one appended, flushed line.

        ``record`` is a metrics dict or a ``{FAILURE_FIELD: ...}`` failure
        record.  Keys already in the store (or earlier in ``pairs``) are
        skipped; nothing is written when every key is.
        """
        keys: List[str] = []
        records: List[Dict[str, object]] = []
        for key, record in pairs:
            if key in self._records:
                continue
            self._records[key] = record
            keys.append(key)
            records.append(record)
        if keys and self.path is not None:
            self._open_for_append()
            self._file.write(json.dumps({"keys": keys, "records": records})
                             + "\n")
            self._file.flush()

    def put_failure(self, key: str, failure: Dict[str, object]) -> None:
        """Record a permanently-failed evaluation (skipped on resume)."""
        self.put_many([(key, {FAILURE_FIELD: failure})])

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def items(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        return iter(self._records.items())

    def failures(self) -> Dict[str, Dict[str, object]]:
        """All failure records currently in the store, keyed by store key."""
        return {key: record[FAILURE_FIELD]
                for key, record in self._records.items()
                if is_failure_record(record)}

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            self._file.close()  # closing the fd releases the advisory lock
            self._file = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ResultStore(path={self.path!r}, records={len(self)}, "
                f"hits={self.hits})")
