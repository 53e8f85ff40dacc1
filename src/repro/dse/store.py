"""Resumable, content-keyed result store for design-space sweeps.

The store is an append-only JSONL file of columnar *chunk lines*.  Every
:meth:`ResultStore.put_many` call appends one line::

    {"keys": [<sha1>, ...], "columns": {<name>: <base64>, ...},
     "failures": {<sha1>: {...}, ...}}

``keys`` and the columns are parallel: row ``i`` of every column of the
:class:`~repro.dse.batch.MetricTable` (numbers as base64 of their
little-endian bytes, :meth:`~repro.dse.batch.MetricTable.encode`) belongs to
``keys[i]``.  ``failures``, present only when some point failed, maps the key
of a design point whose evaluation failed after exhausting the retry budget
to its :meth:`repro.resilience.TaskFailure.as_record` payload.  Keys are
content hashes over the baseline GPU, the design point and the workload's
layer :meth:`~repro.core.layer.ConvLayerConfig.structural_key` fingerprint
(see :func:`repro.dse.runner.store_keys`), so a sweep that is interrupted and
rerun — or a different sweep that happens to revisit the same point — skips
every evaluation already on disk.  Failure records resume too: a point that
failed permanently is *not* re-evaluated on resume (delete the store file
to force a re-run).

Durability model: every :meth:`ResultStore.put_many` writes and flushes one
line, so a killed process loses at most the chunk being written;
:class:`ResultStore` counts a truncated (or otherwise corrupt) line in
``corrupt_lines`` on load and the next append starts a fresh line.  The
binary columns round-trip bit for bit (``-0.0``, subnormals), which keeps
resumed sweeps bit-identical to uninterrupted ones.  A persistent store
takes an exclusive advisory lock (``flock``) on its JSONL file before the
first append; a second concurrent writer gets :class:`StoreLockedError`
instead of silently interleaving lines.  A store written in an older format
— one line per point (``{"key", "metrics"|"failure", "point"}``) or
per-record chunks (``{"keys", "records"}``) — can never produce a hit under
the current keys, so opening one raises :class:`StaleStoreError` rather than
silently re-evaluating and appending to it.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import spans as obs_spans
from .batch import MetricTable

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
    """The store file holds records of an older format."""


class ResultStore:
    """Keyed metric columns with optional JSONL persistence.

    With ``path=None`` the store lives in memory only (the per-session
    dedupe memo); with a path it loads every chunk line on open and appends
    one line per :meth:`put_many`.  :meth:`get_many` answers a whole batch of
    keys at once.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = os.path.expanduser(path) if path else None
        #: key -> row of the metrics table (the chunks, concatenated).
        self._rows: Dict[str, int] = {}
        self._chunks: List[MetricTable] = []
        #: key -> failure payload of a permanently failed evaluation.
        self._failures: Dict[str, Dict[str, object]] = {}
        self._file = None
        #: records answered from disk/memory since open (reporting only).
        self.hits = 0
        #: lines dropped on load because they did not parse (truncated tail).
        self.corrupt_lines = 0
        if self.path and os.path.exists(self.path):
            self._load()

    # -- persistence ----------------------------------------------------

    def _load(self) -> None:
        with obs_spans.trace_deep("dse.store.load"), \
                open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                payload = None
                try:
                    payload = json.loads(line)
                    keys = payload["keys"]
                    table = MetricTable.decode(payload["columns"], len(keys))
                    failures = dict(payload.get("failures", {}))
                except (ValueError, KeyError, TypeError):
                    if isinstance(payload, dict) and (
                            "key" in payload or "records" in payload):
                        raise StaleStoreError(
                            f"result store {self.path!r} holds records of "
                            "an older format that can never match current "
                            "keys; delete the file or use a new --store"
                        ) from None
                    self.corrupt_lines += 1
                    continue
                self._add(keys, table, failures)

    def _add(self, keys: List[str], table: MetricTable,
             failures: Dict[str, Dict[str, object]]) -> None:
        start = sum(len(chunk) for chunk in self._chunks)
        self._rows.update(zip(keys, range(start, start + len(keys))))
        self._chunks.append(table)
        self._failures.update(failures)

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

    def _table(self) -> MetricTable:
        """Every metrics row, in row order (chunks merged on demand)."""
        if len(self._chunks) != 1:
            self._chunks = [MetricTable.concat(self._chunks)]
        return self._chunks[0]

    def get_many(self, keys: Sequence[str]
                 ) -> Tuple[np.ndarray, MetricTable, Dict[int, Dict]]:
        """Look up many keys at once.

        Returns ``(found, table, failures)``: the positions in ``keys``
        holding metrics, their metrics rows (in that order), and position ->
        failure payload for keys recorded as failed evaluations.
        """
        rows = np.fromiter((self._rows.get(key, -1) for key in keys),
                           dtype=np.intp, count=len(keys))
        found = np.flatnonzero(rows >= 0)
        table = (self._table().take(rows[found]) if len(found)
                 else MetricTable.from_records(()))
        failures = ({position: self._failures[key]
                     for position, key in enumerate(keys)
                     if key in self._failures} if self._failures else {})
        self.hits += len(found) + len(failures)
        return found, table, failures

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """One key's metrics dict or ``{FAILURE_FIELD: payload}`` record."""
        found, table, failures = self.get_many([key])
        if failures:
            return {FAILURE_FIELD: failures[0]}
        return table[0] if len(found) else None

    def put_many(self, keys: Sequence[str], table: MetricTable,
                 failures: Optional[Mapping[str, Dict[str, object]]] = None
                 ) -> None:
        """Insert metrics rows and failure payloads with one flushed line.

        Row ``i`` of ``table`` is the metrics of ``keys[i]``; ``failures``
        maps keys to :meth:`~repro.resilience.TaskFailure.as_record`
        payloads.  Keys already in the store (or earlier in the call) are
        skipped; nothing is written when every key is.
        """
        if len(keys) != len(table):
            raise ValueError(f"{len(keys)} keys for {len(table)} rows")
        with obs_spans.trace_deep("dse.store.write", points=len(keys)):
            fresh = dict(zip(keys, range(len(keys))))
            if len(fresh) != len(keys):  # repeated keys: the first one wins
                fresh = {}
                for row, key in enumerate(keys):
                    fresh.setdefault(key, row)
            if self:
                fresh = {key: row for key, row in fresh.items()
                         if key not in self}
            if len(fresh) != len(keys):
                table = table.take(list(fresh.values()))
            keys = list(fresh)
            failures = {key: failure
                        for key, failure in (failures or {}).items()
                        if key not in self and key not in fresh}
            if not keys and not failures:
                return
            self._add(keys, table, failures)
            if self.path is None:
                return
            line = {"keys": keys, "columns": table.encode()}
            if failures:
                line["failures"] = failures
            self._open_for_append()
            self._file.write(json.dumps(line) + "\n")
            self._file.flush()

    def __contains__(self, key: str) -> bool:
        return key in self._rows or key in self._failures

    def __len__(self) -> int:
        return len(self._rows) + len(self._failures)

    def keys(self) -> Iterator[str]:
        return chain(self._rows, self._failures)

    def failures(self) -> Dict[str, Dict[str, object]]:
        """All failure records currently in the store, keyed by store key."""
        return dict(self._failures)

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
