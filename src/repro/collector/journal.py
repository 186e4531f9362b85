"""The write-ahead journal: durable exactly-once across collector kills.

A :class:`CollectorJournal` is an append-only file of **admitted**
result frames.  The server appends a record the moment a result clears
the bounded queue — *before* the ack goes back to the client — so the
sequence "ack received" implies "record durable".  A collector that is
SIGKILL'd mid-run replays its journal on restart: the ``(device_id,
seq)`` dedup set is rebuilt from the records instead of living only in
process memory, every journaled payload is re-aggregated exactly once,
and the resends arriving from clients that never saw their acks are
re-acked as duplicates.  That upgrade — from "exactly-once while the
process lives" to "exactly-once across process death" — is what lets
the fleet tier (:mod:`repro.collector.router`) kill and restart
collectors without losing or double-counting a session.

Record format: each record is one binary ``result`` or ``batch`` frame
exactly as the wire codec packs it (:mod:`repro.collector.frames`) — a
4-byte big-endian length prefix followed by the struct-packed body.  No
separate journal schema to version: the journal *is* the wire format,
so a record round-trips through :func:`~repro.collector.frames.decode_any`
like any received frame, and torn tails are detected the same way
truncated connections are.  Readers flatten batch records into their
member results, so replay and :func:`count_journal_records` always
operate per session regardless of how the sessions arrived.

Torn tails: a process killed mid-``write`` leaves a partial record at
the end of the file.  On open the journal scans forward record by
record, keeps the longest valid prefix, truncates the torn bytes, and
appends new records after the last intact one.  A SIGKILL can therefore
cost at most the one record whose ack never went out — which the client
resends anyway.

Sync policy (``CollectorConfig.journal_sync``):

* ``"flush"`` (default) — ``flush()`` per append.  The bytes reach the
  kernel page cache, which survives **process** death (SIGKILL, the
  fault this tier drills); only an OS crash or power loss can lose
  them.
* ``"fsync"`` — ``flush()`` + ``os.fsync`` per append: survives OS
  crash at a per-record fsync cost.
* ``"none"`` — library buffering only; flushed on close.  For
  throughput experiments where durability is not under test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.collector.frames import (
    BINARY_CODEC,
    MAX_FRAME_BYTES,
    Batch,
    FrameError,
    Result,
    decode_any,
    parse_length,
)

#: Accepted values of ``CollectorConfig.journal_sync``.
JOURNAL_SYNC_MODES = ("none", "flush", "fsync")

#: Bytes of the record length prefix (shared with the wire framing).
_PREFIX_LEN = 4


class JournalError(Exception):
    """The journal could not be opened or appended to."""


def journal_path(journal_dir, shard_index: int) -> Path:
    """Where shard ``shard_index`` of a collector tier keeps its journal."""
    return Path(journal_dir) / f"shard-{shard_index:04d}.wal"


@dataclass
class JournalRecovery:
    """What one journal scan found: the intact records and the damage."""

    records: List[Result] = field(default_factory=list)
    valid_bytes: int = 0
    truncated_bytes: int = 0

    @property
    def torn(self) -> bool:
        return self.truncated_bytes > 0


def read_journal(path, max_frame_bytes: int = MAX_FRAME_BYTES) -> JournalRecovery:
    """Scan a journal file into its longest valid prefix of records.

    Returns every intact record in append order and the byte counts
    needed to truncate a torn tail.  A missing file is an empty journal.
    Records are returned raw — duplicates included — because dedup
    policy belongs to the replayer (the server's ``(device, seq)`` set,
    or :func:`dedupe_records` for offline readers).
    """
    path = Path(path)
    if not path.exists():
        return JournalRecovery()
    data = path.read_bytes()
    records: List[Result] = []
    offset = 0
    total = len(data)
    while total - offset >= _PREFIX_LEN:
        try:
            length = parse_length(
                data[offset:offset + _PREFIX_LEN], max_frame_bytes
            )
        except FrameError:
            break
        end = offset + _PREFIX_LEN + length
        if end > total:
            break
        try:
            frame = decode_any(data[offset + _PREFIX_LEN:end])
        except FrameError:
            break
        if isinstance(frame, Batch):
            # batch records flatten to their member results, so every
            # reader (replay, count, dedup) sees one record per session
            records.extend(frame.frames)
        elif isinstance(frame, Result):
            records.append(frame)
        else:
            break
        offset = end
    return JournalRecovery(
        records=records, valid_bytes=offset, truncated_bytes=total - offset
    )


def count_journal_records(path, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """How many intact records a journal currently holds (cheap poll)."""
    return len(read_journal(path, max_frame_bytes).records)


def dedupe_records(records: List[Result]) -> Tuple[List[Result], int]:
    """First-seen-wins dedup by ``(device_id, seq)``; returns (unique, dupes)."""
    seen = set()
    unique: List[Result] = []
    dupes = 0
    for frame in records:
        key = (frame.payload.device_id, frame.seq)
        if key in seen:
            dupes += 1
            continue
        seen.add(key)
        unique.append(frame)
    return unique, dupes


class CollectorJournal:
    """Append-only journal of admitted results for one collector shard.

    Usage is ``open()`` (scan + truncate torn tail + position for
    append), then ``append(frame)`` per admitted result, then
    ``close()``.  ``open()`` returns the :class:`JournalRecovery` so the
    server can rebuild its dedup set and re-aggregate in one pass.
    """

    def __init__(
        self,
        path,
        sync: str = "flush",
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if sync not in JOURNAL_SYNC_MODES:
            raise ValueError(
                f"journal sync must be one of {JOURNAL_SYNC_MODES}, got {sync!r}"
            )
        self.path = Path(path)
        self.sync = sync
        self.max_frame_bytes = max_frame_bytes
        self.appended = 0
        self._fh: Optional[object] = None

    def open(self) -> JournalRecovery:
        """Recover the valid prefix, drop any torn tail, open for append."""
        if self._fh is not None:
            raise JournalError(f"journal {self.path} is already open")
        recovery = read_journal(self.path, self.max_frame_bytes)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if recovery.torn:
                # a kill mid-write left partial bytes: cut back to the
                # last intact record so new appends stay parseable
                with open(self.path, "r+b") as fh:
                    fh.truncate(recovery.valid_bytes)
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path}: {exc}") from exc
        return recovery

    def append(self, frame) -> None:
        """Durably record one admitted result or batch (before its ack)."""
        if self._fh is None:
            raise JournalError(f"journal {self.path} is not open")
        data = BINARY_CODEC.encode(frame, self.max_frame_bytes)
        self._fh.write(data)
        if self.sync != "none":
            self._fh.flush()
            if self.sync == "fsync":
                os.fsync(self._fh.fileno())
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
            finally:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "CollectorJournal":
        if self._fh is None:
            self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
