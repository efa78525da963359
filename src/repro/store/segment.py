"""Append-only segment files with per-record framing and recovery.

A segment is a sequence of framed records (see :mod:`.codec`). Two
failure shapes matter and are handled differently:

* **Truncated tail** — the process died mid-append, so the final record
  is incomplete. This is the *expected* crash artifact of an append-only
  log; :func:`recover` trims the file back to the last complete record
  on open, and the write that was lost is simply redone by the resumed
  campaign.
* **Interior damage** — a complete record whose checksum no longer
  matches its payload (bit rot, a flipped byte). This is *not* a normal
  crash artifact; the scanner reports it, lookups skip it, ``verify``
  flags it and ``gc`` drops it during compaction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Tuple

from .codec import HEADER_SIZE, RecordCorrupt, decode_payload, parse_header


@dataclass(frozen=True)
class CorruptRecord:
    """One damaged interior record found while scanning a segment."""

    segment: str
    offset: int
    reason: str


@dataclass
class ScanOutcome:
    """Everything a full segment scan learned."""

    #: (offset, decoded document) for every intact record, in file order.
    records: List[Tuple[int, Dict[str, Any]]]
    corrupt: List[CorruptRecord]
    #: File offset after the last complete record; bytes beyond this are
    #: a truncated tail from an interrupted append.
    tail_offset: int
    size: int

    @property
    def has_truncated_tail(self) -> bool:
        return self.tail_offset < self.size


def scan(path: str, start: int = 0) -> ScanOutcome:
    """Scan every record of one segment file from offset ``start``.

    ``start`` must be a frame boundary (0, or a ``tail_offset`` from an
    earlier scan) — incremental re-scans after another process appended
    records resume from the last known-good boundary instead of paying
    for the whole file again.
    """
    records: List[Tuple[int, Dict[str, Any]]] = []
    corrupt: List[CorruptRecord] = []
    size = os.path.getsize(path)
    tail_offset = start
    with open(path, "rb") as handle:
        handle.seek(start)
        offset = start
        while True:
            header = handle.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                break  # clean EOF or truncated header
            try:
                length, crc = parse_header(header)
            except RecordCorrupt as error:
                # A garbled header leaves no trustworthy length to skip
                # by; everything from here on is unreadable. Treat like
                # a tail so recovery can trim it, but also flag it —
                # unlike a truncated tail this is data loss.
                corrupt.append(CorruptRecord(path, offset, str(error)))
                break
            payload = handle.read(length)
            if len(payload) < length:
                break  # truncated payload: interrupted final append
            next_offset = offset + HEADER_SIZE + length
            try:
                records.append((offset, decode_payload(payload, crc)))
            except RecordCorrupt as error:
                corrupt.append(CorruptRecord(path, offset, str(error)))
            offset = next_offset
            tail_offset = next_offset
    return ScanOutcome(
        records=records, corrupt=corrupt, tail_offset=tail_offset, size=size
    )


def recover(path: str, outcome: Optional[ScanOutcome] = None) -> ScanOutcome:
    """Scan a segment and trim any truncated tail in place.

    Returns the (possibly re-used) scan outcome with ``size`` updated to
    the recovered length.
    """
    if outcome is None:
        outcome = scan(path)
    if outcome.has_truncated_tail:
        with open(path, "r+b") as handle:
            handle.truncate(outcome.tail_offset)
            handle.flush()
            os.fsync(handle.fileno())
        outcome.size = outcome.tail_offset
    return outcome


def validated_tail(path: str, start: int = 0) -> Tuple[int, int]:
    """Walk frame boundaries from ``start`` without decoding payloads.

    Returns ``(valid_end, size)``: every frame in ``[start, valid_end)``
    is structurally complete (magic + length + full payload present —
    checksums are *not* verified here), and any bytes in ``[valid_end,
    size)`` are a torn tail left by a writer that died mid-append.
    Callers about to append must truncate that tail first, or their
    record lands beyond garbage where no scanner will ever reach it.
    """
    size = os.path.getsize(path)
    offset = start
    with open(path, "rb") as handle:
        handle.seek(start)
        while True:
            header = handle.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                break
            try:
                length, _ = parse_header(header)
            except RecordCorrupt:
                break
            end = offset + HEADER_SIZE + length
            if end > size:
                break
            offset = end
            handle.seek(offset)
    return offset, size


def append(handle: IO[bytes], frames: bytes, fsync: bool = True) -> int:
    """Append one or more framed records; returns the starting offset.

    ``frames`` is the records' frames concatenated. They are written
    with a single ``write`` call and flushed (plus one ``fsync`` unless
    disabled), so a crash leaves every earlier frame whole and at worst
    a truncated tail that :func:`recover` trims on the next open.
    """
    offset = handle.tell()
    handle.write(frames)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())
    return offset
