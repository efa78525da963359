"""The on-disk measurement store.

Layout of a store directory::

    <root>/
      store.json            # format version + shard count (atomic write)
      segments/
        shard-00.seg ...    # append-only record journals (see .segment)

Records are spread across a fixed set of segment files by their key, so
long campaigns never funnel every append through one ever-growing file
and ``gc`` compaction rewrites stay bounded. Opening a store scans every
segment once: truncated tails (interrupted appends) are trimmed in
place, damaged interior records are remembered for ``verify``/``gc``,
and an in-memory key index of intact records is built. Appends are
group commits (:meth:`MeasurementStore.put_many`): one lock, one tail
check and one ``write`` + flush + fsync per touched shard per batch, so
a record survives any crash once its batch's commit has returned.
Campaigns commit their /24s in batches (see :mod:`.campaign`).

A campaign has one writer, its parent process (``workers=N`` workers
only measure). Two campaigns sharing a store still write safely: every
append (and the open-time tail recovery, and gc compaction) runs under
an advisory ``flock`` on a sidecar lock file (see :mod:`.locking`), so
frames from different processes never interleave and a torn tail left
by a SIGKILLed writer is trimmed by the next appender before its record
goes down. A process sees records other processes appended after it
opened the store only when it opens it again.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.trace import span, trace_event, trace_warning
from ..util.fileio import atomic_write_text, atomic_writer
from ..util.hashing import stable_string_hash
from . import segment as segmod
from .codec import (
    KIND_ARTIFACT,
    KIND_SLASH24,
    frame_record,
)
from .locking import FileLock
from .segment import CorruptRecord

FORMAT_VERSION = 2
DEFAULT_SHARDS = 16
META_FILE = "store.json"
SEGMENT_DIR = "segments"
LOCK_FILE = "store.lock"


@dataclass
class VerifyReport:
    """Outcome of a full checksum pass over every segment."""

    records_ok: int = 0
    corrupt: List[CorruptRecord] = field(default_factory=list)
    truncated_tails: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.truncated_tails


class StoreError(RuntimeError):
    """The store directory is unusable (bad metadata, wrong version)."""


class MeasurementStore:
    """Append-only, sharded, checksummed key → record store."""

    def __init__(self, root: str, shards: int = DEFAULT_SHARDS) -> None:
        self.root = os.path.abspath(root)
        self.segment_dir = os.path.join(self.root, SEGMENT_DIR)
        self._append_handles: Dict[int, IO[bytes]] = {}
        #: key → (shard index, decoded document). Records are small at
        #: our scenario scales, so the index keeps documents in memory;
        #: the files remain the durable source of truth.
        self._index: Dict[str, Tuple[int, Dict[str, Any]]] = {}
        self.corrupt_records: List[CorruptRecord] = []
        #: Appends observed since open, per kind (diagnostics).
        self.appended: Dict[str, int] = {}
        #: Duplicate keys seen while scanning (later record wins); gc
        #: compaction drops the superseded ones.
        self.superseded = 0
        #: Per-shard frame boundary this process has structurally
        #: validated; the append path walks forward from here to find
        #: (and trim) torn tails left by writers that died mid-append.
        self._valid_offsets: Dict[int, int] = {}
        #: Inter-process append/recovery lock (kernel-released on death).
        self._lock = FileLock(os.path.join(self.root, LOCK_FILE))
        self.shards = self._init_layout(shards)
        # Open-time recovery truncates torn tails, which must never race
        # a live writer mid-append in another process.
        with self._lock.exclusive():
            self._load()

    # -- lifecycle --------------------------------------------------------

    def _init_layout(self, shards: int) -> int:
        os.makedirs(self.segment_dir, exist_ok=True)
        meta_path = os.path.join(self.root, META_FILE)
        if os.path.exists(meta_path):
            try:
                with open(meta_path) as handle:
                    meta = json.load(handle)
                version = meta["version"]
                shards = int(meta["shards"])
            except (OSError, ValueError, KeyError) as error:
                raise StoreError(
                    f"unreadable store metadata at {meta_path}: {error}"
                ) from error
            if version != FORMAT_VERSION:
                raise StoreError(
                    f"store format v{version} at {self.root}; this build "
                    f"reads v{FORMAT_VERSION}: rebuild it in a new "
                    "--store directory"
                )
            return shards
        if shards < 1:
            raise ValueError("a store needs at least one shard")
        atomic_write_text(
            meta_path,
            json.dumps({"version": FORMAT_VERSION, "shards": shards}) + "\n",
        )
        return shards

    def _segment_path(self, shard: int) -> str:
        return os.path.join(self.segment_dir, f"shard-{shard:02x}.seg")

    def _shard_of(self, key: str) -> int:
        try:
            prefix = int(key[:8], 16)
        except ValueError:
            # Fingerprint keys are hex, but the store accepts any string
            # key — fall back to hashing the whole thing.
            prefix = stable_string_hash(key)
        return prefix % self.shards

    def _load(self) -> None:
        for shard in range(self.shards):
            path = self._segment_path(shard)
            if not os.path.exists(path):
                continue
            outcome = segmod.recover(path)
            self._valid_offsets[shard] = outcome.tail_offset
            self.corrupt_records.extend(outcome.corrupt)
            for offset, document in outcome.records:
                key = document.get("key")
                if not isinstance(key, str):
                    self.corrupt_records.append(
                        CorruptRecord(path, offset, "record missing key")
                    )
                    continue
                if key in self._index:
                    self.superseded += 1
                self._index[key] = (shard, document)
        # Recovery that drops data must never be silent: a store that
        # opened with damaged interior records serves fewer cached
        # measurements than the caller durably checkpointed.
        if self.corrupt_records:
            trace_warning(
                "store.corrupt_on_open",
                f"{len(self.corrupt_records)} damaged records skipped "
                f"while opening {self.root} (run `store gc` to compact)",
                records=len(self.corrupt_records),
            )
        trace_event(
            "store.opened",
            path=self.root,
            records=len(self._index),
            corrupt=len(self.corrupt_records),
            superseded=self.superseded,
        )

    def _close_append_handles(self) -> None:
        for handle in self._append_handles.values():
            handle.close()
        self._append_handles.clear()

    def close(self) -> None:
        """Release every file handle (segment writers and the lock).

        Long-running workers hold one append handle per touched shard;
        fd exhaustion is fatal for them, so owners must close stores
        deterministically — the suite promotes ``ResourceWarning`` to an
        error to keep it that way. A closed store can keep serving reads
        from its in-memory index; the next ``put`` reopens handles.
        """
        self._close_append_handles()
        self._lock.close()

    def __enter__(self) -> "MeasurementStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Deterministic close() is the contract; this is a last-resort
        # guard so an owner bug degrades to an fd held slightly longer,
        # not to an interpreter-shutdown ResourceWarning race.
        with contextlib.suppress(Exception):
            self.close()

    # -- reads ------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._index.get(key)
        return entry[1] if entry is not None else None

    def keys(self) -> Iterator[str]:
        return iter(self._index)

    def documents(self) -> Iterator[Dict[str, Any]]:
        for _, document in self._index.values():
            yield document

    # -- writes -----------------------------------------------------------

    def put(self, document: Dict[str, Any]) -> None:
        """Durably append one record (document must carry a ``key``)."""
        self.put_many([document])

    def put_many(self, documents: Sequence[Dict[str, Any]]) -> None:
        """Durably append records in one group commit.

        Every document must carry a ``key``. The store's advisory lock
        is taken once, across processes. For each shard the batch
        touches, the frame boundary is re-walked once from this
        process's last validated offset: frames appended by *other*
        processes since then are stepped over, and a torn tail left by
        a writer killed mid-append is truncated — otherwise our records
        would land beyond garbage where no scanner could reach them.
        The shard's frames then go down in one ``write``, flushed and
        fsynced once, in batch order, so a segment ends up byte-equal
        to what one ``put`` per document would have written.
        """
        shards = [self._shard_of(document["key"]) for document in documents]
        frames: Dict[int, List[bytes]] = {}
        for shard, document in zip(shards, documents):
            frames.setdefault(shard, []).append(frame_record(document))
        with self._lock.exclusive():
            for shard, shard_frames in frames.items():
                data = b"".join(shard_frames)
                handle = self._append_handles.get(shard)
                if handle is None:
                    handle = open(self._segment_path(shard), "ab")
                    self._append_handles[shard] = handle
                valid_end = self._reclaim_tail(shard, handle)
                segmod.append(handle, data)
                self._valid_offsets[shard] = valid_end + len(data)
        for shard, document in zip(shards, documents):
            key = document["key"]
            if key in self._index:
                self.superseded += 1
            self._index[key] = (shard, document)
            kind = str(document.get("kind", "?"))
            self.appended[kind] = self.appended.get(kind, 0) + 1

    def _reclaim_tail(self, shard: int, handle: IO[bytes]) -> int:
        """Validate (and if torn, trim) the segment tail; returns the
        end-of-file offset a fresh append will land at. Caller holds
        the exclusive lock."""
        path = self._segment_path(shard)
        valid_end, size = segmod.validated_tail(
            path, self._valid_offsets.get(shard, 0)
        )
        if valid_end < size:
            # A writer died mid-append; under the exclusive lock no one
            # is mid-write now, so the partial frame is a true orphan.
            os.truncate(path, valid_end)
            handle.seek(0, os.SEEK_END)
            trace_warning(
                "store.torn_tail_trimmed",
                f"trimmed {size - valid_end} torn bytes from {path} "
                "(writer died mid-append; its record will be rewritten)",
                segment=path,
                trimmed=size - valid_end,
            )
        return valid_end

    # -- maintenance ------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Re-scan every segment from disk, checking all checksums."""
        report = VerifyReport()
        with span("store.verify", path=self.root):
            for shard in range(self.shards):
                path = self._segment_path(shard)
                if not os.path.exists(path):
                    continue
                outcome = segmod.scan(path)
                report.records_ok += len(outcome.records)
                report.corrupt.extend(outcome.corrupt)
                if outcome.has_truncated_tail:
                    report.truncated_tails += 1
        if not report.clean:
            trace_warning(
                "store.verify_failed",
                f"verify found {len(report.corrupt)} corrupt records and "
                f"{report.truncated_tails} truncated tails in {self.root}",
                corrupt=len(report.corrupt),
                truncated_tails=report.truncated_tails,
            )
        return report

    def gc(self) -> Dict[str, int]:
        """Compact every segment: drop damaged and superseded records.

        Each shard is rewritten to a temporary file and atomically
        swapped in, so a crash mid-compaction leaves either the old or
        the new segment, never a mix.
        """
        with span("store.gc", path=self.root), self._lock.exclusive():
            return self._gc()

    def _gc(self) -> Dict[str, int]:
        self._close_append_handles()
        dropped_corrupt = 0
        dropped_superseded = 0
        for shard in range(self.shards):
            path = self._segment_path(shard)
            if not os.path.exists(path):
                continue
            outcome = segmod.scan(path)
            # Keep only each key's final occurrence, in original order.
            final: Dict[str, int] = {}
            for offset, document in outcome.records:
                key = document.get("key")
                if isinstance(key, str):
                    final[key] = offset
            kept_offsets = set(final.values())
            kept = [
                (offset, document)
                for offset, document in outcome.records
                if offset in kept_offsets
            ]
            dropped_corrupt += len(outcome.corrupt)
            dropped_superseded += len(outcome.records) - len(kept)
            if len(kept) == len(outcome.records) and not outcome.corrupt \
                    and not outcome.has_truncated_tail:
                continue
            with atomic_writer(path, "wb") as handle:
                for _, document in kept:
                    handle.write(frame_record(document))
        self.corrupt_records = []
        self.superseded = 0
        # Rebuild the index from the compacted files.
        self._index.clear()
        self._valid_offsets.clear()
        self._load()
        trace_event(
            "store.gc_done",
            path=self.root,
            dropped_corrupt=dropped_corrupt,
            dropped_superseded=dropped_superseded,
            records=len(self._index),
        )
        return {
            "dropped_corrupt": dropped_corrupt,
            "dropped_superseded": dropped_superseded,
        }

    # -- reporting --------------------------------------------------------

    def info(self) -> Dict[str, object]:
        sizes = [
            os.path.getsize(self._segment_path(shard))
            for shard in range(self.shards)
            if os.path.exists(self._segment_path(shard))
        ]
        kinds: Dict[str, int] = {}
        for document in self.documents():
            kind = str(document.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "path": self.root,
            "format_version": FORMAT_VERSION,
            "shards": self.shards,
            "segments": len(sizes),
            "bytes": sum(sizes),
            "records": len(self._index),
            "slash24_records": kinds.get(KIND_SLASH24, 0),
            "artifact_records": kinds.get(KIND_ARTIFACT, 0),
            "campaigns": len(self.campaigns()),
            "corrupt_records": len(self.corrupt_records),
            "superseded_records": self.superseded,
        }

    def campaigns(self) -> Dict[str, Dict[str, int]]:
        """Campaign fingerprint → {records, probes} over /24 records."""
        groups: Dict[str, Dict[str, int]] = {}
        for document in self.documents():
            if document.get("kind") != KIND_SLASH24:
                continue
            fingerprint = str(document.get("campaign", "?"))
            group = groups.setdefault(
                fingerprint, {"records": 0, "probes": 0}
            )
            group["records"] += 1
            group["probes"] += int(document["stats"]["sent"])
        return groups
