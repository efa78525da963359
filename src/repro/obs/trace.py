"""Span-based tracing with an append-only JSONL event journal.

One trace is one journal file: each line is a self-contained JSON
object, appended in order, so a killed run leaves at most one truncated
final line (which :func:`summarize_trace` tolerates, the same
truncated-tail discipline the measurement store's segments follow).
Durability mirrors :mod:`repro.util.fileio`: every line is flushed, and
the OS buffers are fsynced periodically and on close.

Event kinds::

    {"seq": 3, "ts": ..., "kind": "begin", "name": "campaign.run", "span": 2, ...}
    {"seq": 9, "ts": ..., "kind": "end",   "name": "campaign.run", "span": 2,
     "seconds": 1.73, ...}
    {"seq": 4, "ts": ..., "kind": "event", "name": "store.opened", ...}
    {"seq": 5, "ts": ..., "kind": "warning", "name": "campaign.parallel_fallback",
     "message": "...", ...}

Tracing is **off by default** and zero-cost when off: the module-level
:func:`span` helper returns a shared null context manager without
touching the journal, and :func:`trace_event` returns immediately.
Attribute values are encoded with ``default=str``, so callers may pass
rich objects (prefixes, exceptions) without paying to stringify them on
the disabled path.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import IO, Dict, Iterator, List, Optional

from ..util.fileio import fsync_handle

#: Environment variable naming the journal path (same effect as the
#: CLI's ``--trace PATH``).
TRACE_ENV = "REPRO_TRACE"

#: fsync the journal every this many lines (and on close). Each line is
#: still *flushed* immediately, so only an OS crash can lose the tail.
_SYNC_EVERY = 64


class Tracer:
    """One trace journal. Disabled (a no-op) when ``path`` is None."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.enabled = path is not None
        self._handle: Optional[IO[str]] = None
        self._sequence = 0
        self._spans = 0
        self._since_sync = 0

    # -- journal ----------------------------------------------------------

    def _write(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._sequence += 1
        record = {"seq": self._sequence, "ts": time.time(), **record}
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=str) + "\n"
        )
        self._handle.flush()
        self._since_sync += 1
        if self._since_sync >= _SYNC_EVERY:
            fsync_handle(self._handle)
            self._since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            fsync_handle(self._handle)
            self._handle.close()
            self._handle = None

    # -- emitting ---------------------------------------------------------

    def event(self, name: str, **attrs: object) -> None:
        if not self.enabled:
            return
        self._write({"kind": "event", "name": name, **attrs})

    def warning(self, name: str, message: str, **attrs: object) -> None:
        if not self.enabled:
            return
        self._write(
            {"kind": "warning", "name": name, "message": message, **attrs}
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        self._spans += 1
        span_id = self._spans
        self._write({"kind": "begin", "name": name, "span": span_id, **attrs})
        started = time.perf_counter()
        error: Optional[str] = None
        try:
            yield
        except BaseException as exc:
            error = repr(exc)
            raise
        finally:
            record: Dict[str, object] = {
                "kind": "end",
                "name": name,
                "span": span_id,
                "seconds": time.perf_counter() - started,
            }
            if error is not None:
                record["error"] = error
            self._write(record)


#: The ambient tracer; disabled until :func:`configure_tracing`.
_TRACER = Tracer(None)

#: Shared do-nothing context manager returned by :func:`span` when
#: tracing is off — no allocation on the hot path.
_NULL_SPAN = contextlib.nullcontext()


def tracer() -> Tracer:
    return _TRACER


def configure_tracing(path: Optional[str]) -> Tracer:
    """Install (or, with None, disable) the ambient tracer.

    The previous journal is fsynced and closed first, so reconfiguring
    never interleaves two writers on one file.
    """
    global _TRACER
    _TRACER.close()
    _TRACER = Tracer(path)
    return _TRACER


def trace_path_from_env() -> Optional[str]:
    """The journal path named by ``$REPRO_TRACE`` (None when unset)."""
    return os.environ.get(TRACE_ENV) or None


def span(name: str, **attrs: object):
    """A span on the ambient tracer; a shared no-op context when off."""
    if not _TRACER.enabled:
        return _NULL_SPAN
    return _TRACER.span(name, **attrs)


def trace_event(name: str, **attrs: object) -> None:
    if _TRACER.enabled:
        _TRACER.event(name, **attrs)


def trace_warning(name: str, message: str, **attrs: object) -> None:
    if _TRACER.enabled:
        _TRACER.warning(name, message, **attrs)


# -- reading a journal back ------------------------------------------------


@dataclass
class SpanSummary:
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    errors: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Aggregate view of one journal, for ``trace summarize``."""

    path: str
    events: int = 0
    corrupt_lines: int = 0
    spans: Dict[str, SpanSummary] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    warnings: List[Dict[str, object]] = field(default_factory=list)
    unclosed_spans: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt_lines and not self.warnings


def summarize_trace(path: str) -> TraceSummary:
    """Read a journal and aggregate spans, events and warnings.

    A truncated final line (killed writer) is counted as corrupt and
    skipped rather than failing the whole summary; ``begin`` records
    with no matching ``end`` are reported as unclosed.
    """
    summary = TraceSummary(path=path)
    open_spans: Dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                summary.corrupt_lines += 1
                continue
            summary.events += 1
            kind = record.get("kind")
            name = str(record.get("name", "?"))
            if kind == "begin":
                open_spans[int(record.get("span", -1))] = name
            elif kind == "end":
                open_spans.pop(int(record.get("span", -1)), None)
                entry = summary.spans.setdefault(name, SpanSummary())
                seconds = float(record.get("seconds", 0.0))
                entry.count += 1
                entry.total_seconds += seconds
                entry.max_seconds = max(entry.max_seconds, seconds)
                if "error" in record:
                    entry.errors += 1
            elif kind == "warning":
                summary.warnings.append(record)
            else:
                summary.event_counts[name] = (
                    summary.event_counts.get(name, 0) + 1
                )
    summary.unclosed_spans = len(open_spans)
    return summary
