"""Hierarchical metrics: counters, gauges and timers with dotted names.

A :class:`MetricsRegistry` is the numeric half of the observability
layer: plain dictionaries of plain numbers, recorded only in the
process that owns the run. A ``workers=N`` campaign's workers record
nothing here; their probe counts come back with each chunk they
measured and the parent folds them in, so the counters match the
serial run's bit for bit. Recording a counter is one dict update;
nothing is formatted or written until a snapshot is asked for.

Names are dotted paths (``campaign.probes.sent``, ``phase.campaign``),
which gives a hierarchy without any tree structure.

An *ambient* registry is kept on a stack: library code records into
:func:`current_metrics` so callers that don't care get a process-wide
registry for free, while a caller that wants its own pushes a scope
with :func:`metrics_scope`.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional


class MetricsRegistry:
    """Counters, gauges and timers keyed by dotted metric names."""

    def __init__(self) -> None:
        #: name → integer monotonic count.
        self.counters: Dict[str, int] = {}
        #: name → last observed value.
        self.gauges: Dict[str, float] = {}
        #: name → [accumulated seconds, call count].
        self.timers: Dict[str, List[float]] = {}

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest observed value."""
        self.gauges[name] = value

    def add_seconds(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate wall-clock seconds into a timer."""
        entry = self.timers.get(name)
        if entry is None:
            self.timers[name] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls

    @contextlib.contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager accumulating the block's wall-clock time."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - started)

    # -- reading ----------------------------------------------------------

    def counter_value(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        return self.gauges.get(name, default)

    def timer_seconds(self, name: str) -> float:
        entry = self.timers.get(name)
        return entry[0] if entry is not None else 0.0

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (stable key order for diffable docs)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {
                name: {"seconds": entry[0], "calls": int(entry[1])}
                for name, entry in sorted(self.timers.items())
            },
        }

    def __repr__(self) -> str:  # diagnostics only
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, timers={len(self.timers)})"
        )


#: Ambient registry stack; the root registry lives for the process.
_ACTIVE: List[MetricsRegistry] = [MetricsRegistry()]


def current_metrics() -> MetricsRegistry:
    """The innermost active registry (the process root by default)."""
    return _ACTIVE[-1]


@contextlib.contextmanager
def metrics_scope(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Make ``registry`` (or a fresh one) ambient for the block."""
    scoped = registry if registry is not None else MetricsRegistry()
    _ACTIVE.append(scoped)
    try:
        yield scoped
    finally:
        _ACTIVE.pop()
