"""Hierarchical metrics: counters, gauges and timers with dotted names.

A :class:`MetricsRegistry` is the numeric half of the observability
layer. Three design constraints drive it:

* **Picklable** — parallel campaign shards build a registry in the
  worker process and return it with their chunk results, so the
  registry is plain dictionaries of plain numbers.
* **Mergeable** — counters and timers *add* and the merged totals are
  integer (or float-sum) arithmetic, so folding per-shard registries
  reconstructs the campaign-wide totals bit-identically to the serial
  run (the same contract :meth:`repro.probing.session.ProbeStats.merge`
  gives probe accounting).
* **Cheap** — recording a counter is one dict update; nothing is
  formatted or written until a snapshot is asked for.

Names are dotted paths (``campaign.probes.sent``,
``phase.campaign``), which gives a hierarchy without any tree
structure: :meth:`MetricsRegistry.subtree` filters by prefix.

An *ambient* registry is kept on a stack: library code records into
:func:`current_metrics` so callers that don't care get a process-wide
registry for free, while tests and pool workers push their own scope
with :func:`metrics_scope`.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Mapping, Optional


class MetricsRegistry:
    """Counters, gauges and timers keyed by dotted metric names."""

    def __init__(self) -> None:
        #: name → integer monotonic count.
        self.counters: Dict[str, int] = {}
        #: name → last observed value (merge takes the other side's).
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

    def subtree(self, prefix: str) -> Dict[str, object]:
        """Every metric at or under ``prefix`` (dot-delimited), as one
        flat name → value mapping (timers report their seconds)."""
        if prefix and not prefix.endswith("."):
            dotted = prefix + "."
        else:
            dotted = prefix
        selected: Dict[str, object] = {}
        for name, value in self.counters.items():
            if name == prefix or name.startswith(dotted):
                selected[name] = value
        for name, value in self.gauges.items():
            if name == prefix or name.startswith(dotted):
                selected[name] = value
        for name, entry in self.timers.items():
            if name == prefix or name.startswith(dotted):
                selected[name] = entry[0]
        return selected

    # -- merging ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in: counters and timers add, gauges
        take the other side's latest value. Returns self."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, (seconds, calls) in other.timers.items():
            self.add_seconds(name, seconds, int(calls))
        return self

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

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        for name, value in dict(data.get("counters", {})).items():
            registry.counters[name] = int(value)
        for name, value in dict(data.get("gauges", {})).items():
            registry.gauges[name] = float(value)
        for name, entry in dict(data.get("timers", {})).items():
            registry.timers[name] = [
                float(entry["seconds"]), int(entry["calls"])
            ]
        return registry

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
