"""Outside-in layer spans for the pipeline benchmark.

The benchmark times each layer from the outside: it replaces a layer's
public entry point with a wrapper that opens a span around the call,
runs the pipeline, and puts every attribute back afterwards. Nothing in
the program changes; a span records wall time, CPU time of the process
and its reaped workers, and the simulator's probe counter at both ends.

Spans nest the way the calls nest. A span's *self* time is its duration
minus what its direct children cover, so each instant is attributed to
the innermost open span exactly once, even when a span opens inside one
of the same name.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    times = os.times()
    return (
        times.user + times.system
        + times.children_user + times.children_system
    )


@dataclass
class Span:
    name: str
    parent: int
    wall0: float
    cpu0: float
    probes0: int
    wall1: float = 0.0
    cpu1: float = 0.0
    probes1: int = 0

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    @property
    def probes(self) -> int:
        return self.probes1 - self.probes0


@dataclass
class LayerTotals:
    """One span name's totals: inclusive figures count only outermost
    spans of that name; self time subtracts direct children."""

    wall: float = 0.0
    cpu: float = 0.0
    probes: int = 0
    self_wall: float = 0.0


class Recorder:
    """In-memory span tree of one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.cpu = cpu_seconds
        #: Reads the simulator's probe counter; set once it exists.
        self.probe_counter: Callable[[], int] = lambda: 0
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        record = Span(
            name, parent, self.clock(), self.cpu(), self.probe_counter()
        )
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.probes1 = self.probe_counter()
            record.cpu1 = self.cpu()
            record.wall1 = self.clock()

    def totals(self) -> Dict[str, LayerTotals]:
        """Per-name totals over the whole tree."""
        child_wall = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                child_wall[record.parent] += record.wall
        out: Dict[str, LayerTotals] = {}
        for index, record in enumerate(self.spans):
            entry = out.setdefault(record.name, LayerTotals())
            entry.self_wall += record.wall - child_wall[index]
            if not self._has_ancestor_named(index, record.name):
                entry.wall += record.wall
                entry.cpu += record.cpu
                entry.probes += record.probes
        return out

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] inside top-level spans (which never
        overlap: spans come from one thread and nest)."""
        covered = 0.0
        for record in self.spans:
            if record.parent < 0:
                covered += max(
                    0.0, min(record.wall1, end) - max(record.wall0, start)
                )
        return covered

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


#: (owner object, attribute name, span name). Owners are resolved at
#: install time, so a function imported by name into another module is
#: wrapped where the caller looks it up.
Target = Tuple[object, str, str]


@contextlib.contextmanager
def installed(recorder: Recorder, targets: List[Target]) -> Iterator[None]:
    """Wrap every target in a span for the duration of the block and
    restore each original attribute on exit, exception or not."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, name in targets:
            original = owner.__dict__[attribute] if isinstance(
                owner, type
            ) else getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapped(recorder, original, name))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _wrapped(recorder: Recorder, original, name: str):
    """A span-opening stand-in for a function, method, classmethod or
    property, keeping the descriptor kind of the original."""
    if isinstance(original, property):
        getter = _wrapped(recorder, original.fget, name)
        return property(getter, original.fset, original.fdel, original.__doc__)
    if isinstance(original, classmethod):
        return classmethod(_wrapped(recorder, original.__func__, name))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    return wrapper
