"""Validated environment-variable knobs.

Operational knobs (``REPRO_WORKER_KILL``, ``REPRO_EVENTS``,
``REPRO_WORKERS``, ...) are read in the middle of
deep call stacks; a malformed value must fail *at the knob* with a
message naming the variable and the expected shape, not as a
``ValueError`` traceback twelve frames inside the campaign executor.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple


class EnvKnobError(ValueError):
    """An environment knob holds a value the program cannot use."""


def float_env(
    name: str,
    default: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """The float value of ``$name``, or ``default`` when unset/empty.

    Raises :class:`EnvKnobError` naming the variable on non-numeric
    values or values outside ``[minimum, maximum]``.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name}={raw!r} is not a number; expected something like "
            f"{name}={default}"
        ) from None
    if value != value:  # NaN never compares, so reject it explicitly
        raise EnvKnobError(f"{name}={raw!r} is NaN")
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"{name}={raw!r} is below the minimum of {minimum}"
        )
    if maximum is not None and value > maximum:
        raise EnvKnobError(
            f"{name}={raw!r} is above the maximum of {maximum}"
        )
    return value


def positive_int_env(name: str, default: int) -> int:
    """The whole-number value of ``$name``, or ``default`` when
    unset/empty.

    Raises :class:`EnvKnobError` naming the variable on anything but a
    whole number >= 1 (``abc``, ``2.5``, ``0``, ``-3``).
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name}={raw!r} is not a whole number; expected something "
            f"like {name}={default}"
        ) from None
    if value < 1:
        raise EnvKnobError(f"{name}={raw!r} must be >= 1")
    return value


def parse_kill_spec(
    spec: Optional[str], name: str = "REPRO_WORKER_KILL"
) -> List[Tuple[int, int]]:
    """Parse a fault-injection spec: comma-separated ``index:count``.

    Returns ``[(worker_index, slash24_count), ...]``; counts are
    clamped to at least 1 (killing before the first measured /24 would
    test nothing). Raises :class:`EnvKnobError` on malformed or
    negative entries instead of silently skipping them — a typo'd kill
    spec that quietly disarms fault injection makes a crash test pass
    vacuously.
    """
    if not spec or spec.strip() == "":
        return []
    entries: List[Tuple[int, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        index_text, sep, count_text = entry.partition(":")
        if not sep:
            raise EnvKnobError(
                f"{name} entry {entry!r} is missing ':'; expected "
                "'<worker_index>:<slash24s>' (e.g. '0:3')"
            )
        try:
            index = int(index_text)
            count = int(count_text)
        except ValueError:
            raise EnvKnobError(
                f"{name} entry {entry!r} is not numeric; expected "
                "'<worker_index>:<slash24s>' (e.g. '0:3')"
            ) from None
        if index < 0 or count < 0:
            raise EnvKnobError(
                f"{name} entry {entry!r} is negative; worker index and "
                "/24 count must both be >= 0"
            )
        entries.append((index, max(1, count)))
    return entries


def kill_after_for_worker(
    spec: Optional[str], worker_index: int, name: str = "REPRO_WORKER_KILL"
) -> Optional[int]:
    """Measured /24s after which worker ``worker_index`` self-kills,
    or None when the spec does not target it."""
    for index, count in parse_kill_spec(spec, name):
        if index == worker_index:
            return count
    return None


def event_intensity_env(name: str = "REPRO_EVENTS") -> Optional[float]:
    """The dynamic-event intensity requested via ``$name`` in [0, 1],
    or None when the knob is unset (events off)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    value = float_env(name, 0.0, minimum=0.0, maximum=1.0)
    return value
