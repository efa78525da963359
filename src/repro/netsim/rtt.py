"""Round-trip-time model.

RTTs combine per-hop propagation (each router carries a one-way
latency), a small per-probe jitter, rare queueing spikes, and — for
cellular hosts — the radio *promotion delay*: a device whose radio has
been idle takes hundreds of milliseconds to several seconds to answer
its first probe, after which it stays promoted for a short window
(Section 5.2, citing "Timeouts: Beware surprisingly high delay").
"""

from __future__ import annotations

from typing import Dict, Sequence

import math

from ..util.hashing import mix_to_unit, stable_string_hash
from .topology import Router

_JITTER = stable_string_hash("rtt-jitter")
_SPIKE = stable_string_hash("rtt-spike")

#: One-way host processing latency added to every echo RTT (ms).
HOST_LATENCY_MS = 0.5
#: Mean of the exponential per-probe jitter (ms).
JITTER_MEAN_MS = 2.0
#: Probability and magnitude of a queueing spike.
SPIKE_PROBABILITY = 0.01
SPIKE_MAX_MS = 150.0


def path_rtt_ms(path: Sequence[Router], seed: int, nonce: int) -> float:
    """Base RTT to the end of ``path`` for one probe (before any
    cellular promotion delay).

    The one-way latencies fold left to right, one float addition per
    router. Builtin ``sum`` would not do: Python 3.12 made it
    compensated, which changes the last bits on some paths.
    """
    one_way = 0.0
    for router in path:
        one_way += router.latency_ms
    propagation = 2.0 * one_way
    u = mix_to_unit(seed ^ _JITTER, nonce)
    # Inverse-CDF exponential jitter; clamp u away from 1.0.
    jitter = -JITTER_MEAN_MS * math.log(max(1.0 - u, 1e-12))
    rtt = propagation + HOST_LATENCY_MS + jitter
    if mix_to_unit(seed ^ _SPIKE, nonce) < SPIKE_PROBABILITY:
        rtt += SPIKE_MAX_MS * mix_to_unit(seed ^ _SPIKE, nonce, 1)
    return rtt


class CellularRadioTracker:
    """Tracks when each cellular address last saw a probe, to decide
    whether the next probe pays the promotion delay."""

    def __init__(self, idle_timeout_seconds: float = 10.0) -> None:
        self.idle_timeout_seconds = idle_timeout_seconds
        self._last_probe: Dict[int, float] = {}

    def promotion_applies(self, addr: int, now_seconds: float) -> bool:
        """True if the radio was idle and the promotion delay applies.
        Records this probe either way."""
        last = self._last_probe.get(addr)
        self._last_probe[addr] = now_seconds
        return last is None or (now_seconds - last) > self.idle_timeout_seconds

    def record(self, last_probe: Dict[int, float]) -> None:
        """Record probes without asking :meth:`promotion_applies` (the
        compiled engine mirrors the tracker while it probes and commits
        its records when it is done): address → the time of its latest
        probe."""
        self._last_probe.update(last_probe)

    def reset(self) -> None:
        self._last_probe.clear()
