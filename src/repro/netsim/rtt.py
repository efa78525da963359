"""Round-trip-time model.

RTTs combine per-hop propagation (each router carries a one-way
latency), a small per-probe jitter, rare queueing spikes, and — for
cellular hosts — the radio *promotion delay*: a device whose radio has
been idle takes hundreds of milliseconds to several seconds to answer
its first probe, after which it stays promoted for a short window
(Section 5.2, citing "Timeouts: Beware surprisingly high delay").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import math

import numpy as np

from ..util.hashing import mix_np, mix_to_unit, stable_string_hash, unit_np
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
    cellular promotion delay)."""
    propagation = 2.0 * sum(router.latency_ms for router in path)
    u = mix_to_unit(seed ^ _JITTER, nonce)
    # Inverse-CDF exponential jitter; clamp u away from 1.0.
    jitter = -JITTER_MEAN_MS * math.log(max(1.0 - u, 1e-12))
    rtt = propagation + HOST_LATENCY_MS + jitter
    if mix_to_unit(seed ^ _SPIKE, nonce) < SPIKE_PROBABILITY:
        rtt += SPIKE_MAX_MS * mix_to_unit(seed ^ _SPIKE, nonce, 1)
    return rtt


def rtt_draws_for_nonces(
    seed: int, nonces: Sequence[int]
) -> Tuple[List[float], List[bool], List[float]]:
    """Per-nonce jitter and spike draws of :func:`path_rtt_ms`,
    vectorised over a probe batch.

    Returns ``(jitter_ms, spike_flags, spike_ms)``; a probe's RTT is
    ``propagation + HOST_LATENCY_MS + jitter_ms[i]`` plus
    ``spike_ms[i]`` when ``spike_flags[i]``. The hash draws run through
    numpy; the log stays scalar because ``np.log`` is not bitwise
    identical to ``math.log`` on every input.
    """
    arr = np.asarray(nonces, dtype=np.uint64)
    jitter_units = unit_np(mix_np(seed ^ _JITTER, arr)).tolist()
    jitter = [
        -JITTER_MEAN_MS * math.log(max(1.0 - u, 1e-12))
        for u in jitter_units
    ]
    spike_flags = (
        unit_np(mix_np(seed ^ _SPIKE, arr)) < SPIKE_PROBABILITY
    ).tolist()
    spike = (SPIKE_MAX_MS * unit_np(mix_np(seed ^ _SPIKE, arr, 1))).tolist()
    return jitter, spike_flags, spike


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
        compiled campaign engine computes no RTTs, but later probes in
        the context must see its replies): address → the time of its
        latest probe."""
        self._last_probe.update(last_probe)

    def reset(self) -> None:
        self._last_probe.clear()
