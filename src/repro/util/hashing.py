"""Deterministic 64-bit mixing for load-balancer hashing and host state.

Real routers hash header fields (source, destination, ports) to pick a
next hop; hosts' availability and attributes must be stable functions of
their address so that the simulator never has to materialise per-host
objects for millions of addresses. Both needs are served by a small,
seedable, high-quality integer mixer (splitmix64 finalizer).

Python's builtin ``hash`` is salted per process, so it must never be used
for anything that has to be reproducible across runs.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fast, well-distributed 64-bit mixer."""
    value = (value + _GOLDEN) & MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return value ^ (value >> 31)


def mix(seed: int, *values: int) -> int:
    """Combine a seed and any number of ints into one 64-bit hash."""
    state = splitmix64(seed & MASK64)
    for value in values:
        state = splitmix64(state ^ (value & MASK64))
    return state


def mix_to_unit(seed: int, *values: int) -> float:
    """Deterministic uniform float in [0, 1) from the mixed inputs."""
    return mix(seed, *values) / float(1 << 64)


def mix_choice(seed: int, n: int, *values: int) -> int:
    """Deterministic choice in ``range(n)`` from the mixed inputs."""
    if n <= 0:
        raise ValueError("cannot choose from an empty range")
    return mix(seed, *values) % n


def stable_string_hash(text: str, seed: int = 0) -> int:
    """64-bit hash of a string, stable across processes."""
    state = splitmix64(seed)
    for byte in text.encode("utf-8"):
        state = splitmix64(state ^ byte)
    return state


# ---------------------------------------------------------------------------
# Vectorised equivalents (numpy). Tests assert bitwise agreement with the
# scalar functions, which is what lets the ZMap sweep hash whole chunks of
# addresses at once: every draw is a pure function of its inputs.
# ---------------------------------------------------------------------------

import numpy as np  # noqa: E402  (kept below the scalar core it mirrors)

_TO_UNIT = 1.0 / float(1 << 64)


def splitmix64_np(values: "np.ndarray") -> "np.ndarray":
    """:func:`splitmix64` over a uint64 array (bitwise identical)."""
    with np.errstate(over="ignore"):
        v = (values + np.uint64(_GOLDEN)).astype(np.uint64)
        v ^= v >> np.uint64(30)
        v *= np.uint64(0xBF58476D1CE4E5B9)
        v ^= v >> np.uint64(27)
        v *= np.uint64(0x94D049BB133111EB)
        v ^= v >> np.uint64(31)
    return v


def mix_np(seed: int, values: "np.ndarray", *extra: int) -> "np.ndarray":
    """Vectorised ``mix(seed, value, *extra)`` over an array of values."""
    state0 = np.uint64(splitmix64(seed & MASK64))
    v = splitmix64_np(state0 ^ values.astype(np.uint64))
    for value in extra:
        v = splitmix64_np(v ^ np.uint64(value & MASK64))
    return v


def unit_np(hashes: "np.ndarray") -> "np.ndarray":
    """Vectorised ``mix_to_unit`` finish: uint64 hashes → floats in [0, 1).

    ``x.astype(float64) * 2**-64`` produces the same float64 as the
    scalar ``x / float(1 << 64)`` for every uint64 (both round once).
    """
    return hashes.astype(np.float64) * _TO_UNIT
