"""Host population model.

The simulator never materialises per-host objects: with millions of
addresses in a scenario, every host attribute (existence, availability,
default TTL, reverse-path asymmetry, cellular promotion delay) is a pure
deterministic function of (pod parameters, address, epoch), computed by
hashing. The scalar versions are the definition. Their vectorised
equivalents compute the same functions over numpy arrays: the
availability mask the ZMap scan sweeps with, and the epoch-free columns
of the compiled engine's host table (default TTL, reverse-path delta,
and the exists, stable and sleep-survivor draws as flag bits), which
:func:`host_up_from_flags` completes with the epoch's draws. Tests
assert bitwise agreement between the forms, and with the plain
``mix(seed ^ domain, addr, ...)`` chains. The scalar versions share
work: ``splitmix64(seed ^ domain)`` is cached per attribute domain, and
the draws one attribute takes for one address (the default TTL takes up
to three) finish one shared hash state.

Availability has two components, mirroring the diurnal/churn findings
the paper cites (Quan et al.): a host either *exists* (is a configured,
usually-on machine) or not, and existing hosts are either *stable*
(always answer) or *flappy* (answer only in some epochs). The ZMap
snapshot is taken in an earlier epoch than the probing run, so flappy
hosts cause the "Too few active" attrition of Table 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..util import hashing as hashing_np
from ..util.hashing import MASK64, mix_to_unit, splitmix64, stable_string_hash

_EXISTS = stable_string_hash("host-exists")
_STABLE = stable_string_hash("host-stable")
_FLAP = stable_string_hash("host-flap")
_SLEEP = stable_string_hash("block-sleep")
_SLEEP_SURVIVOR = stable_string_hash("block-sleep-survivor")
_TTL = stable_string_hash("host-ttl")
_DELTA = stable_string_hash("host-reverse-delta")
_PROMO = stable_string_hash("host-promotion")

#: Probability that a flappy host is up in any given epoch.
FLAPPY_UP_PROBABILITY = 0.5
#: Probability that a whole /24 is "asleep" in a given epoch — the
#: correlated, block-level diurnal churn of "When the Internet sleeps"
#: (Quan et al.), which the paper cites as the availability confound.
BLOCK_SLEEP_PROBABILITY = 0.28
#: Fraction of otherwise-up hosts that still answer while their block
#: sleeps.
SLEEP_SURVIVOR_FRACTION = 0.05

#: Uncommon default TTLs seen in the wild (Solaris' 255 is common, but
#: some embedded stacks use 100, 60 or 30).
CUSTOM_TTLS = (30, 60, 100, 200)

#: Bits of a host-table flags byte (:func:`host_flags_np`): the host
#: exists, is stable, and survives its block's sleep.
HOST_EXISTS = 1
HOST_STABLE = 2
HOST_SLEEP_SURVIVOR = 4

_TWO64 = float(1 << 64)


@lru_cache(maxsize=64)
def _domain_state(keyed_seed: int) -> int:
    """``splitmix64`` of a seed xored with an attribute's domain
    constant: the first step of ``mix(keyed_seed, addr, ...)``, shared
    by every address (a scenario has one host seed)."""
    return splitmix64(keyed_seed & MASK64)


def host_exists(seed: int, addr: int, density: float) -> bool:
    """Whether an address has a configured host at all."""
    return splitmix64(_domain_state(seed ^ _EXISTS) ^ addr) / _TWO64 < density


def host_is_stable(seed: int, addr: int, stability: float) -> bool:
    """Whether an existing host is always-on (vs flappy)."""
    return (
        splitmix64(_domain_state(seed ^ _STABLE) ^ addr) / _TWO64
        < stability
    )


def block_asleep(
    seed: int, addr: int, epoch: int,
    sleep_probability: float = BLOCK_SLEEP_PROBABILITY,
) -> bool:
    """Whether the /24 containing ``addr`` sleeps during ``epoch``."""
    if sleep_probability <= 0.0:
        return False
    return block_sleep_draw(seed, addr, epoch) < sleep_probability


def block_sleep_draw(seed: int, addr: int, epoch: int) -> float:
    """The uniform draw :func:`block_asleep` compares with the sleep
    probability: one per /24 and epoch."""
    state = splitmix64(_domain_state(seed ^ _SLEEP) ^ (addr & 0xFFFFFF00))
    return splitmix64(state ^ (epoch & MASK64)) / _TWO64


def host_up_in_epoch(
    seed: int, addr: int, epoch: int, density: float, stability: float,
    sleep_probability: float = BLOCK_SLEEP_PROBABILITY,
) -> bool:
    """Whether the address answers an echo probe during ``epoch``."""
    if not host_exists(seed, addr, density):
        return False
    if host_is_stable(seed, addr, stability):
        up = True
    else:
        state = splitmix64(_domain_state(seed ^ _FLAP) ^ addr)
        up = (
            splitmix64(state ^ (epoch & MASK64)) / _TWO64
            < FLAPPY_UP_PROBABILITY
        )
    if up and block_asleep(seed, addr, epoch, sleep_probability):
        return (
            splitmix64(_domain_state(seed ^ _SLEEP_SURVIVOR) ^ addr) / _TWO64
            < SLEEP_SURVIVOR_FRACTION
        )
    return up


def host_up_from_flags(
    seed: int, addr: int, epoch: int, flags: int,
    sleep_probability: float, sleep_draws: Dict[Tuple[int, int], float],
) -> bool:
    """:func:`host_up_in_epoch` from the address's host-table ``flags``
    (:func:`host_flags_np`, drawn with the same density and stability).

    Only the epoch's draws are hashed: the flap draw of a flappy host,
    and the block-sleep draw of a host that is up, which
    ``sleep_draws`` caches by (/24, epoch).
    """
    if not flags & HOST_EXISTS:
        return False
    if not flags & HOST_STABLE:
        state = splitmix64(_domain_state(seed ^ _FLAP) ^ addr)
        if not (
            splitmix64(state ^ (epoch & MASK64)) / _TWO64
            < FLAPPY_UP_PROBABILITY
        ):
            return False
    if sleep_probability <= 0.0:
        return True
    key = (addr >> 8, epoch)
    draw = sleep_draws.get(key)
    if draw is None:
        draw = sleep_draws[key] = block_sleep_draw(seed, addr, epoch)
    if draw < sleep_probability:
        return bool(flags & HOST_SLEEP_SURVIVOR)
    return True


def default_ttl(
    seed: int,
    addr: int,
    weights: Sequence[Tuple[int, float]],
    custom_probability: float,
) -> int:
    """The host's initial TTL for replies.

    ``weights`` maps common defaults (64/128/255) to probabilities; with
    ``custom_probability`` the host instead uses an uncommon value, which
    defeats the Section 3.4 bucketing and exercises Hobbit's fallback.
    """
    # Draw k is mix(seed ^ _TTL, addr, k): one state, three finishes.
    state = splitmix64(_domain_state(seed ^ _TTL) ^ addr)
    if splitmix64(state ^ 1) / _TWO64 < custom_probability:
        return CUSTOM_TTLS[splitmix64(state ^ 2) % len(CUSTOM_TTLS)]
    roll = splitmix64(state) / _TWO64
    cumulative = 0.0
    for value, weight in weights:
        cumulative += weight
        if roll < cumulative:
            return value
    return weights[-1][0]


def reverse_path_delta(
    seed: int, addr: int, weights: Sequence[Tuple[int, float]]
) -> int:
    """Reverse-path length minus forward-path length for this host.

    Non-zero values make the Section 3.4 hop-count inference over- or
    under-estimate the last-hop distance.
    """
    roll = splitmix64(_domain_state(seed ^ _DELTA) ^ addr) / _TWO64
    cumulative = 0.0
    for value, weight in weights:
        cumulative += weight
        if roll < cumulative:
            return value
    return weights[-1][0]


def promotion_delay_seconds(
    seed: int, addr: int, low: float, high: float
) -> float:
    """Radio promotion delay for a cellular host's first probe after
    idling (Section 5.2 / Padmanabhan et al.)."""
    return low + (high - low) * mix_to_unit(seed ^ _PROMO, addr)


# ---------------------------------------------------------------------------
# Vectorised equivalents (numpy), used by the ZMap full-space scan and the
# compiled engine's host table.
# ---------------------------------------------------------------------------


# The vector hash core lives in util.hashing; the old private names
# stay as aliases.
_mix_np = hashing_np.mix_np
_unit_np = hashing_np.unit_np


def hosts_up_in_epoch_np(
    seed: int,
    addrs: np.ndarray,
    epoch: int,
    density: Union[float, np.ndarray],
    stability: Union[float, np.ndarray],
    sleep_probability: Union[float, np.ndarray] = BLOCK_SLEEP_PROBABILITY,
) -> np.ndarray:
    """Vectorised :func:`host_up_in_epoch` — boolean mask per address.

    ``density``, ``stability`` and ``sleep_probability`` are each either
    one value for every address or an array of one value per address
    (the ZMap sweep hashes spans of several pods in one call).
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    exists = _unit_np(_mix_np(seed ^ _EXISTS, addrs)) < density
    stable = _unit_np(_mix_np(seed ^ _STABLE, addrs)) < stability
    flap_up = (
        _unit_np(_mix_np(seed ^ _FLAP, addrs, epoch)) < FLAPPY_UP_PROBABILITY
    )
    up = exists & (stable | flap_up)
    if np.any(np.asarray(sleep_probability) > 0.0):
        slash24s = addrs & np.uint64(0xFFFFFF00)
        asleep = (
            _unit_np(_mix_np(seed ^ _SLEEP, slash24s, epoch))
            < sleep_probability
        )
        survivor = (
            _unit_np(_mix_np(seed ^ _SLEEP_SURVIVOR, addrs))
            < SLEEP_SURVIVOR_FRACTION
        )
        up &= ~asleep | survivor
    return up


def host_flags_np(
    seed: int,
    addrs: np.ndarray,
    density: Union[float, np.ndarray],
    stability: Union[float, np.ndarray],
) -> np.ndarray:
    """The epoch-free availability draws per address as uint8 flags:
    :data:`HOST_EXISTS` (:func:`host_exists`), :data:`HOST_STABLE`
    (:func:`host_is_stable`) and :data:`HOST_SLEEP_SURVIVOR` (the
    survivor draw of :func:`host_up_in_epoch`).

    ``density`` and ``stability`` are one value for every address or
    one per address.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    exists = _unit_np(_mix_np(seed ^ _EXISTS, addrs)) < density
    stable = _unit_np(_mix_np(seed ^ _STABLE, addrs)) < stability
    survivor = (
        _unit_np(_mix_np(seed ^ _SLEEP_SURVIVOR, addrs))
        < SLEEP_SURVIVOR_FRACTION
    )
    flags = exists.view(np.uint8) * np.uint8(HOST_EXISTS)
    flags |= stable.view(np.uint8) * np.uint8(HOST_STABLE)
    flags |= survivor.view(np.uint8) * np.uint8(HOST_SLEEP_SURVIVOR)
    return flags


def _weighted_np(
    rolls: np.ndarray, weights: Sequence[Tuple[int, float]]
) -> np.ndarray:
    """Per roll, the first value whose running weight sum exceeds it,
    else the last value: the scalar loops' pick, summed in their
    order."""
    values = np.full(len(rolls), weights[-1][0], dtype=np.int64)
    undecided = np.ones(len(rolls), dtype=bool)
    cumulative = 0.0
    for value, weight in weights:
        cumulative += weight
        hit = undecided & (rolls < cumulative)
        values[hit] = value
        undecided &= ~hit
    return values


def default_ttls_np(
    seed: int,
    addrs: np.ndarray,
    weights: Sequence[Tuple[int, float]],
    custom_probability: float,
) -> np.ndarray:
    """Vectorised :func:`default_ttl` (int64 per address)."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    state = _mix_np(seed ^ _TTL, addrs)
    ttls = _weighted_np(
        _unit_np(hashing_np.splitmix64_np(state)), weights
    )
    custom = (
        _unit_np(hashing_np.splitmix64_np(state ^ np.uint64(1)))
        < custom_probability
    )
    if np.any(custom):
        picks = hashing_np.splitmix64_np(
            state[custom] ^ np.uint64(2)
        ) % np.uint64(len(CUSTOM_TTLS))
        ttls[custom] = np.array(CUSTOM_TTLS, dtype=np.int64)[picks]
    return ttls


def reverse_path_deltas_np(
    seed: int, addrs: np.ndarray, weights: Sequence[Tuple[int, float]]
) -> np.ndarray:
    """Vectorised :func:`reverse_path_delta` (int64 per address)."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    return _weighted_np(_unit_np(_mix_np(seed ^ _DELTA, addrs)), weights)
