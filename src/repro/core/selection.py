"""Destination selection within a /24 (Section 3.3).

Hobbit needs at least 4 active addresses (fewer can never form a
non-hierarchical grouping) and requires every /26 of the /24 to contain
an active address, so that the verdict represents the whole /24 rather
than a /25 or /26. Probing then proceeds round-robin over the /26
groups, reshuffling the group order each round.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from ..net.addr import check_address

#: Minimum active addresses for the hierarchy test to be meaningful:
#: any grouping of fewer than 4 addresses is always hierarchical.
MIN_ACTIVE_ADDRESSES = 4
#: A /24 contains four /26 blocks.
SLASH26S_PER_SLASH24 = 4
#: Netmask of a /26: ``addr & _SLASH26_MASK`` is its /26's network.
_SLASH26_MASK = 0xFFFFFFC0


def meets_selection_criteria(active_addresses: List[int]) -> bool:
    """The Section 3.3 criteria over a /24's active address list.

    Raises :class:`~repro.net.addr.AddressError` when an address lies
    outside the IPv4 space.
    """
    if len(active_addresses) < MIN_ACTIVE_ADDRESSES:
        return False
    check_address(min(active_addresses))
    check_address(max(active_addresses))
    slash26s = {addr & _SLASH26_MASK for addr in active_addresses}
    return len(slash26s) == SLASH26S_PER_SLASH24


def slash26_groups(active_addresses: List[int]) -> Dict[int, List[int]]:
    """The addresses by /26 network, in address order."""
    ordered = sorted(active_addresses)
    if ordered:
        check_address(ordered[0])
        check_address(ordered[-1])
    groups: Dict[int, List[int]] = {}
    for addr in ordered:
        groups.setdefault(addr & _SLASH26_MASK, []).append(addr)
    return groups


def round_robin_order(
    active_addresses: List[int], rng: random.Random
) -> Iterator[int]:
    """Yield destinations one per /26 per round, shuffling both the
    order within each /26 (once) and the order of the /26s (each
    round)."""
    groups = slash26_groups(active_addresses)
    queues = {key: list(members) for key, members in groups.items()}
    for queue in queues.values():
        rng.shuffle(queue)
    keys = list(queues)
    while any(queues.values()):
        rng.shuffle(keys)
        for key in keys:
            if queues[key]:
                yield queues[key].pop()


def one_per_slash26(
    active_addresses: List[int], rng: random.Random
) -> List[int]:
    """One random active address from each /26 (the Section 2.1
    preliminary-study selection)."""
    return [
        rng.choice(members)
        for members in slash26_groups(active_addresses).values()
    ]


def slash31_pair(active_addresses: List[int]) -> List[int] | None:
    """Two active addresses within one /31, if any exist (the Section
    2.2 per-destination load-balancing estimate)."""
    by_slash31: Dict[int, List[int]] = {}
    for addr in active_addresses:
        by_slash31.setdefault(addr & ~1, []).append(addr)
    for members in by_slash31.values():
        if len(members) >= 2:
            return members[:2]
    return None
