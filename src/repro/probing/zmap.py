"""ZMap-style ICMP Echo Request scan.

The paper bootstraps from the scans.io "FULL IPv4 ICMP Echo Request"
dataset: one echo probe per public address, recording which replied.
Our equivalent sweeps the simulated universe and produces an
:class:`ActivitySnapshot` — a *snapshot*, taken in an earlier epoch than
the measurement run, so some of its "active" addresses will be down by
probe time (the availability churn the paper notes in Section 2.1's
footnote).

:func:`scan` asks the simulator's host model directly
(:meth:`SimulatedInternet.active_addresses`), hashing the allocation
spans of 64 /24s at a time in one vectorised pass, so it scales to
multi-million-address universes. The snapshot it returns is columnar:
four bytes per active address, in one array, and no Python object per
address or per /24.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..net.addr import check_address
from ..net.prefix import Prefix
from ..netsim.internet import ADDRESS_DTYPE, SimulatedInternet


@dataclass(eq=False)
class ActivitySnapshot:
    """Result of a full-universe echo scan at one epoch.

    ``addresses[offsets[i]:offsets[i + 1]]`` are the active addresses of
    the /24 ``networks[i]``, sorted. Only /24s with an active address
    appear, each once, in network order.
    """

    epoch: int
    #: Networks of the /24s with an active address, increasing (uint32).
    networks: np.ndarray
    #: Where each /24's addresses start, plus their total (int64).
    offsets: np.ndarray
    #: Every active address, /24 by /24 (``<u4``: the bytes the store's
    #: active-list fingerprint hashes).
    addresses: np.ndarray

    def __post_init__(self) -> None:
        self.networks = np.ascontiguousarray(self.networks, dtype=np.uint32)
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.addresses = np.ascontiguousarray(
            self.addresses, dtype=ADDRESS_DTYPE
        )
        sizes = np.diff(self.offsets)
        # Lookups bisect ``networks``, and eligibility reduces each
        # /24's run of addresses, which must not be empty.
        if (
            len(self.offsets) != len(self.networks) + 1
            or self.offsets[0] != 0
            or self.offsets[-1] != len(self.addresses)
            or not np.all(sizes > 0)
            or not np.all(self.networks[1:] > self.networks[:-1])
        ):
            raise ValueError(
                "an activity snapshot needs increasing networks and one "
                "non-empty run of addresses per network"
            )

    @classmethod
    def from_lists(
        cls, epoch: int, lists: Mapping[int, Sequence[int]]
    ) -> "ActivitySnapshot":
        """The snapshot of per-/24 active lists, keyed by /24 network in
        any order; each list is sorted, and empty lists are dropped.

        Raises :class:`~repro.net.addr.AddressError` for an address
        outside the IPv4 space, and :class:`ValueError` for one outside
        its /24.
        """
        kept = sorted(network for network, active in lists.items() if active)
        actives = [sorted(lists[network]) for network in kept]
        for active in actives:
            check_address(active[0])
            check_address(active[-1])
        networks = np.array(kept, dtype=np.uint32)
        offsets = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum([len(active) for active in actives], out=offsets[1:])
        addresses = np.array(
            [addr for active in actives for addr in active],
            dtype=ADDRESS_DTYPE,
        )
        if np.any(
            addresses & np.uint32(0xFFFFFF00)
            != np.repeat(networks, np.diff(offsets))
        ):
            raise ValueError("an active address lies outside its /24")
        return cls(epoch, networks, offsets, addresses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivitySnapshot):
            return NotImplemented
        return self.epoch == other.epoch and all(
            np.array_equal(mine, theirs)
            for mine, theirs in (
                (self.networks, other.networks),
                (self.offsets, other.offsets),
                (self.addresses, other.addresses),
            )
        )

    @property
    def total_active(self) -> int:
        return len(self.addresses)

    @property
    def slash24_count(self) -> int:
        return len(self.networks)

    def bounds(self, slash24: Prefix) -> Tuple[int, int]:
        """Start and end of the /24's run in :attr:`addresses` (equal
        when it has none)."""
        # Bisect memoryviews, whose items are Python ints: a lookup
        # through numpy scalars costs several times as much, and the
        # campaign makes one per /24.
        network = slash24.network
        networks = memoryview(self.networks)
        index = bisect_left(networks, network)
        if index == len(networks) or networks[index] != network:
            return 0, 0
        offsets = memoryview(self.offsets)
        return offsets[index], offsets[index + 1]

    def addresses_in(self, slash24: Prefix) -> np.ndarray:
        """The /24's active addresses, a ``<u4`` view of the snapshot."""
        start, end = self.bounds(slash24)
        return self.addresses[start:end]

    def active_in(self, slash24: Prefix) -> List[int]:
        """The /24's active addresses, sorted, as a new list."""
        start, end = self.bounds(slash24)
        return self.addresses[start:end].tolist()

    def eligible_slash24s(self, min_active: int = 4) -> List[Prefix]:
        """/24s meeting the Hobbit selection criteria (Section 2.1/3.3):
        at least ``min_active`` active addresses, with at least one in
        each of the four /26s."""
        # Bits 6-7 of the last octet name the address's /26; the last
        # octet is byte 0 of a little-endian address. Each /24 ORs one
        # bit per /26 it has an address in.
        last_octets = self.addresses.view(np.uint8)[::4]
        quarters = np.bitwise_or.reduceat(
            np.left_shift(np.uint8(1), last_octets >> 6), self.offsets[:-1]
        )
        eligible = (np.diff(self.offsets) >= min_active) & (quarters == 0xF)
        return [
            Prefix(network, 24) for network in self.networks[eligible].tolist()
        ]


def scan(
    internet: SimulatedInternet,
    epoch: Optional[int] = None,
    slash24s: Optional[Iterable[Prefix]] = None,
) -> ActivitySnapshot:
    """Fast full-universe scan (vectorised host-state path)."""
    if epoch is None:
        epoch = internet.config.snapshot_epoch
    if slash24s is None:
        slash24s = internet.universe_slash24s
    return ActivitySnapshot(epoch, *internet.active_addresses(slash24s, epoch))
