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
spans of 256 /24s at a time in one vectorised pass, so it scales to
multi-million-address universes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..net.addr import slash24_of
from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet


@dataclass
class ActivitySnapshot:
    """Result of a full-universe echo scan at one epoch."""

    epoch: int
    #: /24 network address → sorted list of active addresses within it.
    active_by_slash24: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def total_active(self) -> int:
        return sum(len(v) for v in self.active_by_slash24.values())

    @property
    def slash24_count(self) -> int:
        return len(self.active_by_slash24)

    def active_in(self, slash24: Prefix) -> List[int]:
        return list(self.active_by_slash24.get(slash24.network, ()))

    def is_active(self, addr: int) -> bool:
        block = self.active_by_slash24.get(slash24_of(addr))
        if not block:
            return False
        # Blocks are short (≤256); linear scan is fine.
        return addr in block

    def eligible_slash24s(self, min_active: int = 4) -> List[Prefix]:
        """/24s meeting the Hobbit selection criteria (Section 2.1/3.3):
        at least ``min_active`` active addresses, with at least one in
        each of the four /26s."""
        return [
            Prefix(network, 24)
            for network, actives in sorted(self.active_by_slash24.items())
            if len(actives) >= min_active
            # Bits 6-7 of the last octet name the address's /26.
            and len({addr & 0xC0 for addr in actives}) == 4
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
    return ActivitySnapshot(
        epoch=epoch,
        active_by_slash24=internet.active_addresses(slash24s, epoch),
    )

