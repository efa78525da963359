"""WHOIS registry (KRNIC-style).

Section 4.2 verifies suspected-heterogeneous /24s against KRNIC, the
Korean national Internet registry, which records *sub-/24 customer
assignments* with addresses and registration dates (Table 4). The
simulated registry exposes the allocations the generator actually made,
so the same verification loop works: query a /24, receive one record per
covering allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.prefix import Prefix
from .allocation import Allocation, AllocationMap


@dataclass(frozen=True)
class WhoisRecord:
    """One registry entry, mirroring the KRNIC response fields of Table 4."""

    prefix: Prefix
    organization_name: str
    network_type: str
    address: str
    zip_code: str
    registration_date: str

    @classmethod
    def from_allocation(cls, allocation: Allocation) -> "WhoisRecord":
        return cls(
            prefix=allocation.prefix,
            organization_name=allocation.customer_name,
            network_type=allocation.network_type,
            address=allocation.customer_address,
            zip_code=allocation.zip_code,
            registration_date=allocation.registration_date,
        )


class WhoisService:
    """Query interface over the allocation registry."""

    def __init__(self, allocations: AllocationMap) -> None:
        self._allocations = allocations

    def query(self, prefix: Prefix) -> List[WhoisRecord]:
        """All registry records covering address space within ``prefix``,
        most-specific allocations listed in address order."""
        records = [
            WhoisRecord.from_allocation(a)
            for a in self._allocations.allocations_within(prefix)
        ]
        return sorted(records, key=lambda r: (r.prefix.network, r.prefix.length))

    def is_split(self, slash24: Prefix) -> bool:
        """True if the /24 is registered as multiple sub-allocations."""
        records = self.query(slash24)
        return len(records) > 1 or any(
            r.prefix.length > 24 for r in records
        )
