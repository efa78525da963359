"""GeoLite-style ASN / organization / geolocation database.

The paper resolves block ownership with the Maxmind GeoLite databases
(Tables 3 and 5). Our equivalent is generated alongside the topology:
every allocation contributes a record, and lookups do longest-prefix
match — exactly the query surface GeoLite offers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.addr import check_address
from ..net.prefix import Prefix
from ..net.trie import leaf_intervals_from_items
from .orgs import Organization, OrgType


@dataclass(frozen=True)
class GeoRecord:
    """What a GeoLite lookup returns for an address."""

    prefix: Prefix
    asn: int
    organization: str
    country: str
    city: str
    org_type: OrgType


class GeoDatabase:
    """Prefix → :class:`GeoRecord` with longest-prefix-match lookups.

    Like the routing tables and the allocation map, the database
    flattens its prefixes into sorted breakpoints
    (:func:`repro.net.trie.leaf_intervals_from_items`) on the first
    lookup after a record is added, and looks addresses up by bisection.
    """

    def __init__(self) -> None:
        self._by_prefix: Dict[Prefix, GeoRecord] = {}
        self._intervals: Optional[
            Tuple[List[int], List[Optional[GeoRecord]]]
        ] = None

    def add_organization_prefix(self, prefix: Prefix, org: Organization) -> None:
        record = GeoRecord(
            prefix=prefix,
            asn=org.asn,
            organization=org.name,
            country=org.country,
            city=org.city,
            org_type=org.org_type,
        )
        self._by_prefix[prefix] = record
        self._intervals = None

    def lookup(self, addr: int) -> Optional[GeoRecord]:
        check_address(addr)
        if self._intervals is None:
            points = leaf_intervals_from_items(sorted(self._by_prefix.items()))
            self._intervals = (
                [start for start, _ in points],
                [record for _, record in points],
            )
        starts, records = self._intervals
        return records[bisect_right(starts, addr) - 1]

    def asn_of(self, addr: int) -> Optional[int]:
        record = self.lookup(addr)
        return record.asn if record else None
