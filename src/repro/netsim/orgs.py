"""Organizations: the entities address space is allocated to.

The paper's characterisation work (Tables 3 and 5, Figure 6) keys on who
owns a block — hosting companies run dense homogeneous datacenter pods,
cellular carriers put huge address pools behind a few ingress points,
Korean broadband ISPs split /24s among small customers. Organizations
carry the identity (ASN, name, country) and the behavioural profile
type; the numeric knobs live on :class:`repro.netsim.config.OrgSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Set


class OrgType(Enum):
    """Organization categories used in Tables 3 and 5."""

    BROADBAND = "Broadband ISP"
    MOBILE_BROADBAND = "Mobile ISP"
    FIXED_BROADBAND = "Fixed ISP"
    HOSTING = "Hosting"
    HOSTING_CLOUD = "Hosting/Cloud"

    @property
    def is_hosting(self) -> bool:
        return self in (OrgType.HOSTING, OrgType.HOSTING_CLOUD)


@dataclass(frozen=True)
class Organization:
    """A built organization (identity only; behaviour is in OrgSpec)."""

    org_id: int
    asn: int
    name: str
    country: str
    city: str
    org_type: OrgType

    @property
    def asn_text(self) -> str:
        return f"AS{self.asn}"

    def __str__(self) -> str:
        return f"{self.name} ({self.asn_text}, {self.country})"


class OrgRegistry:
    """Organizations by id, each with a distinct ASN."""

    def __init__(self) -> None:
        self._orgs: List[Organization] = []
        self._asns: Set[int] = set()

    def add(
        self,
        asn: int,
        name: str,
        country: str,
        city: str,
        org_type: OrgType,
    ) -> Organization:
        if asn in self._asns:
            raise ValueError(f"duplicate ASN {asn}")
        org = Organization(
            org_id=len(self._orgs),
            asn=asn,
            name=name,
            country=country,
            city=city,
            org_type=org_type,
        )
        self._orgs.append(org)
        self._asns.add(asn)
        return org

    def by_id(self, org_id: int) -> Organization:
        return self._orgs[org_id]

    def __iter__(self):
        return iter(self._orgs)

    def __len__(self) -> int:
        return len(self._orgs)
