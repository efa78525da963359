"""Routers and the router-level topology.

The simulator models the Internet at router granularity: a probe walks a
sequence of routers from the vantage point to the destination's last-hop
router, with each router consulting its FIB (:mod:`repro.netsim.routing`)
to pick the next hop. Routers carry the attributes that shape what a
prober can observe: an interface address, whether they answer
TTL-exceeded probes, an ICMP rate limiter, and a position-dependent
one-way latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from ..net.addr import format_address
from .icmp import RateLimiter


class RouterRole(Enum):
    """Where a router sits in the topology (for reporting/debugging)."""

    VANTAGE_GATEWAY = "vantage-gateway"
    BACKBONE = "backbone"
    CORE = "core"
    ORG_BORDER = "org-border"
    DIAMOND = "diamond"
    METRO = "metro"
    LAST_HOP = "last-hop"


# Router interface addresses are carved out of this block, which the
# allocation generator never assigns to hosts (mirrors how infrastructure
# addresses come from dedicated provider blocks).
ROUTER_ADDRESS_BASE = 0x64000000  # 100.0.0.0
ROUTER_ADDRESS_LIMIT = 0x6FFFFFFF  # 111.255.255.255


@dataclass
class Router:
    """A simulated router.

    ``responds_to_ttl_exceeded`` models permanently silent routers (the
    cause of the paper's "Unresponsive last-hop" category); transient
    loss is modelled by ``rate_limiter`` plus the scenario's base drop
    probability.
    """

    router_id: int
    address: int
    role: RouterRole
    responds_to_ttl_exceeded: bool = True
    latency_ms: float = 1.0
    rate_limiter: Optional[RateLimiter] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = f"{self.role.value}-{self.router_id}"

    def __str__(self) -> str:
        return f"{self.label}({format_address(self.address)})"

    def __hash__(self) -> int:
        return self.router_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Router):
            return NotImplemented
        return self.router_id == other.router_id


class Topology:
    """Registry of routers, addressable by id and by interface address."""

    def __init__(self) -> None:
        self._routers: List[Router] = []
        self._by_address: Dict[int, Router] = {}

    def __len__(self) -> int:
        return len(self._routers)

    def __iter__(self):
        return iter(self._routers)

    def new_router(
        self,
        role: RouterRole,
        *,
        responds: bool = True,
        latency_ms: float = 1.0,
        rate_limiter: Optional[RateLimiter] = None,
        label: str = "",
    ) -> Router:
        """Create and register a router with the next free id/address."""
        router_id = len(self._routers)
        address = ROUTER_ADDRESS_BASE + router_id
        if address > ROUTER_ADDRESS_LIMIT:
            raise OverflowError("router address pool exhausted")
        router = Router(
            router_id=router_id,
            address=address,
            role=role,
            responds_to_ttl_exceeded=responds,
            latency_ms=latency_ms,
            rate_limiter=rate_limiter,
            label=label,
        )
        self._routers.append(router)
        self._by_address[address] = router
        return router

    def by_id(self, router_id: int) -> Router:
        return self._routers[router_id]

    def by_address(self, address: int) -> Optional[Router]:
        return self._by_address.get(address)
