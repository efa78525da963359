"""Paris traceroute and route comparison.

Classic traceroute changes header fields from probe to probe, so
per-flow load balancers scatter its probes across branches and the
reported "path" can be a chimera of several real paths (Augustin et
al., IMC 2006). Paris traceroute keeps the flow-affecting fields
constant, so every probe of one trace follows one real path.

Routes are compared as hop-address tuples; unresponsive hops are ``None``
and, per Section 2.1, may be treated as wildcards that match anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from .session import Prober

DEFAULT_MAX_TTL = 32

#: A route signature: one entry per hop, None for an unresponsive hop.
Route = Tuple[Optional[int], ...]


@dataclass(frozen=True)
class TracerouteHop:
    ttl: int
    address: Optional[int]
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.address is not None


@dataclass
class TracerouteResult:
    dst: int
    flow_id: int
    hops: List[TracerouteHop] = field(default_factory=list)
    reached: bool = False
    probes_used: int = 0

    @property
    def route(self) -> Route:
        """Hop addresses up to (excluding) the destination."""
        return tuple(hop.address for hop in self.hops)

    @property
    def lasthop_address(self) -> Optional[int]:
        """Address of the final router before the destination (None if
        it did not respond or the destination was not reached)."""
        if not self.reached or not self.hops:
            return None
        return self.hops[-1].address


def paris_traceroute(
    prober: Prober,
    dst: int,
    flow_id: int = 0,
    first_ttl: int = 1,
    max_ttl: int = DEFAULT_MAX_TTL,
    retries: int = 2,
) -> TracerouteResult:
    """Trace with a fixed flow id (the Paris traceroute discipline)."""
    result = TracerouteResult(dst=dst, flow_id=flow_id)
    for ttl in range(first_ttl, max_ttl + 1):
        address: Optional[int] = None
        rtt: Optional[float] = None
        for _attempt in range(retries + 1):
            reply = prober.probe(dst, ttl, flow_id)
            result.probes_used += 1
            if reply is None:
                continue
            if reply.is_echo:
                result.reached = True
                return result
            address = reply.source
            rtt = reply.rtt_ms
            break
        result.hops.append(TracerouteHop(ttl, address, rtt))
    return result


# -- route comparison (Section 2.1) ----------------------------------------


def routes_equal(a: Route, b: Route, wildcards: bool = True) -> bool:
    """Hop-by-hop route equality.

    With ``wildcards``, an unresponsive hop matches anything (the
    paper's fix for ICMP rate limiting): <A, *, C> equals <A, B, C>.
    """
    if len(a) != len(b):
        return False
    for hop_a, hop_b in zip(a, b):
        if hop_a is None or hop_b is None:
            if not wildcards:
                if hop_a is not hop_b:
                    return False
            continue
        if hop_a != hop_b:
            return False
    return True


def route_sets_share_route(
    set_a: Iterable[Route], set_b: Iterable[Route], wildcards: bool = True
) -> bool:
    """True if any route in one set matches any route in the other —
    the paper's generous "identical routes" criterion (Section 2.1)."""
    list_b = list(set_b)
    return any(
        routes_equal(route_a, route_b, wildcards)
        for route_a in set_a
        for route_b in list_b
    )
