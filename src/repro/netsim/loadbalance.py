"""Next-hop selection: single path and the three load-balancer kinds.

A FIB entry resolves to a :class:`NextHopSelector`. The selector decides
which of its candidate next hops a given probe takes:

* :class:`SingleNextHop` — ordinary unipath routing.
* :class:`PerFlowBalancer` — hashes (src, dst, flow id); Paris
  traceroute's fixed header fields pin the choice, MDA's flow-id
  variation enumerates all branches.
* :class:`PerDestinationBalancer` — hashes the destination address only
  (route-cache style, Section 2.2); co-located destinations diverge and
  no amount of flow-id variation from a single destination reveals the
  other branches. Optionally also hashes the source address (some
  routers do — Section 6.1 cites CEF), which is what makes probing from
  additional vantage points reveal extra last-hop routers.
* :class:`PerPacketBalancer` — chooses pseudo-randomly per probe.
"""

from __future__ import annotations

from typing import Sequence

from ..util.hashing import mix, mix_choice


class NextHopSelector:
    """Base class: pick a next-hop router id for a probe."""

    #: Candidate next-hop router ids, in a stable order.
    next_hops: Sequence[int]

    def select(self, src: int, dst: int, flow_id: int, nonce: int) -> int:
        """Return the chosen next-hop router id.

        ``nonce`` is a per-probe value; only per-packet balancers use it.
        """
        raise NotImplementedError


class SingleNextHop(NextHopSelector):
    """Unipath: always the same next hop."""

    def __init__(self, next_hop: int) -> None:
        self.next_hops = (next_hop,)

    def select(self, src: int, dst: int, flow_id: int, nonce: int) -> int:
        return self.next_hops[0]


class PerFlowBalancer(NextHopSelector):
    """ECMP keyed on the flow: (source, destination, flow id)."""

    def __init__(self, next_hops: Sequence[int], salt: int) -> None:
        if not next_hops:
            raise ValueError("balancer needs at least one next hop")
        self.next_hops = tuple(next_hops)
        self.salt = salt

    def select(self, src: int, dst: int, flow_id: int, nonce: int) -> int:
        index = mix_choice(self.salt, len(self.next_hops), src, dst, flow_id)
        return self.next_hops[index]


class PerDestinationBalancer(NextHopSelector):
    """ECMP keyed on the destination address (optionally plus source)."""

    def __init__(
        self,
        next_hops: Sequence[int],
        salt: int,
        include_source: bool = False,
    ) -> None:
        if not next_hops:
            raise ValueError("balancer needs at least one next hop")
        self.next_hops = tuple(next_hops)
        self.salt = salt
        self.include_source = include_source

    def select(self, src: int, dst: int, flow_id: int, nonce: int) -> int:
        if self.include_source:
            index = mix_choice(self.salt, len(self.next_hops), src, dst)
        else:
            index = mix_choice(self.salt, len(self.next_hops), dst)
        return self.next_hops[index]


class PerPacketBalancer(NextHopSelector):
    """Round-robin/random per packet: different probes take different
    branches regardless of headers."""

    def __init__(self, next_hops: Sequence[int], salt: int) -> None:
        if not next_hops:
            raise ValueError("balancer needs at least one next hop")
        self.next_hops = tuple(next_hops)
        self.salt = salt

    def select(self, src: int, dst: int, flow_id: int, nonce: int) -> int:
        index = mix(self.salt, nonce) % len(self.next_hops)
        return self.next_hops[index]


class HybridBalancer(NextHopSelector):
    """Two load-balancing stages in one: a per-destination choice of a
    *pair* of next hops, then a per-flow choice within the pair.

    This models the common real-world stack-up — a route-cache
    per-destination balancer in front of per-flow ECMP — which gives
    each destination a 2-element next-hop set that overlaps with its
    neighbours' sets.
    """

    def __init__(self, next_hops: Sequence[int], salt: int) -> None:
        if len(next_hops) < 2:
            raise ValueError("hybrid balancer needs at least two next hops")
        self.next_hops = tuple(next_hops)
        self.salt = salt

    def pair_for(self, dst: int) -> Sequence[int]:
        first = mix_choice(self.salt, len(self.next_hops), dst)
        second = (first + 1) % len(self.next_hops)
        return (self.next_hops[first], self.next_hops[second])

    def select(self, src: int, dst: int, flow_id: int, nonce: int) -> int:
        pair = self.pair_for(dst)
        return pair[mix_choice(self.salt ^ 0x5A5A, 2, src, dst, flow_id)]
