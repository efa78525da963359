"""Paris traceroute MDA: per-flow path enumeration for the path dataset.

:func:`enumerate_paths` discovers all per-flow load-balanced paths
towards one destination by tracing with varied flow ids until the
stopping rule of :mod:`.stopping` says no further path is likely to
exist. (This is a path-level formulation of MDA; with the simulator's
equal-length, uniformly-hashed branches it discovers exactly the
per-hop MDA path set. Per-destination branches are invisible to it by
nature — only probing *other destinations* reveals those, which is the
paper's whole point.)

Hobbit's own last-hop identification (Sections 3.4-3.5) runs on the
compiled engine, :mod:`repro.core.fastengine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set

from .session import Prober
from .stopping import DEFAULT_CONFIDENCE, probes_required
from .traceroute import (
    DEFAULT_MAX_TTL,
    Route,
    TracerouteResult,
    paris_traceroute,
)


@dataclass
class MultipathResult:
    """All per-flow paths discovered towards one destination."""

    dst: int
    routes: Set[Route] = field(default_factory=set)
    traces: List[TracerouteResult] = field(default_factory=list)
    reached: bool = False
    probes_used: int = 0

    @property
    def lasthop_addresses(self) -> FrozenSet[Optional[int]]:
        """Final-router address of each discovered path (None entries
        for paths whose last hop never answered)."""
        lasthops = set()
        for trace in self.traces:
            if trace.reached:
                lasthops.add(trace.lasthop_address)
        return frozenset(lasthops)

    @property
    def route_count(self) -> int:
        return len(self.routes)


def enumerate_paths(
    prober: Prober,
    dst: int,
    confidence: float = DEFAULT_CONFIDENCE,
    max_ttl: int = DEFAULT_MAX_TTL,
    flow_seed: int = 0,
    max_flows: int = 64,
) -> MultipathResult:
    """Enumerate the per-flow path set towards ``dst``. See module doc."""
    result = MultipathResult(dst=dst)
    flows_tried = 0
    while flows_tried < min(probes_required(max(len(result.routes), 1), confidence), max_flows):
        trace = paris_traceroute(
            prober, dst, flow_id=flow_seed + flows_tried, max_ttl=max_ttl
        )
        result.probes_used += trace.probes_used
        flows_tried += 1
        if not trace.reached:
            continue
        result.reached = True
        result.traces.append(trace)
        result.routes.add(trace.route)
    return result
