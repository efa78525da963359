"""Probing tools: ZMap-style scanning, ping, Paris traceroute and MDA,
all driven through budgeted probe sessions."""

from .mda import (
    LasthopResult,
    MultipathResult,
    enumerate_paths,
    identify_lasthops,
)
from .ping import PingResult, ping
from .session import ProbeBudgetExceeded, ProbeStats, Prober
from .stopping import probes_required, probes_to_rule_out
from .traceroute import (
    Route,
    TracerouteHop,
    TracerouteResult,
    paris_traceroute,
    route_sets_share_route,
    routes_equal,
)
from .zmap import ActivitySnapshot, scan, scan_with_probes

__all__ = [
    "ActivitySnapshot",
    "LasthopResult",
    "MultipathResult",
    "PingResult",
    "ProbeBudgetExceeded",
    "ProbeStats",
    "Prober",
    "Route",
    "TracerouteHop",
    "TracerouteResult",
    "enumerate_paths",
    "identify_lasthops",
    "paris_traceroute",
    "ping",
    "probes_required",
    "probes_to_rule_out",
    "route_sets_share_route",
    "routes_equal",
    "scan",
    "scan_with_probes",
]
