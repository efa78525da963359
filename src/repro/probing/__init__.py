"""Probing tools: ZMap-style scanning, ping, Paris traceroute and MDA,
with probe accounting kept by probe sessions."""

from .mda import MultipathResult, enumerate_paths
from .ping import PingResult, ping
from .session import ProbeStats, Prober
from .stopping import probes_required, probes_to_rule_out
from .traceroute import (
    Route,
    TracerouteHop,
    TracerouteResult,
    paris_traceroute,
    route_sets_share_route,
    routes_equal,
)
from .zmap import ActivitySnapshot, scan

__all__ = [
    "ActivitySnapshot",
    "MultipathResult",
    "PingResult",
    "ProbeStats",
    "Prober",
    "Route",
    "TracerouteHop",
    "TracerouteResult",
    "enumerate_paths",
    "paris_traceroute",
    "ping",
    "probes_required",
    "probes_to_rule_out",
    "route_sets_share_route",
    "routes_equal",
    "scan",
]
