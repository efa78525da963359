"""Probing tools: ZMap-style scanning, the stopping rule and route
comparison, with probe accounting kept by probe sessions. The path
dataset's Paris-traceroute MDA and ping run on the compiled engine
(:func:`repro.core.pipeline.enumerate_paths` and
:func:`repro.core.pipeline.ping`)."""

from .session import ProbeStats, Prober
from .stopping import probes_required, probes_to_rule_out
from .traceroute import Route, route_sets_share_route, routes_equal
from .zmap import ActivitySnapshot, scan

__all__ = [
    "ActivitySnapshot",
    "ProbeStats",
    "Prober",
    "Route",
    "probes_required",
    "probes_to_rule_out",
    "route_sets_share_route",
    "routes_equal",
    "scan",
]
