"""Synthetic Internet simulator: topology, routing, load balancing,
hosts, ICMP semantics and the registries (GeoLite/WHOIS/rDNS) the paper
consults."""

from .allocation import Allocation, AllocationMap, Pod, SPLIT_COMPOSITIONS
from .build import BuiltScenario, build_scenario
from .config import (
    BigPodSpec,
    DiamondSpec,
    EventConfig,
    OrgSpec,
    ScenarioConfig,
    paper_scenario,
    small_scenario,
    tiny_scenario,
)
from .events import EventSchedule, build_event_schedule
from .geodb import GeoDatabase, GeoRecord
from .groundtruth import GroundTruth, TrueBlock
from .icmp import RateLimiter, infer_default_ttl, infer_hop_count
from .internet import SimulatedInternet
from .orgs import Organization, OrgRegistry, OrgType
from .routing import Fib, Forwarder, RouteEntry
from .topology import Router, RouterRole, Topology
from .whois import WhoisRecord, WhoisService

__all__ = [
    "Allocation",
    "AllocationMap",
    "BigPodSpec",
    "BuiltScenario",
    "DiamondSpec",
    "EventConfig",
    "EventSchedule",
    "Fib",
    "Forwarder",
    "GeoDatabase",
    "GeoRecord",
    "GroundTruth",
    "Organization",
    "OrgRegistry",
    "OrgSpec",
    "OrgType",
    "Pod",
    "RateLimiter",
    "RouteEntry",
    "Router",
    "RouterRole",
    "SPLIT_COMPOSITIONS",
    "ScenarioConfig",
    "SimulatedInternet",
    "Topology",
    "TrueBlock",
    "WhoisRecord",
    "WhoisService",
    "build_event_schedule",
    "build_scenario",
    "infer_default_ttl",
    "infer_hop_count",
    "paper_scenario",
    "small_scenario",
    "tiny_scenario",
]
