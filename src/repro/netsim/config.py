"""Scenario configuration.

A :class:`ScenarioConfig` fully describes a synthetic Internet: the
organizations and their address holdings, how their operators build pods
and load-balance across last-hop routers, host population behaviour, and
ICMP realism knobs. Everything is deterministic given ``seed``.

The presets at the bottom are the scenarios the experiments run on:

* :func:`tiny_scenario` — a few hundred /24s; unit/integration tests.
* :func:`small_scenario` — ~2k /24s; fast experiment smoke runs.
* :func:`paper_scenario` — a scaled-down image of the paper's measured
  Internet, with the organizations of Tables 3 and 5 present by name and
  the phenomena rates (per-destination load balancing, last-hop
  divergence, split /24s, unresponsive last-hops) set to reproduce the
  paper's percentages.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

from .orgs import OrgType


@dataclass(frozen=True)
class BigPodSpec:
    """An explicitly-sized large homogeneous block (a Table 5 entry).

    ``fragments`` controls discontiguity: the pod's /24s are laid out as
    roughly this many contiguous runs separated by other allocations
    (Figure 8 shows large blocks are made of several such runs).
    """

    size_slash24s: int
    cellular: bool = False
    fragments: int = 4
    rdns_pattern_id: int = 0
    lasthop_count: int = 2
    host_density: float = 0.5
    label: str = ""
    #: Overrides the org's scheme for this pod ("" → org default, or the
    #: org's ``cellular_rdns_scheme`` when the pod is cellular).
    rdns_scheme: str = ""
    #: Last-hop balancing mode ("" → drawn from the org's weights).
    lasthop_mode: str = ""


@dataclass(frozen=True)
class DiamondSpec:
    """Upstream load-balancing between an org's border and its metros."""

    perdest_probability: float = 0.70
    perflow_probability: float = 0.18
    min_width: int = 2
    max_width: int = 6
    #: Probabilities of a second/third balancing stage behind the first;
    #: chained per-destination stages multiply path diversity, which is
    #: what drives entire-traceroute cardinality through the roof
    #: (Figure 3b) and defeats the entire-path metric (Section 3.1) —
    #: when per-destination combinations outnumber probed addresses,
    #: every address gets a unique route signature and the grouping
    #: degenerates to hierarchical singletons.
    second_stage_probability: float = 0.5
    third_stage_probability: float = 0.22
    #: Fraction of per-destination balancers that also hash the source
    #: address (Section 6.1: some routers do).
    source_hash_probability: float = 0.3


@dataclass(frozen=True)
class OrgSpec:
    """One organization's identity plus behavioural profile."""

    name: str
    asn: int
    country: str
    city: str
    org_type: OrgType
    num_slash24s: int
    # -- pod structure --
    #: Geometric parameter for small-pod sizes (higher → more 1-/24 pods).
    pod_size_geometric_p: float = 0.7
    big_pods: Tuple[BigPodSpec, ...] = ()
    #: Fraction of single-/24 pods that are split into sub-/24 customer
    #: allocations (Table 2 / Table 4 behaviour).
    split24_fraction: float = 0.0
    # -- last hops --
    multi_lasthop_fraction: float = 0.75
    lasthop_k_weights: Tuple[Tuple[int, float], ...] = (
        (2, 0.40),
        (3, 0.28),
        (4, 0.18),
        (6, 0.07),
        (8, 0.04),
        (12, 0.03),
    )
    #: How metros balance across a pod's last-hop routers: pure
    #: per-destination (route-cache), hybrid (per-destination pair with
    #: per-flow ECMP inside — the common real stack-up), or pure
    #: per-flow ECMP.
    lasthop_mode_weights: Tuple[Tuple[str, float], ...] = (
        ("per-destination", 0.38),
        ("hybrid", 0.40),
        ("per-flow", 0.22),
    )
    unresponsive_lasthop_fraction: float = 0.38
    # -- hosts --
    host_density_range: Tuple[float, float] = (0.04, 0.28)
    host_stability_range: Tuple[float, float] = (0.55, 0.90)
    #: Per-org override of the scenario's block sleep probability
    #: (None → hosting orgs get ~0, others the scenario default).
    block_sleep_probability: Optional[float] = None
    # -- naming --
    rdns_scheme: str = "residential"
    cellular_rdns_scheme: str = ""
    #: Fraction of pods whose upper /25s use a second rDNS pattern.
    dual_pattern_fraction: float = 0.0
    # -- upstream --
    diamond: DiamondSpec = DiamondSpec()
    metro_size_slash24s: int = 256
    # -- registry --
    registry: str = "generic"  # "krnic" for Korean allocations
    #: Cellular promotion delay range, seconds (used by cellular pods).
    promotion_delay_range: Tuple[float, float] = (0.25, 2.5)


@dataclass(frozen=True)
class EventConfig:
    """Mid-campaign dynamics: the internet refuses to hold still.

    Every knob is an *intensity* — the fraction of eligible pods (or,
    for storms, of campaign wall-clock) subject to the stressor. All
    zeros (the default) disables the event engine entirely: no schedule
    object is built and every probe path stays byte-identical to a
    build without this class (events are pay-for-what-you-use).

    Event selection and phases derive from the scenario seed (via the
    ``"events"`` seed stream) and the virtual clock only, so serial,
    parallel and resumed campaigns see identical dynamics.
    """

    #: Fraction of whole-/24 pods whose subscribers renumber between
    #: the snapshot scan and the probing campaign (DHCP lease roll).
    renumber_fraction: float = 0.0
    #: Fraction of pods whose metro route is re-pointed to a different
    #: last-hop router set before the campaign starts.
    reroute_fraction: float = 0.0
    #: Fraction of pods that suffer periodic regional outages (hosts
    #: stop answering; routers still do).
    outage_fraction: float = 0.0
    #: Outage recurrence period and on-fraction within each period.
    outage_period_seconds: float = 8.0
    outage_duty: float = 0.25
    #: Fraction of campaign time spent inside ICMP rate-limit storms
    #: (token buckets temporarily shrunk to ``storm_factor``).
    storm_duty: float = 0.0
    storm_period_seconds: float = 4.0
    storm_factor: float = 0.1

    @property
    def enabled(self) -> bool:
        """True when any stressor has nonzero intensity."""
        return (
            self.renumber_fraction > 0.0
            or self.reroute_fraction > 0.0
            or self.outage_fraction > 0.0
            or self.storm_duty > 0.0
        )

    @classmethod
    def at_intensity(cls, intensity: float) -> "EventConfig":
        """All four stressors dialed to one scalar in [0, 1] — the
        shape behind the ``REPRO_EVENTS`` / ``--events`` knob. Any other
        value raises :class:`ValueError`."""
        check_intensity(intensity, "intensity")
        if intensity == 0.0:
            return cls()
        return cls(
            renumber_fraction=intensity,
            reroute_fraction=intensity * 0.5,
            outage_fraction=intensity * 0.5,
            storm_duty=intensity * 0.5,
        )


def check_intensity(value: float, name: str) -> None:
    """Refuse an event intensity outside [0, 1] (NaN included)."""
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and 0.0 <= value <= 1.0
    ):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def check_scale(value: float, name: str) -> None:
    """Refuse a scenario scale that is not a finite number > 0."""
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    ):
        raise ValueError(
            f"{name} must be a finite number greater than 0, got {value!r}"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Global scenario parameters plus the org list."""

    seed: int = 0
    orgs: Tuple[OrgSpec, ...] = ()
    # -- core topology --
    core_pool_size: int = 8
    core_diamond_width: int = 3
    # -- host attributes --
    default_ttl_weights: Tuple[Tuple[int, float], ...] = (
        (64, 0.60),
        (128, 0.35),
        (255, 0.05),
    )
    custom_ttl_probability: float = 0.01
    reverse_delta_weights: Tuple[Tuple[int, float], ...] = (
        (0, 0.75),
        (1, 0.10),
        (-1, 0.08),
        (2, 0.04),
        (-2, 0.03),
    )
    # -- ICMP realism --
    router_loss_probability: float = 0.02
    host_loss_probability: float = 0.01
    #: (capacity, rate per second) token bucket on last-hop routers, or
    #: None to disable rate limiting.
    lasthop_rate_limit: Optional[Tuple[float, float]] = (600.0, 300.0)
    #: Token bucket on metro/diamond routers. Bulk multipath tracing
    #: hammers these mid-path routers, so their ICMP throttling is what
    #: fragments entire-traceroute signatures (Sections 2.1 and 3.1).
    infra_rate_limit: Optional[Tuple[float, float]] = (48.0, 24.0)
    #: Probability that a whole /24 sleeps in a given epoch (block-level
    #: diurnal churn; the dominant source of "Too few active").
    block_sleep_probability: float = 0.33
    # -- clock --
    probe_clock_step_seconds: float = 0.004
    epoch_seconds: float = 1800.0
    snapshot_epoch: int = -1
    # -- vantage --
    vantage_address_text: str = "200.0.0.1"
    # -- mid-campaign dynamics (all-zero default: engine disabled) --
    events: EventConfig = EventConfig()


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def tiny_scenario(seed: int = 7) -> ScenarioConfig:
    """A few hundred /24s across three orgs; for tests."""
    orgs = (
        OrgSpec(
            name="TestNet Broadband",
            asn=65001,
            country="US",
            city="denver",
            org_type=OrgType.BROADBAND,
            num_slash24s=120,
            split24_fraction=0.06,
            host_density_range=(0.25, 0.6),
            rdns_scheme="twc",
            dual_pattern_fraction=0.25,
            metro_size_slash24s=40,
        ),
        OrgSpec(
            name="TestNet Hosting",
            asn=65002,
            country="US",
            city="phoenix",
            org_type=OrgType.HOSTING,
            num_slash24s=120,
            big_pods=(
                BigPodSpec(size_slash24s=40, fragments=3, host_density=0.6),
                BigPodSpec(size_slash24s=24, fragments=2, host_density=0.6),
            ),
            host_density_range=(0.4, 0.7),
            rdns_scheme="hosting-generic",
            unresponsive_lasthop_fraction=0.12,
            metro_size_slash24s=40,
        ),
        OrgSpec(
            name="TestNet Mobile",
            asn=65003,
            country="SE",
            city="stockholm",
            org_type=OrgType.MOBILE_BROADBAND,
            num_slash24s=80,
            big_pods=(
                BigPodSpec(
                    size_slash24s=48, cellular=True, fragments=3,
                    host_density=0.5, lasthop_count=3,
                ),
            ),
            rdns_scheme="residential",
            cellular_rdns_scheme="tele2-cellular",
            metro_size_slash24s=40,
        ),
    )
    return ScenarioConfig(seed=seed, orgs=orgs)


def small_scenario(seed: int = 11) -> ScenarioConfig:
    """~2k /24s; fast experiment smoke runs."""
    return paper_scenario(scale=0.07, seed=seed)


def paper_scenario(scale: float = 1.0, seed: int = 2016) -> ScenarioConfig:
    """A scaled-down image of the paper's measured Internet.

    ``scale`` multiplies broadband org sizes; the named large blocks of
    Table 5 keep their absolute sizes for ``scale >= 0.5`` and shrink
    proportionally below that (so their relative order is preserved).
    ``scale`` must be a finite number greater than 0.
    """
    check_scale(scale, "scale")

    def n(base: int, minimum: int = 8) -> int:
        return max(minimum, int(round(base * scale)))

    def big(size: int, **kwargs) -> BigPodSpec:
        factor = min(1.0, max(scale, 0.02))
        return BigPodSpec(size_slash24s=max(4, int(round(size * factor))), **kwargs)

    korean_diamond = DiamondSpec(perdest_probability=0.85)
    orgs = (
        # --- Table 3: split-/24 heavy Korean broadband ---
        OrgSpec(
            name="Korea Telecom", asn=4766, country="Korea", city="seoul",
            org_type=OrgType.BROADBAND, num_slash24s=n(2600),
            split24_fraction=0.18, registry="krnic",
            rdns_scheme="korea-customer", diamond=korean_diamond,
            host_density_range=(0.03, 0.25),
        ),
        OrgSpec(
            name="SK Broadband", asn=9318, country="Korea", city="seoul",
            org_type=OrgType.BROADBAND, num_slash24s=n(1100),
            split24_fraction=0.10, registry="krnic",
            rdns_scheme="korea-customer", diamond=korean_diamond,
        ),
        OrgSpec(
            name="SFR", asn=15557, country="France", city="paris",
            org_type=OrgType.BROADBAND, num_slash24s=n(1400),
            split24_fraction=0.008, rdns_scheme="residential",
        ),
        OrgSpec(
            name="TDC A/S", asn=3292, country="Denmark", city="copenhagen",
            org_type=OrgType.BROADBAND, num_slash24s=n(900),
            split24_fraction=0.012, rdns_scheme="residential",
        ),
        OrgSpec(
            name="TM Net", asn=4788, country="Malaysia", city="kuala-lumpur",
            org_type=OrgType.BROADBAND, num_slash24s=n(800),
            split24_fraction=0.007, rdns_scheme="residential",
        ),
        OrgSpec(
            name="Telenor A/S", asn=9158, country="Denmark", city="copenhagen",
            org_type=OrgType.BROADBAND, num_slash24s=n(700),
            split24_fraction=0.006, rdns_scheme="residential",
        ),
        OrgSpec(
            name="ColoCrossing", asn=36352, country="US", city="buffalo",
            org_type=OrgType.HOSTING, num_slash24s=n(500),
            split24_fraction=0.006, rdns_scheme="hosting-generic",
            host_density_range=(0.3, 0.65),
        ),
        OrgSpec(
            name="Caucasus Online", asn=28751, country="Georgia",
            city="tbilisi", org_type=OrgType.BROADBAND,
            num_slash24s=n(420), split24_fraction=0.007,
            rdns_scheme="residential",
        ),
        OrgSpec(
            name="Magticom", asn=20751, country="Georgia", city="tbilisi",
            org_type=OrgType.BROADBAND, num_slash24s=n(400),
            split24_fraction=0.007, rdns_scheme="residential",
        ),
        OrgSpec(
            name="IRIS 64", asn=35632, country="France", city="paris",
            org_type=OrgType.BROADBAND, num_slash24s=n(380),
            split24_fraction=0.007, rdns_scheme="residential",
        ),
        # --- Table 5: large homogeneous blocks ---
        OrgSpec(
            name="EGI Hosting", asn=18779, country="US", city="santa-clara",
            org_type=OrgType.HOSTING, num_slash24s=n(1500),
            big_pods=(big(1251, fragments=6, host_density=0.55,
                          lasthop_count=1, label="egihosting-main"),),
            rdns_scheme="hosting-generic", host_density_range=(0.3, 0.6),
        ),
        OrgSpec(
            name="Tele2", asn=1257, country="Sweden", city="stockholm",
            org_type=OrgType.BROADBAND, num_slash24s=n(2500),
            big_pods=(
                big(1187, cellular=True, fragments=5, lasthop_count=3,
                    rdns_pattern_id=0, host_density=0.25,
                    label="tele2-cell-se"),
                big(857, cellular=True, fragments=4, lasthop_count=3,
                    rdns_pattern_id=1, host_density=0.25,
                    label="tele2-cell-hr"),
            ),
            rdns_scheme="residential", cellular_rdns_scheme="tele2-cellular",
        ),
        OrgSpec(
            name="Amazon", asn=16509, country="Japan", city="tokyo",
            org_type=OrgType.HOSTING_CLOUD, num_slash24s=n(2700),
            big_pods=(
                big(1122, fragments=5, rdns_pattern_id=1, host_density=0.6,
                    lasthop_count=3, lasthop_mode="hybrid", label="ec2-ap-northeast-1"),
                big(835, fragments=4, rdns_pattern_id=0, host_density=0.6,
                    lasthop_count=3, lasthop_mode="hybrid", label="ec2-us-west-1"),
                big(620, fragments=4, rdns_pattern_id=2, host_density=0.6,
                    lasthop_count=6, lasthop_mode="hybrid", label="ec2-eu-west-1"),
            ),
            rdns_scheme="ec2", host_density_range=(0.4, 0.7),
        ),
        OrgSpec(
            name="NTT America", asn=2914, country="US", city="dallas",
            org_type=OrgType.HOSTING_CLOUD, num_slash24s=n(1300),
            big_pods=(big(1071, fragments=5, host_density=0.5,
                          lasthop_count=3, lasthop_mode="hybrid", label="ntt-dc"),),
            rdns_scheme="hosting-generic",
        ),
        OrgSpec(
            name="OPENTRANSFER", asn=32392, country="US", city="orlando",
            org_type=OrgType.HOSTING, num_slash24s=n(1900),
            big_pods=(
                big(940, fragments=5, host_density=0.5,
                    lasthop_count=1, label="opentransfer-a"),
                big(698, fragments=4, host_density=0.5,
                    lasthop_count=1, label="opentransfer-b"),
            ),
            rdns_scheme="hosting-generic",
        ),
        OrgSpec(
            name="OCN", asn=4713, country="Japan", city="tokyo",
            org_type=OrgType.BROADBAND, num_slash24s=n(2100),
            big_pods=(
                big(840, cellular=True, fragments=4, lasthop_count=3,
                    rdns_pattern_id=0, host_density=0.25,
                    label="ocn-cell-tokyo"),
                big(783, cellular=True, fragments=4, lasthop_count=3,
                    rdns_pattern_id=1, host_density=0.25,
                    label="ocn-cell-osaka"),
            ),
            rdns_scheme="residential", cellular_rdns_scheme="ocn-cellular",
        ),
        OrgSpec(
            name="SingTel", asn=9506, country="Singapore", city="singapore",
            org_type=OrgType.BROADBAND, num_slash24s=n(900),
            big_pods=(big(732, fragments=4, host_density=0.5,
                          lasthop_count=1, label="singtel-dc"),),
            rdns_scheme="singtel-dc",
        ),
        OrgSpec(
            name="SoftBank", asn=17676, country="Japan", city="tokyo",
            org_type=OrgType.BROADBAND, num_slash24s=n(900),
            big_pods=(big(731, fragments=4, host_density=0.5,
                          lasthop_count=1, label="softbank-dc"),),
            rdns_scheme="softbank-dc",
        ),
        OrgSpec(
            name="GoDaddy", asn=26496, country="US", city="phoenix",
            org_type=OrgType.HOSTING, num_slash24s=n(850),
            big_pods=(big(703, fragments=4, host_density=0.55,
                          lasthop_count=1, label="godaddy-dc"),),
            rdns_scheme="hosting-generic",
        ),
        OrgSpec(
            name="Verizon Wireless", asn=22394, country="US",
            city="basking-ridge", org_type=OrgType.MOBILE_BROADBAND,
            num_slash24s=n(850),
            big_pods=(big(699, cellular=True, fragments=4, lasthop_count=3,
                          host_density=0.4, label="vzw-ingress"),),
            rdns_scheme="verizon-cellular",
            cellular_rdns_scheme="verizon-cellular",
        ),
        OrgSpec(
            name="Cox", asn=22773, country="US", city="phoenix",
            org_type=OrgType.FIXED_BROADBAND, num_slash24s=n(850),
            big_pods=(big(679, fragments=4, host_density=0.45,
                          lasthop_count=1, label="cox-phoenix-nap",
                          rdns_scheme="cox-business"),),
            rdns_scheme="residential",
        ),
        # --- Figure 12's sampling substrate ---
        OrgSpec(
            name="Time Warner Cable", asn=11351, country="US",
            city="new-york", org_type=OrgType.FIXED_BROADBAND,
            num_slash24s=n(1600), rdns_scheme="twc",
            dual_pattern_fraction=0.15,
            host_density_range=(0.15, 0.5),
        ),
    )
    return ScenarioConfig(seed=seed, orgs=orgs)
