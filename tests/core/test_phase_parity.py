"""Shared-context parity of the per-/24 and per-destination entry
points.

The campaign measures each /24 in a freshly pinned context with a fresh
RNG. The confidence dataset, strict-het re-probing and
cluster-validation reprobing instead measure a *sequence* of /24s
through one Prober, one ``random.Random`` and one running measurement
context: each /24 starts from the clock, nonce, token buckets and radio
tracker the previous one left, and draws from where it left the RNG.
The path dataset likewise traces a sequence of destinations in one
context. :func:`repro.core.pipeline.measure` and
:func:`repro.core.pipeline.enumerate_paths` must continue such a context
on the compiled engine exactly as the object classifier and the object
MDA do. Every case runs the same sequence twice, as shipped and with
every /24 and destination forced onto the reference's ``Prober``
(``tests/oracle.py``), and compares everything the sequence leaves
behind.
"""

import dataclasses
import random

import pytest

from repro.analysis.multivantage import vantage_addresses
from repro.core import (
    ConfidenceTable,
    ExhaustivePolicy,
    ReprobePolicy,
    TerminationPolicy,
)
from repro.core.fastengine import FastCampaignEngine, RouteTemplateError
from repro.core.pipeline import enumerate_paths, measure, ping
from repro.experiments.common import PROFILES, Workspace
from repro.net.addr import format_address
from repro.netsim import EventConfig, SimulatedInternet, tiny_scenario
from repro.netsim.loadbalance import PerFlowBalancer, PerPacketBalancer
from repro.netsim.routing import RouteEntry
from repro.probing import Prober, scan
from tests import oracle

SELECTION = 24
INTENSITY = 0.6
CONTEXT_CLOCK = 100.0
CONTEXT_NONCE = 0x5EED
RNG_SEED = 5

#: name → (policy type, destination cap)
POLICIES = {
    "reprobe": (ReprobePolicy, None),
    "reprobe-cap16": (ReprobePolicy, 16),
    "exhaustive-cap12": (ExhaustivePolicy, 12),
}


def _internet(intensity):
    config = tiny_scenario(seed=13)
    if intensity:
        config = dataclasses.replace(
            config, events=EventConfig.at_intensity(intensity)
        )
    internet = SimulatedInternet.from_config(config)
    return internet, scan(internet)


def _end_state(internet, prober, outputs):
    """Everything a measured or traced sequence leaves behind."""
    routers = {
        id(router.rate_limiter): router.router_id
        for router in internet.topology
        if router.rate_limiter is not None
    }
    return {
        "outputs": outputs,
        "clock": internet.clock_seconds,
        "nonce": internet._nonce,
        "probe_count": internet.probe_count,
        "stats": prober.stats,
        "buckets": sorted(
            (
                router.router_id,
                router.rate_limiter._tokens,
                router.rate_limiter._last_time,
            )
            for router in internet.topology
            if router.rate_limiter is not None
        ),
        "touched": sorted(
            routers[id(limiter)] for limiter in internet._touched_limiters
        ),
        "radio": dict(internet._radio._last_probe),
        "events": (
            dict(internet.events.counters) if internet.events else None
        ),
    }


def _run_sequence(policy_name, alternate_source, intensity, prober_path):
    """Measure a strided selection of /24s in one context, one RNG and
    one Prober; returns (end state, the simulator)."""
    kind, cap = POLICIES[policy_name]
    with pytest.MonkeyPatch.context() as patch:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        internet, snapshot = _internet(intensity)
        eligible = snapshot.eligible_slash24s()
        selection = eligible[:: max(1, len(eligible) // SELECTION)]
        source = (
            vantage_addresses(internet, 2)[1] if alternate_source else None
        )
        internet.begin_measurement_context(
            clock_seconds=CONTEXT_CLOCK, nonce=CONTEXT_NONCE
        )
        prober = Prober(internet, source=source)
        rng = random.Random(RNG_SEED)
        policy = kind()
        measurements = [
            measure(
                prober, slash24, snapshot, policy, rng,
                max_destinations=cap,
            )
            for slash24 in selection[:SELECTION]
        ]
        state = _end_state(internet, prober, measurements)
        state["rng"] = rng.getstate()
        return state, internet


@pytest.mark.parametrize("intensity", [0.0, INTENSITY])
@pytest.mark.parametrize(
    "alternate_source", [False, True], ids=["default-source", "vantage-1"]
)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_sequence_matches_prober(policy_name, alternate_source, intensity):
    shipped, internet = _run_sequence(
        policy_name, alternate_source, intensity, prober_path=False
    )
    reference, _ = _run_sequence(
        policy_name, alternate_source, intensity, prober_path=True
    )
    assert getattr(internet, "_fast_engine", None) is not None
    for name in reference:
        assert shipped[name] == reference[name], name


def _assert_carried_state(state, internet):
    """Drained buckets, a woken cellular radio and renumbered
    availability keys under rate-limit storms."""
    assert any(
        tokens < internet.topology.by_id(router_id).rate_limiter.capacity - 1
        for router_id, tokens, _ in state["buckets"]
    )
    assert state["radio"]
    assert state["events"]["renumber"] > 0
    assert state["events"]["storm"] > 0


def test_sequence_exercises_carried_state():
    """The sequence really carries state from /24 to /24."""
    shipped, internet = _run_sequence(
        "exhaustive-cap12", False, INTENSITY, prober_path=False
    )
    _assert_carried_state(shipped, internet)


#: An address no allocation covers: every probe towards it times out.
UNALLOCATED = 0xC6000001
#: Active addresses traced per selected /24.
PATH_ADDRESSES = 2


def _run_paths(alternate_source, intensity, prober_path, max_ttl):
    """Trace the first active addresses of a strided selection of /24s,
    with the unallocated address in the middle, through one Prober in
    one context, as the path dataset does; returns (end state, the
    simulator)."""
    with pytest.MonkeyPatch.context() as patch:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        internet, snapshot = _internet(intensity)
        assert internet._allocation_of(UNALLOCATED) is None
        eligible = snapshot.eligible_slash24s()
        selection = eligible[:: max(1, len(eligible) // SELECTION)]
        destinations = [
            address
            for slash24 in selection[:SELECTION]
            for address in snapshot.active_in(slash24)[:PATH_ADDRESSES]
        ]
        destinations.insert(len(destinations) // 2, UNALLOCATED)
        source = (
            vantage_addresses(internet, 2)[1] if alternate_source else None
        )
        internet.begin_measurement_context(
            clock_seconds=CONTEXT_CLOCK, nonce=CONTEXT_NONCE
        )
        prober = Prober(internet, source=source)
        traces = []
        for dst in destinations:
            result = enumerate_paths(
                prober, dst, flow_seed=dst & 0xFFFF, max_ttl=max_ttl
            )
            traces.append((
                result.dst, result.routes, result.reached,
                result.probes_used,
            ))
        return _end_state(internet, prober, traces), internet


@pytest.mark.parametrize("intensity", [0.0, INTENSITY])
@pytest.mark.parametrize(
    "alternate_source", [False, True], ids=["default-source", "vantage-1"]
)
def test_paths_match_prober(alternate_source, intensity):
    shipped, internet = _run_paths(
        alternate_source, intensity, prober_path=False, max_ttl=32
    )
    reference, _ = _run_paths(
        alternate_source, intensity, prober_path=True, max_ttl=32
    )
    assert getattr(internet, "_fast_engine", None) is not None
    assert any(trace[2] for trace in shipped["outputs"])
    for name in reference:
        assert shipped[name] == reference[name], name


@pytest.mark.parametrize("intensity", [0.0, INTENSITY])
def test_short_traces_match_prober(intensity):
    """At ``max_ttl=5`` no trace reaches its destination, so every
    destination spends its whole flow budget and keeps no route."""
    shipped, _ = _run_paths(False, intensity, prober_path=False, max_ttl=5)
    reference, _ = _run_paths(False, intensity, prober_path=True, max_ttl=5)
    for _, routes, reached, _ in shipped["outputs"]:
        assert not reached and not routes
    for name in reference:
        assert shipped[name] == reference[name], name


def test_paths_exercise_carried_state():
    """The traced sequence really carries state from destination to
    destination, and the unallocated address costs probes but reaches
    nothing."""
    shipped, internet = _run_paths(
        False, INTENSITY, prober_path=False, max_ttl=32
    )
    _assert_carried_state(shipped, internet)
    (unallocated,) = [
        trace for trace in shipped["outputs"] if trace[0] == UNALLOCATED
    ]
    assert unallocated[1:3] == (set(), False)
    assert unallocated[3] > 0


def test_unbuildable_template_mid_sequence_names_the_slash24(monkeypatch):
    """A /24 in the middle of the sequence whose route template cannot
    be built stops the sequence with an error naming the /24, the
    destination and the reason; nothing measures it another way."""
    internet, snapshot = _internet(INTENSITY)
    eligible = snapshot.eligible_slash24s()
    victim = eligible[:: max(1, len(eligible) // SELECTION)][SELECTION // 2]
    failed = []
    real = FastCampaignEngine._program_for

    def failing(self, dst, src, host=None):
        if dst >> 8 == victim.network >> 8:
            failed.append(dst)
            raise RouteTemplateError("injected for the test")
        return real(self, dst, src, host)

    monkeypatch.setattr(FastCampaignEngine, "_program_for", failing)
    with pytest.raises(RouteTemplateError) as raised:
        _run_sequence("exhaustive-cap12", True, INTENSITY, prober_path=False)
    assert len(failed) == 1
    message = str(raised.value)
    assert str(victim) in message
    assert format_address(failed[0]) in message
    assert "injected for the test" in message


def test_unbuildable_template_names_the_traced_destination(monkeypatch):
    """A destination whose route template cannot be built raises an
    error naming it and the reason, before a probe is sent."""
    internet, snapshot = _internet(0.0)
    dst = snapshot.active_in(snapshot.eligible_slash24s()[0])[0]

    def failing(self, dst, src):
        raise RouteTemplateError("injected for the test")

    monkeypatch.setattr(FastCampaignEngine, "_program_for", failing)
    with pytest.raises(RouteTemplateError) as raised:
        enumerate_paths(Prober(internet), dst)
    assert format_address(dst) in str(raised.value)
    assert "injected for the test" in str(raised.value)
    assert internet.probe_count == 0


#: Idle seconds before each ping train: the radio of a cellular host
#: goes idle after 10 s, so it pays the promotion delay after 30 s and
#: 12 s, but not after 0 s or 5 s.
PING_GAPS = (30.0, 0.0, 5.0, 12.0)


def _ping_targets(internet, snapshot):
    """Two cellular and two wired snapshot addresses, from distinct
    /24s, and the unallocated address."""
    picked = {True: [], False: []}
    for slash24 in snapshot.eligible_slash24s():
        addr = snapshot.active_in(slash24)[0]
        kind = picked[internet.allocations.pod_of(addr).cellular]
        if len(kind) < 2:
            kind.append(addr)
    assert len(picked[True]) == len(picked[False]) == 2
    return picked[True] + picked[False] + [UNALLOCATED]


def _swap_in_per_packet_balancer(internet, destinations):
    """Replace the first per-flow balancer on the destinations' paths
    with a per-packet one over the same next hops (the builder makes
    none)."""
    forwarder = internet.forwarder
    for dst in destinations:
        if internet._allocation_of(dst) is None:
            continue
        for router in oracle.resolve_path(
            forwarder, internet.vantage_address, dst, 0
        ):
            fib = forwarder.fibs[router.router_id]
            entry = oracle.fib_lookup(fib, dst)
            selector = entry.selector
            if type(selector) is PerFlowBalancer:
                fib.install(
                    RouteEntry(
                        entry.prefix,
                        selector=PerPacketBalancer(
                            selector.next_hops, selector.salt
                        ),
                    )
                )
                forwarder._reset_compiled_state()
                return
    pytest.fail("no per-flow balancer on the destinations' paths")


def _run_pings(
    alternate_source, intensity, count, per_packet, prober_path
):
    """Ping each target after each idle gap through one Prober in one
    context, as the cellular RTT study does; returns (end state, the
    simulator)."""
    with pytest.MonkeyPatch.context() as patch:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        internet, snapshot = _internet(intensity)
        targets = _ping_targets(internet, snapshot)
        if per_packet:
            _swap_in_per_packet_balancer(internet, targets)
        source = (
            vantage_addresses(internet, 2)[1] if alternate_source else None
        )
        internet.begin_measurement_context(
            clock_seconds=CONTEXT_CLOCK, nonce=CONTEXT_NONCE
        )
        prober = Prober(internet, source=source)
        trains = []
        for addr in targets:
            for gap in PING_GAPS:
                internet.advance_clock(gap)
                result = ping(prober, addr, count=count)
                assert result.addr == addr
                trains.append([
                    None if rtt is None else rtt.hex()
                    for rtt in result.rtts_ms
                ])
        return _end_state(internet, prober, trains), internet


@pytest.mark.parametrize("per_packet", [False, True], ids=["", "per-packet"])
@pytest.mark.parametrize("count", [1, 20])
@pytest.mark.parametrize("intensity", [0.0, INTENSITY])
@pytest.mark.parametrize(
    "alternate_source", [False, True], ids=["default-source", "vantage-1"]
)
def test_pings_match_prober(alternate_source, intensity, count, per_packet):
    shipped, internet = _run_pings(
        alternate_source, intensity, count, per_packet, prober_path=False
    )
    reference, _ = _run_pings(
        alternate_source, intensity, count, per_packet, prober_path=True
    )
    assert getattr(internet, "_fast_engine", None) is not None
    assert any(rtt is not None for train in shipped["outputs"] for rtt in train)
    for name in reference:
        assert shipped[name] == reference[name], name


def test_pings_exercise_promotion_and_timeouts():
    """The sequence pays the promotion delay after the 30 s gaps only,
    and the unallocated address times out."""
    shipped, _ = _run_pings(False, 0.0, 20, False, prober_path=False)
    trains = [
        [None if rtt is None else float.fromhex(rtt) for rtt in train]
        for train in shipped["outputs"]
    ]
    first_minus_rest = [
        train[0] - max(rtt for rtt in train[1:] if rtt is not None)
        for train in trains
        if train[0] is not None and any(rtt is not None for rtt in train[1:])
    ]
    assert max(first_minus_rest) > 100.0
    assert min(first_minus_rest) < 100.0
    assert shipped["radio"]
    assert all(rtt is None for train in trains[-len(PING_GAPS):] for rtt in train)


def test_unbuildable_template_names_the_pinged_destination(monkeypatch):
    """A destination whose route template cannot be built raises an
    error naming it and the reason, before a probe is sent."""
    internet, snapshot = _internet(0.0)
    dst = snapshot.active_in(snapshot.eligible_slash24s()[0])[0]

    def failing(self, dst, src):
        raise RouteTemplateError("injected for the test")

    monkeypatch.setattr(FastCampaignEngine, "_program_for", failing)
    with pytest.raises(RouteTemplateError) as raised:
        ping(Prober(internet), dst)
    assert format_address(dst) in str(raised.value)
    assert "injected for the test" in str(raised.value)
    assert internet.probe_count == 0


class _CustomTable(ConfidenceTable):
    pass


class _CustomPolicy(ReprobePolicy):
    pass


@pytest.mark.parametrize(
    "policy, name",
    [
        (_CustomPolicy(), "_CustomPolicy"),
        (TerminationPolicy(confidence_table=_CustomTable()), "_CustomTable"),
    ],
    ids=["policy-subclass", "table-subclass"],
)
def test_policy_of_another_type_raises_type_error(policy, name):
    """The engine replicates the exact policy and table types; a
    subclass may override what it inlines, so it is refused before a
    probe is sent."""
    internet, snapshot = _internet(0.0)
    slash24 = snapshot.eligible_slash24s()[0]
    with pytest.raises(TypeError, match=name):
        measure(
            Prober(internet), slash24, snapshot, policy,
            random.Random(RNG_SEED),
        )
    assert internet.probe_count == 0


def _workspace_phases(intensity, prober_path):
    """The four Prober-driven phases of a tiny Workspace: the confidence
    dataset, the reprobe records, the path dataset and the strict-het
    observations, plus the simulator's end state."""
    artifacts = {}
    real = Workspace._probe_artifact

    def capturing(self, name, *args):
        artifacts[name] = real(self, name, *args)
        return artifacts[name]

    with pytest.MonkeyPatch.context() as patch:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        patch.setattr(Workspace, "_probe_artifact", capturing)
        with Workspace(
            PROFILES["tiny"], workers=1, event_intensity=intensity
        ) as workspace:
            workspace.confidence_dataset
            workspace.campaign
            reprobe = workspace.aggregation.reprobe_records
            workspace.path_dataset
            workspace.strict_het_analyses
            internet = workspace.internet
            return {
                "confidence_dataset": artifacts["confidence-dataset"],
                "reprobe_records": reprobe,
                "path_dataset": artifacts["path-dataset"],
                "strict_het": artifacts["strict-het-observations"],
                "clock": internet.clock_seconds,
                "nonce": internet._nonce,
                "probe_count": internet.probe_count,
                "events": dict(internet.events.counters),
            }


def test_workspace_phases_match_prober():
    shipped = _workspace_phases(INTENSITY, prober_path=False)
    reference = _workspace_phases(INTENSITY, prober_path=True)
    assert shipped["reprobe_records"]
    assert shipped["path_dataset"]
    assert shipped["strict_het"]
    for name in reference:
        assert shipped[name] == reference[name], name
