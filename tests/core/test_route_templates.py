"""Route templates keyed by FIB range (:mod:`repro.core.fastengine`).

The engine builds a destination's route template once per address
range over which every FIB interval the walk consults is the same, and
specialises it once per source; a destination then pays only for the
balancer hashes that read it. The parity suites compare whole
measurements with the object classifier; these tests pin the range
table against fresh builds, and the specialised slots against the
balancers' own ``select``.
"""

import random

import pytest

from repro.analysis.multivantage import vantage_addresses
from repro.core import ReprobePolicy
from repro.core.fastengine import (
    _BY_FLOW,
    _BY_NONCE,
    _FIXED,
    _T_HYBRID,
    _T_PER_DEST,
    _T_PER_FLOW,
    FastCampaignEngine,
    RouteTemplateError,
)
from repro.core.pipeline import measure
from repro.net.prefix import Prefix
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.netsim.config import paper_scenario
from repro.netsim.loadbalance import (
    PerFlowBalancer,
    PerPacketBalancer,
    SingleNextHop,
)
from repro.netsim.routing import RouteEntry
from repro.netsim.topology import RouterRole
from repro.probing import Prober, scan
from repro.util.hashing import splitmix64
from tests import oracle


def _tiny():
    internet = SimulatedInternet.from_config(tiny_scenario(seed=13))
    return internet, scan(internet)


def _counted_builds(monkeypatch):
    """Record every ``_build_template`` call's destination."""
    calls = []
    real = FastCampaignEngine._build_template

    def counted(self, dst):
        calls.append(dst)
        return real(self, dst)

    monkeypatch.setattr(FastCampaignEngine, "_build_template", counted)
    return calls


def _program(engine, dst, src):
    prog = engine._program_for(dst, src)
    return prog.slots, prog.length, prog.observed_ttl, prog.allocated


def _fresh(internet, dst, src):
    """The program a new engine, with an empty range table, makes."""
    return _program(FastCampaignEngine(internet), dst, src)


def _split_slash24s(internet, snapshot):
    """Eligible /24s with a consulted FIB interval boundary inside."""
    engine = FastCampaignEngine(internet)
    split = []
    for slash24 in snapshot.eligible_slash24s():
        _, start, end = engine._build_template(slash24.network)
        if start > slash24.network or end < slash24.network + 256:
            split.append(slash24)
    return split


def test_two_slash24s_in_one_range_build_once(monkeypatch):
    internet, snapshot = _tiny()
    engine = FastCampaignEngine(internet)
    by_range = {}
    for slash24 in snapshot.eligible_slash24s():
        dst = snapshot.active_in(slash24)[0]
        by_range.setdefault(engine._build_template(dst)[1:], []).append(dst)
    first, second = next(
        dsts for dsts in by_range.values() if len(dsts) >= 2
    )[:2]
    assert first >> 8 != second >> 8

    calls = _counted_builds(monkeypatch)
    engine = FastCampaignEngine(internet)
    src = internet.vantage_address
    programs = [_program(engine, dst, src) for dst in (first, second)]
    assert calls == [first]
    assert programs[1] == _fresh(internet, second, src)


@pytest.mark.parametrize("descending", [False, True])
def test_split_slash24_matches_fresh_builds(descending):
    """Every address of a /24 with FIB interval boundaries inside it
    gets the program a fresh build gives, and each of its ranges is
    built once."""
    internet, snapshot = _tiny()
    split = _split_slash24s(internet, snapshot)
    assert split
    src = internet.vantage_address
    probe = FastCampaignEngine(internet)
    for slash24 in split:
        addresses = list(range(slash24.network, slash24.network + 256))
        if descending:
            addresses.reverse()
        expected = {dst: _fresh(internet, dst, src) for dst in addresses}
        ranges = {
            probe._build_template(dst)[1:]
            for dst in addresses
            if internet._allocation_of(dst) is not None
        }
        assert len(ranges) > 1
        with pytest.MonkeyPatch.context() as patch:
            calls = _counted_builds(patch)
            engine = FastCampaignEngine(internet)
            for dst in addresses:
                assert _program(engine, dst, src) == expected[dst]
        assert len(calls) == len(ranges)


def test_branch_member_boundary_narrows_the_range():
    """A boundary that only the members of a balancer hold splits the
    range: behind the boundary the members forward one hop further."""
    internet, snapshot = _tiny()
    forwarder = internet.forwarder
    src = internet.vantage_address
    engine = FastCampaignEngine(internet)
    for slash24 in snapshot.eligible_slash24s():
        slots, start, end = engine._build_template(slash24.network)
        if (
            slots[-1][0] in (_T_PER_FLOW, _T_PER_DEST, _T_HYBRID)
            and start <= slash24.network
            and end >= slash24.network + 256
        ):
            break
    else:
        pytest.fail("no whole-/24 range ending in a balancer")
    path = oracle.resolve_path(forwarder, src, slash24.network, 0)
    balancer = forwarder.fibs[path[-2].router_id]
    members = oracle.fib_lookup(balancer, slash24.network).selector.next_hops
    on_path = {router.router_id for router in path} | set(members)
    onward = next(
        router for router in internet.topology
        if router.role is RouterRole.LAST_HOP
        and router.router_id not in on_path
    )
    upper = Prefix(slash24.network + 128, 25)
    forwarder.fibs[onward.router_id].install(RouteEntry(upper, delivers=True))
    for member in members:
        forwarder.fibs[member].install(
            RouteEntry(upper, selector=SingleNextHop(onward.router_id))
        )
    forwarder._reset_compiled_state()

    low = [a for a in snapshot.active_in(slash24) if a < upper.network]
    high = [a for a in snapshot.active_in(slash24) if a >= upper.network]
    engine = FastCampaignEngine(internet)
    for dst in low + high:
        assert _program(engine, dst, src) == _fresh(internet, dst, src)
    assert engine._program_for(high[0], src).length == len(slots) + 1


def test_split_slash24_sequence_matches_prober_campaign():
    """A shared-context sequence over split /24s measures exactly as
    the object classifier does."""

    def run(prober_path):
        with pytest.MonkeyPatch.context() as patch:
            if prober_path:
                oracle.install(patch, oracle.PROBER_CAMPAIGN)
            internet = SimulatedInternet.from_config(
                paper_scenario(scale=0.03, seed=2016)
            )
            snapshot = scan(internet)
            split = _split_slash24s(internet, snapshot)
            assert len(split) >= 3
            prober = Prober(internet)
            rng = random.Random(7)
            policy = ReprobePolicy()
            measurements = [
                measure(
                    prober, slash24, snapshot, policy, rng,
                )
                for slash24 in split
            ]
            return (
                measurements, prober.stats, internet.clock_seconds,
                internet._nonce, internet.probe_count, rng.getstate(),
            )

    assert run(prober_path=False) == run(prober_path=True)


def test_failed_build_caches_nothing():
    """A destination whose template cannot be built leaves the range
    table as it was and raises again when probed again."""
    internet, snapshot = _tiny()
    src = internet.vantage_address
    engine = FastCampaignEngine(internet)
    first = snapshot.active_in(snapshot.eligible_slash24s()[0])[0]
    engine._program_for(first, src)
    built = engine._build_template(first)[1:]
    dst = next(
        dst
        for dst in (
            snapshot.active_in(slash24)[0]
            for slash24 in snapshot.eligible_slash24s()
        )
        if engine._build_template(dst)[1:] != built
    )
    table = (list(engine._range_starts), list(engine._ranges))

    last_hop = oracle.resolve_path(internet.forwarder, src, dst, 0)[
        -1
    ].router_id
    fib = internet.forwarder.fibs.pop(last_hop)
    for _ in range(2):
        with pytest.raises(RouteTemplateError, match="router has no FIB"):
            engine._program_for(dst, src)
        assert (engine._range_starts, engine._ranges) == table
    internet.forwarder.fibs[last_hop] = fib
    assert _program(engine, dst, src) == _fresh(internet, dst, src)
    assert len(engine._ranges) == len(table[1]) + 1


def _pick(slot, flow, nonce):
    """The address a program slot picks, as the probe mirror reads it."""
    kind = slot[0]
    if kind == _FIXED:
        return slot[1][2]
    if kind == _BY_FLOW:
        return slot[3][splitmix64(slot[1] ^ flow) % slot[2]][2]
    return slot[3][splitmix64(slot[1] ^ nonce) % slot[2]][2]


def test_specialised_slots_pick_as_the_balancers_select():
    """From two vantages, every slot of every program picks, for flows
    0..63, the router the balancers' ``select`` puts at its position."""
    internet, snapshot = _tiny()
    forwarder = internet.forwarder
    destinations = [
        snapshot.active_in(slash24)[0]
        for slash24 in snapshot.eligible_slash24s()[::4]
    ]
    _make_one_balancer_per_packet(internet, destinations)

    engine = FastCampaignEngine(internet)
    for src in vantage_addresses(internet, 2):
        for dst in destinations:
            prog = engine._program_for(dst, src)
            # Probes specialise a balancer slot when they first read
            # it; every slot is read here.
            prog.specialise_all()
            for flow in range(64):
                nonce = 0x5EED + 7919 * flow
                route = oracle.resolve_path(forwarder, src, dst, flow, nonce)
                assert [
                    _pick(slot, flow, nonce) for slot in prog.slots
                ] == [router.address for router in route]
    kinds = {
        (slot[0], slot[2]) if slot[0] == _T_PER_DEST else slot[0]
        for _, template, _ in engine._ranges
        for slot in template
    }
    assert {
        _BY_NONCE, _T_PER_FLOW, _T_HYBRID,
        (_T_PER_DEST, True), (_T_PER_DEST, False),
    } <= kinds


def _make_one_balancer_per_packet(internet, destinations):
    """Swap the first per-flow balancer on the destinations' paths for a
    per-packet one over the same next hops (the builder makes none)."""
    forwarder = internet.forwarder
    for dst in destinations:
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
