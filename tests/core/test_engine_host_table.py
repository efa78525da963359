"""The compiled engine's host table and its lazily specialised slots.

A /24 measured from a snapshot takes its destinations' host constants
from the snapshot's :class:`~repro.core.fastengine.HostTable`; a
destination traced or pinged on its own, and an availability key that
renumbering remaps, are drawn by the scalar host functions. Either way
the engine must match the reference in ``tests/oracle.py`` bit for bit.
The table is built once, the first time a measurement needs it: never
by a warm workspace, which probes nothing, and never by a forked
campaign worker, which inherits the parent's.
"""

import dataclasses
import os
import random

import pytest

from repro.core import ExhaustivePolicy, TerminationPolicy, run_campaign
from repro.core.fastengine import (
    ENGINE_COUNTERS,
    FastCampaignEngine,
    HostTable,
    _BY_NONCE,
    host_table_for,
)
from repro.core.pipeline import enumerate_paths, measure, ping
from repro.experiments.common import PROFILES, Workspace
from repro.netsim import EventConfig, SimulatedInternet, tiny_scenario
from repro.netsim.dhcp import EPOCHS_PER_LEASE
from repro.obs.metrics import metrics_scope
from repro.probing import Prober, scan
from tests import oracle

RNG_SEED = 5
CONTEXT_NONCE = 0x5EED


def _internet(events=None):
    config = tiny_scenario(seed=13)
    if events is not None:
        config = dataclasses.replace(config, events=events)
    internet = SimulatedInternet.from_config(config)
    return internet, scan(internet)


def _end_state(internet, prober, outputs):
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
        "radio": dict(internet._radio._last_probe),
        "events": (
            dict(internet.events.counters) if internet.events else None
        ),
    }


def _outside_destinations(internet, snapshot, count):
    """Allocated addresses of eligible /24s that the snapshot does not
    hold (they were down when it was taken)."""
    found = []
    for slash24 in snapshot.eligible_slash24s():
        active = set(snapshot.active_in(slash24))
        for addr in range(slash24.first, slash24.last + 1):
            if addr not in active and internet._allocation_of(addr):
                found.append(addr)
                break
        if len(found) == count:
            return found
    raise AssertionError("too few addresses outside the snapshot")


def _run_outside(prober_path):
    """One /24 from the snapshot, then traces and pings of destinations
    outside it, in one context; returns (end state, registry)."""
    with pytest.MonkeyPatch.context() as patch, metrics_scope() as registry:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        internet, snapshot = _internet()
        outside = _outside_destinations(internet, snapshot, 3)
        internet.begin_measurement_context(
            clock_seconds=100.0, nonce=CONTEXT_NONCE
        )
        prober = Prober(internet)
        outputs = [measure(
            prober, snapshot.eligible_slash24s()[0], snapshot,
            ExhaustivePolicy(), random.Random(RNG_SEED),
        )]
        for dst in outside:
            traced = enumerate_paths(prober, dst, flow_seed=dst & 0xFFFF)
            outputs.append((traced.routes, traced.reached))
            outputs.append(ping(prober, dst, 4).rtts_ms)
        return _end_state(internet, prober, outputs), registry


def test_destinations_outside_the_snapshot_match_the_oracle():
    shipped, registry = _run_outside(prober_path=False)
    assert shipped == _run_outside(prober_path=True)[0]
    # The /24's destinations came from the table, the six traced and
    # pinged ones from the scalar functions.
    assert registry.counter_value("engine.destinations.table") > 0
    assert registry.counter_value("engine.destinations.scalar") == 6


#: A context clock in lease 3, where a renumbering pod's availability
#: keys are not its addresses.
RENUMBERED_CLOCK = (3 * EPOCHS_PER_LEASE + 1) * 1800.0


def _run_renumbered(prober_path):
    """Measure /24s of renumbering pods in one context in lease 3;
    returns (end state, registry, simulator)."""
    with pytest.MonkeyPatch.context() as patch, metrics_scope() as registry:
        if prober_path:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
        internet, snapshot = _internet(EventConfig(renumber_fraction=1.0))
        assert internet.config.epoch_seconds == 1800.0
        renumbering = [
            slash24 for slash24 in snapshot.eligible_slash24s()
            if internet.events.renumbering(
                internet._allocation_of(slash24.network).pod
            )
        ][:6]
        assert renumbering
        internet.begin_measurement_context(
            clock_seconds=RENUMBERED_CLOCK, nonce=CONTEXT_NONCE
        )
        prober = Prober(internet)
        rng = random.Random(RNG_SEED)
        outputs = [
            measure(prober, slash24, snapshot, ExhaustivePolicy(), rng)
            for slash24 in renumbering
        ]
        return _end_state(internet, prober, outputs), registry, internet


def test_renumbered_availability_keys_match_the_oracle():
    shipped, registry, internet = _run_renumbered(prober_path=False)
    assert shipped == _run_renumbered(prober_path=True)[0]
    # Keys were remapped, so those destinations went to the scalar
    # availability draw although the table served their constants.
    assert internet.events.counters["renumber"] > 0
    assert registry.counter_value("engine.destinations.table") > 0
    assert registry.counter_value("engine.destinations.scalar") == 0


def _refuse_build(*args, **kwargs):
    raise AssertionError("the host table was built")


def test_warm_workspace_never_builds_the_table(tmp_path, monkeypatch):
    root = str(tmp_path / "store")
    with Workspace(PROFILES["tiny"], store_path=root) as cold:
        cold.ensure_built()
    assert cold.internet._host_table is not None
    monkeypatch.setattr(HostTable, "build", _refuse_build)
    with Workspace(PROFILES["tiny"], store_path=root) as warm:
        warm.ensure_built()
        assert warm.internet.probe_count == 0
        assert warm.internet._host_table is None


def test_table_is_built_once_per_snapshot(monkeypatch):
    internet, snapshot = _internet()
    builds = []
    real = HostTable.build.__func__

    def counted(cls, *args):
        builds.append(args)
        return real(cls, *args)

    monkeypatch.setattr(HostTable, "build", classmethod(counted))
    table = host_table_for(internet, snapshot)
    prober = Prober(internet)
    rng = random.Random(RNG_SEED)
    for slash24 in snapshot.eligible_slash24s()[:4]:
        measure(prober, slash24, snapshot, ExhaustivePolicy(), rng)
    assert host_table_for(internet, snapshot) is table
    assert len(builds) == 1
    # Another snapshot gets its own table.
    other = scan(internet, epoch=internet.config.snapshot_epoch + 1)
    assert host_table_for(internet, other) is not table
    assert len(builds) == 2


def test_forked_workers_inherit_the_table(tmp_path, monkeypatch):
    """A ``workers=2`` campaign builds the table once, in the parent,
    and commits the same engine counters as the serial run."""
    log = tmp_path / "builds"
    real = HostTable.build.__func__

    def logged(cls, *args):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(cls, *args)

    monkeypatch.setattr(HostTable, "build", classmethod(logged))
    counters = []
    results = []
    for workers in (1, 2):
        internet, snapshot = _internet()
        log.write_text("")
        with metrics_scope() as registry:
            results.append(run_campaign(
                internet, TerminationPolicy(),
                slash24s=snapshot.eligible_slash24s()[:24],
                snapshot=snapshot, seed=RNG_SEED,
                max_destinations_per_slash24=48, workers=workers,
            ))
        assert registry.counter_value("campaign.parallel") == (workers - 1)
        assert log.read_text().split() == [str(os.getpid())]
        counters.append({
            name: registry.counter_value(name) for name in ENGINE_COUNTERS
        })
    assert results[0].measurements == results[1].measurements
    assert counters[0] == counters[1]
    assert counters[0]["engine.slots_specialised"] > 0
    assert counters[0]["engine.destinations.table"] > 0


def _pending(prog):
    return [
        position for position, slot in enumerate(prog.slots)
        if slot[0] > _BY_NONCE
    ]


def _pinged_program(engine, snapshot):
    """A program with two pending slots or more whose destination
    answers a ping."""
    src = engine.internet.vantage_address
    for slash24 in snapshot.eligible_slash24s():
        for dst in snapshot.active_in(slash24)[:2]:
            prog = engine._program_for(dst, src)
            if (
                len(_pending(prog)) >= 2
                and engine.ping(dst, src, 1)[0][0] is not None
            ):
                return prog
    raise AssertionError("no pingable destination behind a balancer")


def test_a_slot_is_specialised_when_a_probe_first_reads_it():
    internet, snapshot = _internet()
    engine = FastCampaignEngine(internet)
    prog = _pinged_program(engine, snapshot)
    position = _pending(prog)[0]
    with metrics_scope() as registry:
        send, _, finish = engine._probe_mirror()
        for flow in range(3):
            send(prog, position + 1, flow)
        send(prog, prog.length + 1, 0)  # past the path: reads no slot
        finish()
    assert position not in _pending(prog)
    assert registry.counter_value("engine.slots_specialised") == 1
    # A ping's RTT reads the whole path, so it specialises every slot
    # left.
    left = len(_pending(prog))
    with metrics_scope() as registry:
        _, ping_once, finish = engine._probe_mirror()
        assert ping_once(prog, 0.0) is not None
        finish()
    assert _pending(prog) == []
    assert registry.counter_value("engine.slots_specialised") == left
