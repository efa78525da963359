"""Parity tests for the compiled forwarding plane and the engine's probe
mirror.

Every optimisation in the probe hot path claims *bit-identity* with the
probe-at-a-time reference kept in ``tests/oracle.py``. This file holds
that claim to account layer by layer: trie flattening, route templates
against the trie-walking resolver, the hashed draws, and echo trains
sent through one probe mirror. The end-to-end checks live in
``tests/core/test_engine_parity.py`` and
``tests/core/test_phase_parity.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastengine import (
    _BY_FLOW,
    _FIXED,
    FastCampaignEngine,
    fast_engine_for,
)
from repro.core.pipeline import ping
from repro.net.addr import MAX_ADDRESS
from repro.net.prefix import Prefix
from repro.net.trie import leaf_intervals_from_items
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.netsim import hosts as hostmod
from repro.netsim import rtt as rtt_model
from repro.netsim.rtt import path_rtt_ms
from repro.probing import Prober
from repro.util.hashing import (
    MASK64,
    mix,
    mix_to_unit,
    splitmix64,
    splitmix64_np,
)
from tests import oracle
from tests.oracle import PrefixTrie

SEED = 13


def _fresh(seed=SEED):
    return SimulatedInternet.from_config(tiny_scenario(seed=seed))


def _route(prog, flow, nonce):
    """The router addresses a program's slots pick for one probe."""
    addresses = []
    for slot in prog.slots:
        if slot[0] == _FIXED:
            member = slot[1]
        else:
            key = flow if slot[0] == _BY_FLOW else nonce
            member = slot[3][splitmix64(slot[1] ^ key) % slot[2]]
        addresses.append(member[2])
    return addresses


def _allocated(net, addrs):
    return [addr for addr in addrs if net._allocation_of(addr) is not None]


# -- layer 1: trie flattening ------------------------------------------------


def _interval_lookup(points, addr):
    lo, hi = 0, len(points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if points[mid][0] <= addr:
            lo = mid
        else:
            hi = mid
    return points[lo][1]


class TestLeafIntervals:
    def test_empty_trie(self):
        assert leaf_intervals_from_items(PrefixTrie().items()) == [(0, None)]

    def test_single_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        points = leaf_intervals_from_items(trie.items())
        assert points == [
            (0, None),
            (10 << 24, "a"),
            (11 << 24, None),
        ]

    def test_nested_prefix_punches_hole(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "outer")
        trie.insert(Prefix.parse("10.1.0.0/16"), "inner")
        points = leaf_intervals_from_items(trie.items())
        base = 10 << 24
        assert points == [
            (0, None),
            (base, "outer"),
            (base + (1 << 16), "inner"),
            (base + (2 << 16), "outer"),
            (11 << 24, None),
        ]

    def test_fuzz_against_trie_lookup(self):
        rng = random.Random(99)
        for _ in range(40):
            trie = PrefixTrie()
            for _ in range(rng.randrange(0, 30)):
                length = rng.randrange(4, 30)
                network = rng.getrandbits(32) & ~((1 << (32 - length)) - 1)
                trie.insert(Prefix(network, length), rng.randrange(1000))
            points = leaf_intervals_from_items(trie.items())
            # Breakpoints are strictly increasing with no no-op runs.
            starts = [p[0] for p in points]
            assert starts == sorted(set(starts))
            probes = [rng.getrandbits(32) for _ in range(64)]
            # Also probe right at the breakpoints and just before them.
            for start, _ in points:
                probes.extend((start, max(0, start - 1)))
            for addr in probes:
                addr &= 0xFFFFFFFF
                hit = trie.lookup(addr)
                expected = None if hit is None else hit[1]
                assert _interval_lookup(points, addr) == expected

    def test_allocation_map_delegates(self):
        net = _fresh()
        points = net.allocations.leaf_intervals()
        rng = random.Random(5)
        for _ in range(500):
            addr = rng.getrandbits(32)
            hit = net.allocations.lookup(addr)
            assert _interval_lookup(points, addr) is hit


# -- layer 2: route templates against the reference walk ---------------------


class TestCompiledResolve:
    def test_matches_reference_walk(self):
        net = _fresh()
        engine = FastCampaignEngine(net)
        src = net.vantage_address
        dsts = _allocated(net, [
            s24.first + offset
            for s24 in net.universe_slash24s[:24]
            for offset in (0, 1, 77, 255)
        ])
        assert dsts
        for dst in dsts:
            prog = engine._program_for(dst, src)
            # Probes specialise a balancer slot when they first read
            # it; every slot is read here.
            prog.specialise_all()
            for flow in range(3):
                for nonce in (1, 2):
                    slow = oracle.resolve_path(
                        net.forwarder, src, dst, flow, nonce
                    )
                    assert _route(prog, flow, nonce) == [
                        router.address for router in slow
                    ], (hex(dst), flow, nonce)

    def test_shared_paths_are_identical_objects(self):
        """Destinations in one FIB range share one route template: the
        second address of a /24 is served by the template the first one
        built, and the range table holds fewer templates than
        destinations looked up."""
        net = _fresh()
        engine = FastCampaignEngine(net)
        src = net.vantage_address
        shared = 0
        looked_up = 0
        for s24 in net.universe_slash24s:
            pair = _allocated(net, [s24.first, s24.first + 1])
            if len(pair) < 2:
                continue
            engine._program_for(pair[0], src)
            builds = net.template_builds
            engine._program_for(pair[1], src)
            looked_up += 2
            shared += net.template_builds == builds
        assert shared > 0
        assert len(engine._ranges) < looked_up

    def test_hit_counters_and_stats_keys(self):
        """Template lookups and builds count on the simulator, so they
        outlive an engine that routing changes replace."""
        net = _fresh()
        src = net.vantage_address
        dst = _allocated(net, [s24.first for s24 in net.universe_slash24s])[0]
        fast_engine_for(net)._program_for(dst, src)
        fast_engine_for(net)._program_for(dst, src)
        assert (net.template_lookups, net.template_builds) == (2, 1)
        net.forwarder._reset_compiled_state()
        fast_engine_for(net)._program_for(dst, src)
        assert (net.template_lookups, net.template_builds) == (3, 2)
        stats = net.stats()
        for key in (
            "forwarder_cache_hit_rate", "probe_seconds", "probe_us_avg",
        ):
            assert key in stats
        assert stats["forwarder_cache_hit_rate"] == 1 / 3

    def test_precompile_idempotent(self):
        """Compiling a FIB again returns the form already compiled and
        keeps the compiled plane that engines anchor their templates
        to."""
        net = _fresh()
        forwarder = net.forwarder
        compiled = forwarder._compiled
        first = {
            rid: forwarder._compiled_fib(rid, fib)
            for rid, fib in forwarder.fibs.items()
        }
        for rid, fib in forwarder.fibs.items():
            assert forwarder._compiled_fib(rid, fib) is first[rid]
        assert forwarder._compiled is compiled

    def test_clear_cache_resets(self):
        """The reference resolver hands back its cached path until the
        forwarder replaces its compiled state, which drops the cache."""
        net = _fresh()
        src = net.vantage_address
        dst = net.universe_slash24s[0].first
        first = oracle.resolve_path(net.forwarder, src, dst, 0, 1)
        assert oracle.resolve_path(net.forwarder, src, dst, 0, 2) is first
        net.forwarder._reset_compiled_state()
        again = oracle.resolve_path(net.forwarder, src, dst, 0, 1)
        assert again == first
        assert again is not first


# -- layer 3: hashed draws ---------------------------------------------------


class TestNumpyDrawParity:
    """The numpy and inlined draws must be *bitwise* equal to the scalar
    ones — close-enough floats would silently fork the simulated
    universe."""

    ADDRS = np.arange(0x0A000000, 0x0A000100, dtype=np.uint64)

    def test_splitmix64(self):
        values = np.arange(0, 4096, dtype=np.uint64)
        batch = splitmix64_np(values)
        for value, hashed in zip(values.tolist(), batch.tolist()):
            assert hashed == splitmix64(value)

    def test_hosts_up(self):
        for epoch in (0, 7):
            mask = hostmod.hosts_up_in_epoch_np(
                SEED, self.ADDRS, epoch, 0.4, 0.6, 0.05
            )
            for addr, up in zip(self.ADDRS.tolist(), mask.tolist()):
                assert up == hostmod.host_up_in_epoch(
                    SEED, addr, epoch, 0.4, 0.6, 0.05
                )

    def test_stochastic_loss(self):
        """The engine's inlined loss draw is the reference's."""
        engine = FastCampaignEngine(_fresh())
        for nonce in range(1, 2001):
            draw = splitmix64(engine._loss_base ^ nonce) / float(1 << 64)
            assert (draw < 0.03) == oracle.stochastic_loss(
                engine.internet._built.loss_seed, nonce, 0.03
            )

    def test_rtt_draws_reconstruct_path_rtt(self):
        """Each echo RTT of a ping is path_rtt_ms over the reference
        path of that echo's nonce, and some of them carry a spike."""
        net = _fresh()
        dst = next(
            addr
            for s24 in net.universe_slash24s
            for addr in net.active_addresses_in_slash24(s24)
            if not net.allocations.pod_of(addr).cellular
        )
        nonce = net._nonce
        rtts = ping(Prober(net), dst, count=1000).rtts_ms
        seed = net._built.rtt_seed
        spiked = 0
        for index, rtt in enumerate(rtts):
            if rtt is None:
                continue
            nonce_i = nonce + index + 1
            path = oracle.resolve_path(
                net.forwarder, net.vantage_address, dst, 0, nonce_i
            )
            assert rtt == path_rtt_ms(path, seed, nonce_i)
            spiked += mix_to_unit(seed ^ rtt_model._SPIKE, nonce_i) < (
                rtt_model.SPIKE_PROBABILITY
            )
        assert spiked  # ~1,000 draws at 1% spike probability


def _weighted(roll, weights):
    cumulative = 0.0
    for value, weight in weights:
        cumulative += weight
        if roll < cumulative:
            return value
    return weights[-1][0]


SEEDS = st.integers(min_value=0, max_value=MASK64)
ADDRESSES = st.integers(min_value=0, max_value=MAX_ADDRESS)
PROBABILITIES = st.floats(min_value=0.0, max_value=1.0)
TTL_WEIGHTS = ((64, 0.6), (128, 0.3), (255, 0.1))
DELTA_WEIGHTS = ((0, 0.7), (1, 0.2), (-1, 0.1))


class TestHostHashes:
    """Each scalar host attribute hashes one shared state per seed,
    domain and address. It must equal the plain ``mix`` chain written
    out here (and availability its numpy twin). The parity suites cannot
    catch a host-hash defect, because the engine and the oracle both
    call these helpers."""

    @settings(max_examples=300)
    @given(
        seed=SEEDS,
        addr=ADDRESSES,
        epoch=st.integers(min_value=-3, max_value=10),
        density=PROBABILITIES,
        stability=PROBABILITIES,
        sleep=st.sampled_from((0.0, 0.05, 0.28, 0.9)),
    )
    def test_availability(self, seed, addr, epoch, density, stability, sleep):
        exists = mix_to_unit(seed ^ hostmod._EXISTS, addr) < density
        stable = mix_to_unit(seed ^ hostmod._STABLE, addr) < stability
        flap_up = (
            mix_to_unit(seed ^ hostmod._FLAP, addr, epoch)
            < hostmod.FLAPPY_UP_PROBABILITY
        )
        asleep = (
            sleep > 0.0
            and mix_to_unit(seed ^ hostmod._SLEEP, addr & 0xFFFFFF00, epoch)
            < sleep
        )
        survivor = (
            mix_to_unit(seed ^ hostmod._SLEEP_SURVIVOR, addr)
            < hostmod.SLEEP_SURVIVOR_FRACTION
        )
        up = exists and (stable or flap_up) and (not asleep or survivor)
        assert hostmod.host_exists(seed, addr, density) == exists
        assert hostmod.host_is_stable(seed, addr, stability) == stable
        assert hostmod.block_asleep(seed, addr, epoch, sleep) == asleep
        assert hostmod.host_up_in_epoch(
            seed, addr, epoch, density, stability, sleep
        ) == up
        batch = hostmod.hosts_up_in_epoch_np(
            seed, np.array([addr], dtype=np.uint64), epoch,
            density, stability, sleep,
        )
        assert batch.tolist() == [up]

    @settings(max_examples=300)
    @given(
        seed=SEEDS,
        addr=ADDRESSES,
        custom=st.sampled_from((0.0, 0.1, 1.0)),
    )
    def test_default_ttl(self, seed, addr, custom):
        if mix_to_unit(seed ^ hostmod._TTL, addr, 1) < custom:
            choices = (30, 60, 100, 200)
            ttl = choices[mix(seed ^ hostmod._TTL, addr, 2) % len(choices)]
        else:
            roll = mix_to_unit(seed ^ hostmod._TTL, addr, 0)
            ttl = _weighted(roll, TTL_WEIGHTS)
        assert hostmod.default_ttl(seed, addr, TTL_WEIGHTS, custom) == ttl

    @settings(max_examples=300)
    @given(seed=SEEDS, addr=ADDRESSES)
    def test_reverse_path_delta(self, seed, addr):
        roll = mix_to_unit(seed ^ hostmod._DELTA, addr)
        delta = _weighted(roll, DELTA_WEIGHTS)
        assert hostmod.reverse_path_delta(seed, addr, DELTA_WEIGHTS) == delta


# -- layer 4: probes sent through one probe mirror ----------------------------


def _same_rtts(got, expected):
    assert [None if rtt is None else rtt.hex() for rtt in got] == [
        None if rtt is None else rtt.hex() for rtt in expected
    ]


def _end_state(net):
    return (
        net.clock_seconds, net._nonce, net.probe_count,
        dict(net._radio._last_probe),
    )


class TestSendProbeBatch:
    """A batch of probes sent through one engine probe mirror, which
    commits the state they advance once, against the reference sending
    them one at a time: replies (RTTs by their bits) and end state."""

    def _assert_pings_match(self, dsts, count):
        shipped, reference = _fresh(), _fresh()
        got = [
            ping(Prober(shipped), dst, count).rtts_ms for dst in dsts
        ]
        expected = [
            oracle.ping(Prober(reference), dst, count).rtts_ms
            for dst in dsts
        ]
        for rtts, reference_rtts in zip(got, expected):
            _same_rtts(rtts, reference_rtts)
        assert _end_state(shipped) == _end_state(reference)
        return got

    def test_host_sweep(self):
        net = _fresh()
        dsts = [addr for s24 in net.universe_slash24s[:4] for addr in s24]
        got = self._assert_pings_match(dsts, 1)
        assert sum(rtts[0] is not None for rtts in got) > 100

    def test_router_ttls(self):
        shipped, reference = _fresh(), _fresh()
        dsts = _allocated(
            shipped, [s24.first + 9 for s24 in shipped.universe_slash24s[:16]]
        )
        engine = FastCampaignEngine(shipped)
        src = shipped.vantage_address
        for ttl in (1, 3, 6):
            send, _, finish = engine._probe_mirror()
            got = [
                send(engine._program_for(dst, src), ttl, flow)
                for flow, dst in enumerate(dsts)
            ]
            finish()
            expected = []
            for flow, dst in enumerate(dsts):
                reply = oracle.send_probe(reference, dst, ttl, flow)
                expected.append(
                    None if reply is None
                    else -1 if reply.is_echo else reply.source
                )
            assert got == expected
            assert any(isinstance(address, int) and address > 0
                       for address in got)
        assert _end_state(shipped) == _end_state(reference)

    def test_ping_train_with_clock_gaps(self):
        net = _fresh()
        dst = net.universe_slash24s[0].first + 3
        self._assert_pings_match([dst], 20)

    def test_unallocated_destinations_mixed_in(self):
        net = _fresh()
        unallocated = next(
            addr for addr in range(1, 1 << 24)
            if net.allocations.lookup(addr) is None
        )
        self._assert_pings_match(
            [net.universe_slash24s[0].first, unallocated] * 8, 1
        )

    def test_negative_gap_raises(self):
        net = _fresh()
        with pytest.raises(ValueError):
            net.advance_clock(-1.0)

    def test_reference_engine_never_batches(self, monkeypatch):
        """With the reference installed, ping never reaches the engine."""
        oracle.install(monkeypatch, oracle.PROBER_CAMPAIGN)
        net = _fresh()
        ping(Prober(net), net.universe_slash24s[0].first, 8)
        assert net.probe_count == 8
        assert net.template_lookups == 0

    def test_stats_report_engine_counters(self):
        net = _fresh()
        ping(Prober(net), net.universe_slash24s[0].first, 8)
        stats = net.stats()
        assert stats["probe_count"] == 8
        assert net.template_lookups == 1
        assert stats["probe_seconds"] > 0.0
        assert stats["probe_us_avg"] > 0.0
        assert 0.0 <= stats["forwarder_cache_hit_rate"] <= 1.0
