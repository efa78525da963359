"""Parity tests for the compiled forwarding plane + batched probe engine.

Every optimisation in the probe hot path claims *bit-identity* with the
serial reference implementation kept in ``tests/oracle.py``. This file
holds that claim to account layer by layer: trie flattening, compiled
path resolution, the vectorised stochastic draws, and the batched probe
API. The end-to-end campaign-level parity check lives in
``tests/core/test_engine_parity.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import MAX_ADDRESS
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.netsim import hosts as hostmod
from repro.netsim.icmp import stochastic_loss, stochastic_loss_np
from repro.netsim.internet import MIN_VECTOR_BATCH
from repro.netsim.rtt import (
    HOST_LATENCY_MS,
    path_rtt_ms,
    rtt_draws_for_nonces,
)
from repro.util.hashing import (
    MASK64,
    mix,
    mix_to_unit,
    splitmix64,
    splitmix64_np,
)
from tests import oracle

SEED = 13


def _fresh(seed=SEED):
    return SimulatedInternet.from_config(tiny_scenario(seed=seed))


def _reference(monkeypatch, seed=SEED):
    """A fresh internet with the oracle's serial reference probing
    installed (for every simulator, until the test ends)."""
    oracle.install(monkeypatch, oracle.PROBING)
    return _fresh(seed)


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
        assert PrefixTrie().leaf_intervals() == [(0, None)]

    def test_single_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        points = trie.leaf_intervals()
        assert points == [
            (0, None),
            (10 << 24, "a"),
            (11 << 24, None),
        ]

    def test_nested_prefix_punches_hole(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "outer")
        trie.insert(Prefix.parse("10.1.0.0/16"), "inner")
        points = trie.leaf_intervals()
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
            points = trie.leaf_intervals()
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


# -- layer 2: compiled path resolution ---------------------------------------


class TestCompiledResolve:
    def test_matches_reference_walk(self):
        compiled = _fresh()
        reference = _fresh()
        src = compiled.vantage_address
        dsts = [s24.first + offset
                for s24 in compiled.universe_slash24s[:24]
                for offset in (0, 1, 77, 255)]
        for dst in dsts:
            for flow in range(3):
                for nonce in (1, 2):
                    fast = compiled.forwarder.resolve_path(
                        src, dst, flow, nonce
                    )
                    slow = oracle.resolve_path(
                        reference.forwarder, src, dst, flow, nonce
                    )
                    assert fast == slow, (hex(dst), flow, nonce)

    def test_shared_paths_are_identical_objects(self):
        net = _fresh()
        forwarder = net.forwarder
        src = net.vantage_address
        # Addresses of one /24 share the leaf route, so (outside
        # per-packet-balanced regions, whose paths legitimately vary per
        # probe) resolution must hand back the *same* tuple object — the
        # memory win of signature-keyed caching. At least some of the
        # scenario's /24s must exhibit the sharing.
        shared = 0
        for s24 in net.universe_slash24s:
            first = forwarder.resolve_path(src, s24.first, 0, 1)
            second = forwarder.resolve_path(src, s24.first + 1, 0, 2)
            if first is second:
                shared += 1
        assert shared > 0
        assert forwarder.cache_stats()["shared_paths"] > 0

    def test_hit_counters_and_stats_keys(self):
        net = _fresh()
        forwarder = net.forwarder
        src = net.vantage_address
        dst = net.universe_slash24s[0].first
        forwarder.resolve_path(src, dst, 0, 1)
        misses = forwarder.cache_misses
        forwarder.resolve_path(src, dst, 0, 2)
        assert forwarder.cache_hits >= 1
        assert forwarder.cache_misses == misses
        stats = forwarder.cache_stats()
        for key in (
            "hits", "misses", "hit_rate", "entries",
            "shared_paths", "entry_memo",
        ):
            assert key in stats
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_precompile_idempotent(self):
        net = _fresh()
        before = net.forwarder.cache_stats()["entry_memo"]
        net.forwarder.precompile()
        net.forwarder.precompile()
        assert net.forwarder.cache_stats()["entry_memo"] == before

    def test_clear_cache_resets(self):
        net = _fresh()
        src = net.vantage_address
        net.forwarder.resolve_path(src, net.universe_slash24s[0].first, 0, 1)
        assert net.forwarder.cache_size > 0
        net.forwarder.clear_cache()
        assert net.forwarder.cache_size == 0

    def test_pickle_drops_compiled_state(self):
        import pickle

        net = _fresh()
        src = net.vantage_address
        net.forwarder.resolve_path(src, net.universe_slash24s[0].first, 0, 1)
        clone = pickle.loads(pickle.dumps(net.forwarder))
        assert clone.cache_size == 0
        # ...and resolves identically after the lazy rebuild.
        for s24 in net.universe_slash24s[:8]:
            assert clone.resolve_path(
                src, s24.first, 0, 1
            ) == net.forwarder.resolve_path(src, s24.first, 0, 1)


# -- layer 3: vectorised stochastic draws ------------------------------------


class TestNumpyDrawParity:
    """The numpy draws must be *bitwise* equal to the scalar ones —
    close-enough floats would silently fork the simulated universe."""

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

    def test_default_ttls(self):
        weights = ((64, 0.6), (128, 0.3), (255, 0.1))
        ttls = hostmod.default_ttls_np(SEED, self.ADDRS, weights, 0.1)
        for addr, ttl in zip(self.ADDRS.tolist(), ttls.tolist()):
            assert ttl == hostmod.default_ttl(SEED, addr, weights, 0.1)

    def test_reverse_path_deltas(self):
        weights = ((0, 0.7), (1, 0.2), (-1, 0.1))
        deltas = hostmod.reverse_path_deltas_np(SEED, self.ADDRS, weights)
        for addr, delta in zip(self.ADDRS.tolist(), deltas.tolist()):
            assert delta == hostmod.reverse_path_delta(SEED, addr, weights)

    def test_stochastic_loss(self):
        nonces = np.arange(1, 2001, dtype=np.uint64)
        mask = stochastic_loss_np(SEED, nonces, 0.03)
        for nonce, lost in zip(nonces.tolist(), mask.tolist()):
            assert lost == stochastic_loss(SEED, nonce, 0.03)

    def test_stochastic_loss_zero_probability(self):
        nonces = np.arange(1, 50, dtype=np.uint64)
        assert not stochastic_loss_np(SEED, nonces, 0.0).any()

    def test_rtt_draws_reconstruct_path_rtt(self):
        net = _fresh()
        seed = net._built.rtt_seed
        path = net.forwarder.resolve_path(
            net.vantage_address, net.universe_slash24s[0].first, 0, 1
        )
        propagation = 2.0 * sum(router.latency_ms for router in path)
        nonces = list(range(1, 1001))
        jitter, flags, spike = rtt_draws_for_nonces(seed, nonces)
        assert any(flags)  # 1000 draws at 1% spike probability
        for index, nonce in enumerate(nonces):
            rtt = propagation + HOST_LATENCY_MS + jitter[index]
            if flags[index]:
                rtt += spike[index]
            assert rtt == path_rtt_ms(path, seed, nonce)


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
    out here and its numpy twin. The parity suites cannot catch a
    host-hash defect, because the engine and the oracle both call these
    helpers."""

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
        batch = hostmod.default_ttls_np(
            seed, np.array([addr], dtype=np.uint64), TTL_WEIGHTS, custom
        )
        assert batch.tolist() == [ttl]

    @settings(max_examples=300)
    @given(seed=SEEDS, addr=ADDRESSES)
    def test_reverse_path_delta(self, seed, addr):
        roll = mix_to_unit(seed ^ hostmod._DELTA, addr)
        delta = _weighted(roll, DELTA_WEIGHTS)
        assert hostmod.reverse_path_delta(seed, addr, DELTA_WEIGHTS) == delta
        batch = hostmod.reverse_path_deltas_np(
            seed, np.array([addr], dtype=np.uint64), DELTA_WEIGHTS
        )
        assert batch.tolist() == [delta]


# -- layer 4: the batched probe API ------------------------------------------


def _replies_equal(batch, serial):
    assert len(batch) == len(serial)
    for got, expected in zip(batch, serial):
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.kind == expected.kind
            assert got.source == expected.source
            assert got.ttl == expected.ttl
            assert got.rtt_ms == expected.rtt_ms  # bitwise


class TestSendProbeBatch:
    def _serial(self, net, dsts, ttl, flows, gap=0.0):
        replies = []
        for index, (dst, flow) in enumerate(zip(dsts, flows)):
            if index and gap:
                net.advance_clock(gap)
            replies.append(net.send_probe(dst, ttl, flow))
        return replies

    def _assert_batch_matches_serial(self, dsts, ttl, flows, gap=0.0):
        batch_net, serial_net = _fresh(), _fresh()
        batch = batch_net.send_probe_batch(
            dsts, ttl, flows, inter_probe_seconds=gap
        )
        serial = self._serial(serial_net, dsts, ttl, flows, gap)
        _replies_equal(batch, serial)
        assert batch_net.clock_seconds == serial_net.clock_seconds
        assert batch_net.probe_count == serial_net.probe_count
        assert batch_net._nonce == serial_net._nonce

    def test_host_sweep(self):
        net = _fresh()
        dsts = [addr for s24 in net.universe_slash24s[:4] for addr in s24]
        self._assert_batch_matches_serial(dsts, 64, [0] * len(dsts))

    def test_router_ttls(self):
        net = _fresh()
        dsts = [s24.first + 9 for s24 in net.universe_slash24s[:16]]
        for ttl in (1, 3, 6):
            self._assert_batch_matches_serial(dsts, ttl, list(range(len(dsts))))

    def test_ping_train_with_clock_gaps(self):
        net = _fresh()
        dst = net.universe_slash24s[0].first + 3
        self._assert_batch_matches_serial(
            [dst] * 20, 64, [7] * 20, gap=0.5
        )

    def test_unallocated_destinations_mixed_in(self):
        net = _fresh()
        unallocated = next(
            addr for addr in range(1, 1 << 24)
            if net.allocations.lookup(addr) is None
        )
        dsts = [net.universe_slash24s[0].first, unallocated] * 8
        self._assert_batch_matches_serial(dsts, 64, [0] * len(dsts))

    def test_nonpositive_ttl_still_advances_clock(self):
        self._assert_batch_matches_serial(
            [1, 2, 3, 4, 5, 6], 0, [0] * 6
        )

    def test_small_batch_takes_serial_path(self):
        dsts = [0x0A000001] * (MIN_VECTOR_BATCH - 1)
        self._assert_batch_matches_serial(dsts, 64, [0] * len(dsts))

    def test_flow_ids_length_mismatch_raises(self):
        net = _fresh()
        with pytest.raises(ValueError, match="flow_ids"):
            net.send_probe_batch([1, 2, 3], 64, [0, 1])

    def test_negative_gap_raises(self):
        net = _fresh()
        with pytest.raises(ValueError):
            net.send_probe_batch([1, 2, 3, 4], 64, 0, None, -1.0)

    def test_reference_engine_never_batches(self, monkeypatch):
        net = _reference(monkeypatch)
        dsts = [s24.first for s24 in net.universe_slash24s[:8]]
        net.send_probe_batch(dsts, 64)
        assert net.stats()["probe_batches"] == 0
        assert net.stats()["batched_probes"] == 0

    def test_stats_report_engine_counters(self):
        net = _fresh()
        dsts = [addr for s24 in net.universe_slash24s[:2] for addr in s24]
        net.send_probe_batch(dsts, 64)
        stats = net.stats()
        assert stats["probe_batches"] == 1
        assert stats["batched_probes"] == len(dsts)
        assert stats["probe_seconds"] > 0.0
        assert stats["probe_us_avg"] > 0.0
        assert stats["forwarder_cache_hits"] >= 0
        assert 0.0 <= stats["forwarder_cache_hit_rate"] <= 1.0
