"""Tests for the ZMap scan, ping and probe sessions."""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from repro.core.selection import meets_selection_criteria, slash26_groups
from repro.net import Prefix
from repro.netsim import SimulatedInternet
from repro.netsim import internet as internet_module
from repro.netsim.allocation import Allocation
from repro.netsim.config import EventConfig, paper_scenario
from repro.core.pipeline import ping
from repro.probing import ActivitySnapshot, Prober, scan
from tests import oracle

#: The whole-pipeline benchmark's scenario scale.
BENCH_SCALE = 0.25


class TestScan:
    def test_snapshot_covers_universe(self, internet):
        snapshot = scan(internet)
        assert snapshot.epoch == internet.config.snapshot_epoch
        assert snapshot.slash24_count > 0
        assert snapshot.total_active > 0

    def test_active_lists_sorted(self, internet):
        snapshot = scan(internet)
        for slash24 in internet.universe_slash24s[:10]:
            active = snapshot.active_in(slash24)
            assert active == sorted(active)

    def test_is_active(self, internet):
        snapshot = scan(internet)
        slash24 = next(
            p for p in internet.universe_slash24s if snapshot.active_in(p)
        )
        addr = snapshot.active_in(slash24)[0]
        assert addr in snapshot.addresses_in(slash24)
        assert snapshot.active_in(Prefix.of(0xC6000001, 24)) == []

    def test_slash26_groups(self, internet):
        snapshot = scan(internet)
        eligible = snapshot.eligible_slash24s()
        assert eligible
        for slash24 in eligible:
            assert len(slash26_groups(snapshot.active_in(slash24))) == 4

    def test_eligibility_criteria(self, internet):
        """Eligibility is exactly Section 3.3's criteria, over every /24
        the scan saw, in address order."""
        snapshot = scan(internet)
        expected = [
            Prefix(network, 24)
            for network in snapshot.networks.tolist()
            if meets_selection_criteria(
                snapshot.active_in(Prefix(network, 24))
            )
        ]
        eligible = snapshot.eligible_slash24s()
        assert eligible == expected
        # Both sides of the criteria occur in the scenario.
        assert 0 < len(eligible) < snapshot.slash24_count

    def test_eligibility_needs_every_slash26(self):
        base = 0x0A000000
        snapshot = ActivitySnapshot.from_lists(
            0,
            {
                base: [base + 1, base + 65, base + 129, base + 193],
                # Five active addresses, but the top /26 is empty.
                base + 256: [base + 256 + i for i in (1, 2, 65, 129, 130)],
            },
        )
        assert snapshot.eligible_slash24s() == [Prefix(base, 24)]
        assert snapshot.eligible_slash24s(min_active=5) == []

    def test_scan_restricted_slash24s(self, internet):
        some = internet.universe_slash24s[:3]
        snapshot = scan(internet, slash24s=some)
        assert snapshot.slash24_count <= 3

    def test_probe_scan_approximates_fast_scan(self, internet):
        slash24 = internet.universe_slash24s[0]
        prober = Prober(internet)
        probed = oracle.scan_with_probes(prober, [slash24], retries=3)
        epoch = probed.epoch
        truth = set(internet.active_addresses_in_slash24(slash24, epoch))
        found = set(probed.active_in(slash24))
        # Retransmissions make misses vanishingly rare; allow a couple.
        assert len(truth.symmetric_difference(found)) <= max(
            2, len(truth) // 20
        )


def assert_same_snapshot(sweep, reference):
    """Same epoch and, /24 by /24 in network order, the same active
    addresses: each /24 once, none empty, sorted ``<u4`` addresses, and
    the same Python-int lists from ``active_in``."""
    assert sweep.epoch == reference.epoch
    assert sweep.addresses.dtype == np.dtype("<u4")
    networks = sweep.networks.tolist()
    assert networks == reference.networks.tolist()
    assert networks == sorted(set(networks))
    for network in networks:
        slash24 = Prefix(network, 24)
        active = sweep.active_in(slash24)
        assert active
        assert active == reference.active_in(slash24)
        assert all(type(addr) is int for addr in active)
    assert sweep == reference


@pytest.fixture(scope="module")
def traced_bench_scans():
    """Sweep and oracle snapshots of the benchmark's seed-2016 scenario,
    each taken under ``tracemalloc``: [(snapshot, peak bytes, bytes
    still held once the scan returns), ...]."""
    internet = SimulatedInternet.from_config(
        paper_scenario(scale=BENCH_SCALE, seed=2016)
    )
    scans = []
    for sweep in (scan, oracle.scan):
        tracemalloc.start()
        try:
            snapshot = sweep(internet)
            held, peak = tracemalloc.get_traced_memory()
            scans.append((snapshot, peak, held))
        finally:
            tracemalloc.stop()
    return scans


class TestSweepMatchesOracle:
    """The chunked sweep against the per-/24, per-span loop it
    replaced (``tests/oracle.py``)."""

    def test_tiny(self, internet):
        assert_same_snapshot(scan(internet), oracle.scan(internet))

    def test_benchmark_scale_seed_2016(self, traced_bench_scans):
        (sweep, _, _), (reference, _, _) = traced_bench_scans
        assert_same_snapshot(sweep, reference)

    def test_benchmark_scale_seed_4242(self):
        internet = SimulatedInternet.from_config(
            paper_scenario(scale=BENCH_SCALE, seed=4242)
        )
        assert_same_snapshot(scan(internet), oracle.scan(internet))

    def test_peak_memory_near_oracle(self, traced_bench_scans):
        (_, sweep_peak, _), (_, oracle_peak, _) = traced_bench_scans
        assert sweep_peak <= oracle_peak + 8 * 2**20

    def test_snapshot_bytes_per_active_address(self, traced_bench_scans):
        """Four bytes an address, plus a few per /24 and the lookup
        caches the simulator's first sweep builds: not a Python int and
        a list slot per address (about 39 bytes)."""
        (sweep, _, held), _ = traced_bench_scans
        assert sweep.total_active > 100_000
        assert held <= 8 * sweep.total_active

    def test_events_keys_and_renumber_count(self, tiny_config):
        config = dataclasses.replace(
            tiny_config, events=EventConfig.at_intensity(0.6)
        )
        internet = SimulatedInternet.from_config(config)
        counters = internet.events.counters
        start = counters["renumber"]
        sweep = scan(internet)
        swept = counters["renumber"] - start
        reference = oracle.scan(internet)
        assert swept > 0
        assert counters["renumber"] - start == 2 * swept
        assert_same_snapshot(sweep, reference)

    def test_shuffled_subset_with_duplicates(self, internet):
        rng = random.Random(3)
        universe = list(internet.universe_slash24s)
        subset = rng.sample(universe, 60) + rng.sample(universe, 20)
        rng.shuffle(subset)
        assert len(set(subset)) < len(subset)
        assert_same_snapshot(
            scan(internet, slash24s=subset),
            oracle.scan(internet, slash24s=subset),
        )

    def test_slash24s_no_allocation_covers(self, internet):
        uncovered = [Prefix(0xC6000000, 24), Prefix(0xCB007100, 24)]
        for slash24 in uncovered:
            assert not internet.allocations.allocations_within(slash24)
        mixed = (
            uncovered[:1] + list(internet.universe_slash24s[:6])
            + uncovered[1:]
        )
        sweep = scan(internet, slash24s=mixed)
        assert_same_snapshot(sweep, oracle.scan(internet, slash24s=mixed))
        assert not set(sweep.networks.tolist()) & {
            slash24.network for slash24 in uncovered
        }
        assert scan(internet, slash24s=uncovered).slash24_count == 0

    def test_longer_than_one_chunk(self, internet, monkeypatch):
        universe = list(internet.universe_slash24s)
        per_chunk = internet_module.SWEEP_CHUNK_ADDRESSES // 256
        assert len(universe) > per_chunk
        assert_same_snapshot(
            scan(internet, slash24s=universe),
            oracle.scan(internet, slash24s=universe),
        )
        # Chunks of three /24s put a boundary nearly everywhere, and
        # room for 100 addresses makes the buffer grow again and again.
        monkeypatch.setattr(internet_module, "SWEEP_CHUNK_ADDRESSES", 768)
        monkeypatch.setattr(internet_module, "SWEEP_RESERVE_ADDRESSES", 100)
        assert_same_snapshot(scan(internet), oracle.scan(internet))

    def test_overlapping_spans_sorted(self, internet):
        """A /26 of another pod nested in an allocated /24: both spans
        are hashed, and the /24's list is sorted like the oracle's."""
        whole = next(
            allocation for allocation in internet.allocations
            if allocation.prefix.length == 24
        )
        other = next(
            pod for pod in internet.pods if pod.pod_id != whole.pod.pod_id
        )
        internet.allocations.add(
            Allocation(
                Prefix(whole.prefix.network + 64, 26), other,
                "nested", "nowhere", "00000", "20160101",
            )
        )
        slash24s = [whole.prefix] + list(internet.universe_slash24s[:4])
        sweep = scan(internet, slash24s=slash24s)
        assert_same_snapshot(sweep, oracle.scan(internet, slash24s=slash24s))
        active = sweep.active_in(whole.prefix)
        assert active == sorted(active)
        assert internet.active_addresses_in_slash24(
            whole.prefix, sweep.epoch
        ) == active


class TestPing:
    def _responsive(self, internet):
        for slash24 in internet.universe_slash24s:
            for addr in internet.active_addresses_in_slash24(slash24):
                if internet.is_host_up(addr):
                    return addr
        pytest.fail("no responsive host")

    def test_ping_counts(self, internet):
        prober = Prober(internet)
        addr = self._responsive(internet)
        result = ping(prober, addr, count=10)
        assert len(result.rtts_ms) == 10
        assert result.successes

    def test_loss_rate(self, internet):
        prober = Prober(internet)
        result = ping(prober, 0xC6000001, count=5)
        assert result.loss_rate == 1.0
        assert result.first_minus_max_rest_seconds() is None

    def test_first_minus_rest(self, internet):
        prober = Prober(internet)
        addr = self._responsive(internet)
        result = ping(prober, addr, count=10)
        diff = result.first_minus_max_rest_seconds()
        if diff is not None:
            assert -5.0 < diff < 5.0


class TestProber:
    def test_stats_accounting(self, internet):
        prober = Prober(internet)
        oracle.probe(prober, 0xC6000001, 64)  # timeout
        assert prober.stats.sent == 1
        assert prober.stats.timeouts == 1
        assert prober.stats.loss_rate == 1.0

    def test_echo_with_retries(self, internet):
        prober = Prober(internet)
        assert oracle.echo_with_retries(prober, 0xC6000001, retries=2) is None
        assert prober.stats.sent == 3
