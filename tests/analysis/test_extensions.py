"""Tests for the extension analyses: DHCP search, longitudinal
comparison and multi-vantage probing."""

import gc
import random
import weakref

import pytest

from repro.aggregation import AggregatedBlock
from repro.analysis import (
    block_of_address,
    compare_campaigns,
    compare_search_strategies,
    fingerprint,
    search_for_host,
    study_vantages,
    vantage_addresses,
)
from repro.analysis.dhcp_search import block_candidates
from repro.core import TerminationPolicy, run_campaign
from repro.core.classifier import Category, Slash24Measurement
from repro.core.pipeline import CampaignResult
from repro.net import Prefix
from repro.netsim import SimulatedInternet
from repro.netsim.dhcp import EPOCHS_PER_LEASE


def _blocks_from_truth(internet, min_size=2):
    blocks = []
    for index, tb in enumerate(internet.ground_truth.true_blocks()):
        blocks.append(
            AggregatedBlock(
                block_id=index,
                lasthop_set=tb.lasthop_router_ids,
                slash24s=tb.slash24s,
            )
        )
    return blocks


class TestDhcpSearch:
    def test_fingerprint_stable_within_lease(self, shared_internet):
        slash24 = shared_internet.universe_slash24s[0]
        addr = slash24.network + 9
        assert fingerprint(shared_internet, addr, 0) == fingerprint(
            shared_internet, addr, 1
        )

    def test_fingerprint_moves_across_leases(self, shared_internet):
        slash24 = shared_internet.universe_slash24s[0]
        addr = slash24.network + 9
        moved = fingerprint(shared_internet, addr, 0) != fingerprint(
            shared_internet, addr, EPOCHS_PER_LEASE
        )
        # The address usually changes hands (offset mask flips).
        if not moved:
            # At minimum some address in the /24 changes hands.
            assert any(
                fingerprint(shared_internet, slash24.network + o, 0)
                != fingerprint(
                    shared_internet, slash24.network + o, EPOCHS_PER_LEASE
                )
                for o in range(0, 256, 8)
            )

    def test_search_finds_renumbered_host(self, shared_internet):
        blocks = _blocks_from_truth(shared_internet)
        slash24 = shared_internet.universe_slash24s[0]
        addr = slash24.network + 9
        block = block_of_address(blocks, addr)
        assert block is not None
        outcome = search_for_host(
            shared_internet, addr, 0, EPOCHS_PER_LEASE,
            block_candidates(block, random.Random(1)), "hobbit-block",
        )
        assert outcome.found
        assert outcome.candidates_probed <= block.size * 256
        assert fingerprint(
            shared_internet, outcome.new_address, EPOCHS_PER_LEASE
        ) == fingerprint(shared_internet, addr, 0)

    def test_comparison_speedup(self, shared_internet, shared_snapshot):
        blocks = _blocks_from_truth(shared_internet)
        population = [p for b in blocks for p in b.slash24s]
        hosts = []
        for block in sorted(blocks, key=lambda b: -b.size)[:8]:
            actives = shared_snapshot.active_in(block.slash24s[0])
            if actives:
                hosts.append(actives[0])
        comparison = compare_search_strategies(
            shared_internet, blocks, hosts, 0, EPOCHS_PER_LEASE,
            population, seed=2, max_probes=50_000,
        )
        assert comparison.searches == len(hosts)
        assert comparison.block_found == comparison.searches
        assert comparison.expected_speedup > 3.0

    def test_searched_scenario_is_released(self, tiny_config):
        """Nothing the searches cache outlives the call: once the caller
        drops a searched scenario, its internet and the searched hosts'
        pods are freed."""

        def search():
            internet = SimulatedInternet.from_config(tiny_config)
            blocks = _blocks_from_truth(internet)
            hosts = [
                block.slash24s[0].network + 9
                for block in sorted(blocks, key=lambda b: -b.size)[:4]
            ]
            comparison = compare_search_strategies(
                internet, blocks, hosts, 0, EPOCHS_PER_LEASE,
                [p for b in blocks for p in b.slash24s],
                seed=2, max_probes=2_000,
            )
            assert comparison.searches == 4
            search_for_host(
                internet, hosts[0], 0, EPOCHS_PER_LEASE,
                block_candidates(blocks[0], random.Random(1)), "hobbit-block",
            )
            assert fingerprint(internet, hosts[0], 0) is not None
            pods = [internet.allocations.pod_of(host) for host in hosts]
            return weakref.ref(internet), [weakref.ref(pod) for pod in pods]

        internet, pods = search()
        gc.collect()
        assert internet() is None
        assert all(pod() is None for pod in pods)

    def test_block_of_address_miss(self, shared_internet):
        blocks = _blocks_from_truth(shared_internet)
        assert block_of_address(blocks, 0xC6000001) is None


class TestLongitudinal:
    def _measurement(self, slash24, category, lasthops):
        return Slash24Measurement(
            slash24=slash24,
            category=category,
            observations={slash24.network + 1: frozenset(lasthops)},
        )

    def test_compare_campaigns_synthetic(self):
        s24a = Prefix.parse("10.0.0.0/24")
        s24b = Prefix.parse("10.0.1.0/24")
        first = CampaignResult()
        second = CampaignResult()
        first.add(self._measurement(s24a, Category.SAME_LASTHOP, [1]))
        first.add(self._measurement(s24b, Category.SAME_LASTHOP, [2]))
        second.add(self._measurement(s24a, Category.SAME_LASTHOP, [1]))
        second.add(self._measurement(s24b, Category.HIERARCHICAL, [2, 9]))
        comparison = compare_campaigns(first, second)
        assert comparison.slash24s_in_both == 2
        assert comparison.same_verdict == 1
        assert comparison.homogeneous_in_both == 1
        assert comparison.same_lasthop_set == 1
        assert comparison.verdict_stability == 0.5

    def test_identical_campaigns_fully_stable(self, internet, snapshot):
        campaign = run_campaign(
            internet, TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:20],
            snapshot=snapshot, seed=3, max_destinations_per_slash24=32,
        )
        comparison = compare_campaigns(campaign, campaign)
        assert comparison.verdict_stability == 1.0
        assert comparison.set_stability == 1.0
        assert comparison.block_jaccard_mean == 1.0

    def test_disjoint_campaigns(self):
        comparison = compare_campaigns(CampaignResult(), CampaignResult())
        assert comparison.slash24s_in_both == 0
        assert comparison.verdict_stability == 0.0


class TestMultiVantage:
    def test_vantage_addresses_distinct(self, shared_internet):
        vantages = vantage_addresses(shared_internet, 3)
        assert len(set(vantages)) == 3
        assert vantages[0] == shared_internet.vantage_address

    def test_union_monotone(self, internet, snapshot):
        truth = internet.ground_truth
        sample = [
            p for p in snapshot.eligible_slash24s()
            if truth.is_homogeneous(p)
            and len(truth.lasthop_set_of(p)) >= 2
        ][:6]
        assert sample
        study = study_vantages(
            internet, snapshot, sample, vantage_count=2, seed=1,
            max_destinations=24,
        )
        one = study.union_sets(1)
        two = study.union_sets(2)
        for slash24, lasthops in one.items():
            assert lasthops <= two.get(slash24, frozenset())
        assert study.completeness(internet, 2) >= study.completeness(
            internet, 1
        ) - 1e-9

    def test_source_changes_some_lasthops(self, internet, snapshot):
        """Some pod has a source-hashing last-hop balancer, so probing
        from a different vantage flips some destination's last hop."""
        from repro.probing import Prober
        from tests.oracle import identify_lasthops

        truth = internet.ground_truth
        pods = [
            pod for pod in internet.pods
            if pod.lasthop_source_hash and pod.slash24s()
        ]
        assert pods, "scenario should contain source-hashing pods"
        flipped = 0
        checked = 0
        for pod in pods[:5]:
            for slash24 in pod.slash24s()[:1]:
                for dst in snapshot.active_in(slash24)[:6]:
                    a = identify_lasthops(
                        Prober(internet), dst
                    ).lasthops
                    b = identify_lasthops(
                        Prober(
                            internet,
                            source=internet.vantage_address + 1,
                        ),
                        dst,
                    ).lasthops
                    if a and b:
                        checked += 1
                        if a != b:
                            flipped += 1
        assert checked > 0
        assert flipped > 0
