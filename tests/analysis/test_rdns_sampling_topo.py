"""Tests for rDNS pattern mining, sampling comparison and topology
discovery analysis."""

import random

import pytest

from repro.aggregation import AggregatedBlock
from repro.analysis import (
    check_negative_controls,
    discovery_curve,
    distinct_pattern_count,
    groups_from_blocks,
    groups_from_slash24s,
    mine_block_patterns,
    signature_of,
    signature_regex,
    total_links,
)
from repro.analysis.sampling import (
    block_active_addresses,
    compare_sampling,
    simple_random_sample,
    stratified_sample,
)
from repro.net import Prefix


class TestSignatures:
    def test_signature_of(self):
        assert (
            signature_of("m3-1-2-3-4.cust.tele2.se")
            == "m#-#-#-#-#.cust.tele#.se"
        )

    def test_signature_regex_matches_same_scheme(self):
        signature = signature_of("ip1-2-3-4.denver.example-isp.net")
        assert signature_regex(signature).match(
            "ip9-9-9-9.denver.example-isp.net"
        )

    def test_signature_regex_rejects_other_scheme(self):
        signature = signature_of("ip1-2-3-4.denver.example-isp.net")
        assert not signature_regex(signature).match(
            "server-1-2-3-4.dc0.examplehosting.net"
        )

    def test_no_digits(self):
        assert signature_of("host.example.com") == "host.example.com"

    def test_regex_is_anchored(self):
        regex = signature_regex("a#b")
        assert regex.match("a7b")
        assert not regex.match("xa7b")
        assert not regex.match("a7bx")


class TestMining:
    def _cellular_block(self, internet):
        truth = internet.ground_truth
        for pod in internet.pods:
            if pod.cellular and pod.slash24s():
                return AggregatedBlock(
                    block_id=0,
                    lasthop_set=frozenset(pod.lasthop_router_ids),
                    slash24s=tuple(pod.slash24s()),
                )
        pytest.fail("no cellular pod")

    def test_mine_dominant_pattern(self, shared_internet, shared_snapshot):
        block = self._cellular_block(shared_internet)
        mined = mine_block_patterns(
            shared_internet, block, shared_snapshot, label="cell"
        )
        assert mined.names_seen > 0
        dominant = mined.dominant(min_fraction=0.5)
        assert dominant is not None
        assert mined.coverage(dominant) >= 0.5

    def test_negative_controls_clean(self, shared_internet, shared_snapshot):
        block = self._cellular_block(shared_internet)
        mined = mine_block_patterns(
            shared_internet, block, shared_snapshot
        )
        dominant = mined.dominant()
        from repro.netsim.rdns import router_rdns_name

        router_names = [
            router_rdns_name(r.label) for r in shared_internet.topology
        ]
        control = check_negative_controls(dominant, router_names, [])
        assert control.clean

    def test_distinct_pattern_count(self, shared_internet, shared_snapshot):
        eligible = shared_snapshot.eligible_slash24s()
        addrs = []
        for slash24 in eligible[:10]:
            addrs.extend(shared_snapshot.active_in(slash24)[:5])
        count = distinct_pattern_count(shared_internet, addrs)
        assert count >= 1


class TestSampling:
    def test_stratified_one_per_block(self):
        per_block = [[1, 2, 3], [10], [20, 21]]
        sample = stratified_sample(per_block, random.Random(1))
        assert len(sample) == 3
        assert sample[1] == 10

    def test_simple_random_sample_size(self):
        population = list(range(100))
        sample = simple_random_sample(population, 10, random.Random(1))
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_simple_random_sample_caps_at_population(self):
        assert len(simple_random_sample([1, 2], 10, random.Random(1))) == 2

    def test_compare_sampling(self, shared_internet, shared_snapshot):
        truth = shared_internet.ground_truth
        blocks = [
            AggregatedBlock(
                block_id=i,
                lasthop_set=tb.lasthop_router_ids,
                slash24s=tb.slash24s,
            )
            for i, tb in enumerate(truth.true_blocks()[:40])
        ]
        comparison = compare_sampling(
            shared_internet, blocks, shared_snapshot,
            repetitions=4, multipliers=(1, 2), seed=1,
        )
        rows = comparison.normalized_rows()
        assert rows[0] == ("Stratified", 1.0)
        assert len(rows) == 3
        assert 0.0 < comparison.stratified_population_coverage <= 1.0

    def test_block_active_addresses_drops_empty(self, shared_internet,
                                                shared_snapshot):
        empty_block = AggregatedBlock(
            block_id=0,
            lasthop_set=frozenset({1}),
            slash24s=(Prefix.parse("99.99.99.0/24"),),
        )
        assert block_active_addresses([empty_block], shared_snapshot) == []


class TestDiscovery:
    DATASET = {
        # /24 A (10.0.0.x): two destinations, shared + unique links.
        0x0A000001: frozenset({(1, 2, 3)}),
        0x0A000002: frozenset({(1, 2, 4)}),
        # /24 B (10.0.1.x): one destination.
        0x0A000101: frozenset({(1, 5, 6)}),
    }

    def test_total_links(self):
        links = total_links(self.DATASET)
        assert links == {(1, 2), (2, 3), (2, 4), (1, 5), (5, 6)}

    def test_groups_from_slash24s(self):
        groups = groups_from_slash24s(self.DATASET)
        assert len(groups) == 2

    def test_groups_from_blocks(self):
        blocks = [[Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")]]
        groups = groups_from_blocks(self.DATASET, blocks)
        assert len(groups) == 1
        assert len(groups[0]) == 3

    def test_curve_reaches_one(self):
        curve = discovery_curve(
            self.DATASET,
            groups_from_slash24s(self.DATASET),
            slash24_count=2,
            strategy="/24",
            rng=random.Random(1),
        )
        assert curve.points[-1][1] == pytest.approx(1.0)

    def test_curve_monotone(self):
        curve = discovery_curve(
            self.DATASET,
            groups_from_slash24s(self.DATASET),
            slash24_count=2,
            strategy="/24",
            rng=random.Random(1),
        )
        ratios = [ratio for _x, ratio in curve.points]
        assert ratios == sorted(ratios)

    def test_ratio_at_or_below(self):
        curve = discovery_curve(
            self.DATASET,
            groups_from_slash24s(self.DATASET),
            slash24_count=2,
            strategy="/24",
            rng=random.Random(1),
        )
        assert curve.ratio_at_or_below(0.0) == 0.0
        assert curve.ratio_at_or_below(100.0) == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            discovery_curve({}, [], 1, "x", random.Random(1))
