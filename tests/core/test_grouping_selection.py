"""Tests for grouping and destination selection."""

import random

import pytest

from repro.core import (
    ExhaustivePolicy,
    cardinality,
    group_by_lasthop,
    group_by_value,
    group_ranges,
    meets_selection_criteria,
    one_per_slash26,
    round_robin_order,
    slash26_groups,
    slash31_pair,
    union_lasthops,
)
from repro.core.grouping import identical_lasthop_sets
from repro.core.pipeline import measure
from repro.net import parse
from repro.net.addr import AddressError
from repro.probing import Prober
from repro.probing.zmap import ActivitySnapshot


def fs(*values):
    return frozenset(values)


class TestGrouping:
    def test_group_by_lasthop(self):
        observations = {10: fs(1), 20: fs(1), 30: fs(2)}
        groups = group_by_lasthop(observations)
        assert groups == {1: [10, 20], 2: [30]}

    def test_multi_lasthop_joins_both_groups(self):
        observations = {10: fs(1, 2)}
        groups = group_by_lasthop(observations)
        assert groups == {1: [10], 2: [10]}

    def test_empty_set_joins_nothing(self):
        observations = {10: fs()}
        assert group_by_lasthop(observations) == {}

    def test_group_by_value(self):
        groups = group_by_value({5: "x", 9: "x", 1: "y"})
        assert groups == {"x": [5, 9], "y": [1]}

    def test_group_ranges_sorted(self):
        groups = {"a": [30, 10], "b": [5]}
        ranges = group_ranges(groups)
        assert [(r.first, r.last) for r in ranges] == [(5, 5), (10, 30)]

    def test_union_and_cardinality(self):
        observations = {10: fs(1, 2), 20: fs(2, 3)}
        assert union_lasthops(observations) == fs(1, 2, 3)
        assert cardinality(observations) == 3

    def test_identical_sets(self):
        assert identical_lasthop_sets({1: fs(1, 2), 2: fs(1, 2)})
        assert not identical_lasthop_sets({1: fs(1, 2), 2: fs(1)})
        assert identical_lasthop_sets({})


class TestSelectionCriteria:
    def _slash24_addresses(self, *offsets):
        base = parse("10.0.0.0")
        return [base + offset for offset in offsets]

    def test_needs_four_active(self):
        assert not meets_selection_criteria(
            self._slash24_addresses(1, 70, 140)
        )

    def test_needs_all_slash26s(self):
        # Five addresses but all in one /26.
        assert not meets_selection_criteria(
            self._slash24_addresses(1, 2, 3, 4, 5)
        )

    def test_accepts_full_coverage(self):
        assert meets_selection_criteria(
            self._slash24_addresses(1, 70, 140, 200)
        )

    def test_slash26_groups(self):
        groups = slash26_groups(self._slash24_addresses(1, 2, 70, 140, 200))
        assert len(groups) == 4
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [1, 1, 1, 2]

    @pytest.mark.parametrize("outside", [-1, 1 << 32])
    def test_address_outside_ipv4_raises(self, outside):
        addresses = self._slash24_addresses(1, 70, 140, 200) + [outside]
        with pytest.raises(AddressError):
            meets_selection_criteria(addresses)
        with pytest.raises(AddressError):
            slash26_groups(addresses)

    @pytest.mark.parametrize("outside", [-1, 1 << 32])
    def test_measure_refuses_outside_address_before_probing(
        self, internet, snapshot, outside
    ):
        """``measure`` takes a /24's addresses from a snapshot, which
        refuses an address outside IPv4 when it is made."""
        slash24 = snapshot.eligible_slash24s()[0]
        active = snapshot.active_in(slash24) + [outside]
        sent, clock = internet.probe_count, internet.clock_seconds
        with pytest.raises(AddressError):
            measure(
                Prober(internet), slash24,
                ActivitySnapshot.from_lists(
                    snapshot.epoch, {slash24.network: active}
                ),
                ExhaustivePolicy(), random.Random(1),
            )
        assert internet.probe_count == sent
        assert internet.clock_seconds == clock


class TestRoundRobin:
    def test_yields_all_addresses_once(self):
        addrs = [parse("10.0.0.0") + o for o in (1, 2, 70, 71, 140, 200)]
        rng = random.Random(3)
        order = list(round_robin_order(addrs, rng))
        assert sorted(order) == sorted(addrs)

    def test_first_round_covers_each_slash26(self):
        addrs = [parse("10.0.0.0") + o for o in (1, 2, 70, 71, 140, 200)]
        rng = random.Random(3)
        order = list(round_robin_order(addrs, rng))
        first_round = order[:4]
        slash26s = {a & 0xFFFFFFC0 for a in first_round}
        assert len(slash26s) == 4

    def test_deterministic_given_rng(self):
        addrs = [parse("10.0.0.0") + o for o in (1, 2, 70, 140, 200)]
        a = list(round_robin_order(addrs, random.Random(5)))
        b = list(round_robin_order(addrs, random.Random(5)))
        assert a == b


class TestPreliminarySelectors:
    def test_one_per_slash26(self):
        addrs = [parse("10.0.0.0") + o for o in (1, 2, 70, 140, 200)]
        chosen = one_per_slash26(addrs, random.Random(1))
        assert len(chosen) == 4
        assert len({a & 0xFFFFFFC0 for a in chosen}) == 4

    def test_slash31_pair_found(self):
        addrs = [parse("10.0.0.0") + o for o in (4, 5, 70)]
        pair = slash31_pair(addrs)
        assert pair is not None
        assert pair[0] & ~1 == pair[1] & ~1

    def test_slash31_pair_missing(self):
        addrs = [parse("10.0.0.0") + o for o in (1, 4, 70)]
        assert slash31_pair(addrs) is None
