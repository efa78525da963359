"""Campaign-level tests: running Hobbit over many /24s."""

import pytest

from repro.core import (
    Category,
    TerminationPolicy,
    run_campaign,
)
from repro.probing import scan


@pytest.fixture(scope="module")
def campaign_result():
    from repro.netsim import SimulatedInternet, tiny_scenario

    internet = SimulatedInternet.from_config(tiny_scenario(seed=7))
    snapshot = scan(internet)
    slash24s = snapshot.eligible_slash24s()[:80]
    result = run_campaign(
        internet,
        TerminationPolicy(),
        slash24s=slash24s,
        snapshot=snapshot,
        seed=5,
        max_destinations_per_slash24=48,
    )
    return internet, result


class TestCampaign:
    def test_measures_all_selected(self, campaign_result):
        _internet, result = campaign_result
        assert result.total == 80

    def test_category_counts_sum(self, campaign_result):
        _internet, result = campaign_result
        counts = result.category_counts()
        assert sum(counts.values()) == result.total

    def test_probes_accumulated(self, campaign_result):
        _internet, result = campaign_result
        assert result.probes_used > 0
        assert result.probes_used == sum(
            m.probes_used for m in result.measurements.values()
        )

    def test_homogeneous_subset_of_analyzable(self, campaign_result):
        _internet, result = campaign_result
        homogeneous = result.homogeneous_mask()
        analyzable = result.analyzable_mask()
        assert not (homogeneous & ~analyzable).any()
        assert [m.is_homogeneous for m in result] == homogeneous.tolist()
        assert [m.category.analyzable for m in result] == (
            analyzable.tolist()
        )
        assert 0.0 <= result.homogeneous_fraction_of_analyzable() <= 1.0

    def test_accuracy_against_ground_truth(self, campaign_result):
        internet, result = campaign_result
        truth = internet.ground_truth
        correct = 0
        judged = 0
        for slash24, measurement in result.measurements.items():
            if not measurement.category.analyzable:
                continue
            judged += 1
            if measurement.is_homogeneous == truth.is_homogeneous(slash24):
                correct += 1
        assert judged > 40
        assert correct / judged > 0.85

    def test_lasthop_sets_only_for_homogeneous(self, campaign_result):
        _internet, result = campaign_result
        sets = result.lasthop_sets()
        homogeneous = {m.slash24 for m in result if m.is_homogeneous}
        assert set(sets) <= homogeneous
        assert all(sets.values())

    def test_by_category_partition(self, campaign_result):
        _internet, result = campaign_result
        total = sum(
            len(result.by_category(category)) for category in Category
        )
        assert total == result.total
