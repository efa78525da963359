"""Workspace determinism: two independent builds of the same profile
must agree exactly (this is what makes EXPERIMENTS.md reproducible)."""

import pytest

from repro.experiments.common import PROFILES, Workspace


@pytest.fixture(scope="module")
def two_workspaces():
    a = Workspace(PROFILES["tiny"])
    b = Workspace(PROFILES["tiny"])
    a.ensure_built()
    b.ensure_built()
    return a, b


class TestDeterminism:
    def test_snapshots_identical(self, two_workspaces):
        a, b = two_workspaces
        assert a.snapshot == b.snapshot
        assert a.snapshot.total_active > 0

    def test_campaign_counts_identical(self, two_workspaces):
        a, b = two_workspaces
        assert a.campaign.category_counts() == b.campaign.category_counts()
        assert a.campaign.probes_used == b.campaign.probes_used

    def test_campaign_verdicts_identical(self, two_workspaces):
        a, b = two_workspaces
        for slash24, measurement in a.campaign.measurements.items():
            other = b.campaign.measurements[slash24]
            assert measurement.category == other.category
            assert measurement.lasthop_set == other.lasthop_set

    def test_aggregation_identical(self, two_workspaces):
        a, b = two_workspaces
        sizes_a = sorted(block.size for block in a.aggregation.final_blocks)
        sizes_b = sorted(block.size for block in b.aggregation.final_blocks)
        assert sizes_a == sizes_b
        assert a.aggregation.inflation == b.aggregation.inflation

    def test_confidence_tables_identical(self, two_workspaces):
        a, b = two_workspaces
        assert a.confidence_table.grid() == b.confidence_table.grid()

    def test_path_datasets_identical(self, two_workspaces):
        a, b = two_workspaces
        assert set(a.path_dataset) == set(b.path_dataset)
        for slash24 in a.path_dataset:
            assert a.path_dataset[slash24] == b.path_dataset[slash24]
