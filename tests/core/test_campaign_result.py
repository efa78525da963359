"""CampaignResult lookup/slicing helpers (subset, iteration, get)."""

import pytest

from repro.core import CampaignResult, Category
from repro.core.classifier import Slash24Measurement
from repro.net.prefix import Prefix


def measurement(network, probes=5):
    return Slash24Measurement(
        slash24=Prefix.parse(f"{network}/24"),
        category=Category.TOO_FEW_ACTIVE,
        probes_used=probes,
    )


@pytest.fixture
def result():
    campaign = CampaignResult()
    campaign.add(measurement("10.0.0.0", probes=2))
    campaign.add(measurement("10.0.1.0", probes=3))
    campaign.add(measurement("10.0.2.0", probes=5))
    return campaign


class TestLookup:
    def test_contains(self, result):
        assert Prefix.parse("10.0.0.0/24") in result
        assert Prefix.parse("10.9.9.0/24") not in result

    def test_get(self, result):
        found = result.get(Prefix.parse("10.0.1.0/24"))
        assert found is not None
        assert found.probes_used == 3
        assert result.get(Prefix.parse("10.9.9.0/24")) is None

    def test_iteration_in_insertion_order(self, result):
        networks = [m.slash24.network for m in result]
        assert networks == sorted(networks)
        assert len(list(result)) == 3

    def test_prefixes(self, result):
        assert list(result.measurements) == [
            Prefix.parse("10.0.0.0/24"),
            Prefix.parse("10.0.1.0/24"),
            Prefix.parse("10.0.2.0/24"),
        ]


class TestSubset:
    def test_subset_keeps_requested(self, result):
        keep = [Prefix.parse("10.0.2.0/24"), Prefix.parse("10.0.0.0/24")]
        sliced = result.subset(keep)
        assert sliced.total == 2
        assert list(sliced.measurements) == keep  # requested order
        assert sliced.probes_used == 7  # re-accumulated from kept /24s

    def test_subset_missing_prefix_raises(self, result):
        with pytest.raises(KeyError, match="10.9.9.0/24"):
            result.subset([Prefix.parse("10.9.9.0/24")])

    def test_subset_is_independent(self, result):
        sliced = result.subset([Prefix.parse("10.0.0.0/24")])
        sliced.add(measurement("10.8.0.0"))
        assert Prefix.parse("10.8.0.0/24") not in result

    def test_empty_subset(self, result):
        sliced = result.subset([])
        assert sliced.total == 0
        assert sliced.probes_used == 0
