"""Tests for scenario configuration presets and scaling."""

import pytest

from repro.netsim import (
    ScenarioConfig,
    paper_scenario,
    small_scenario,
    tiny_scenario,
)
from repro.netsim.orgs import OrgType


def _slash24s(config):
    return sum(org.num_slash24s for org in config.orgs)


class TestPresets:
    def test_tiny_has_three_orgs(self):
        config = tiny_scenario()
        assert len(config.orgs) == 3
        assert _slash24s(config) == 320

    def test_paper_scenario_has_named_orgs(self):
        config = paper_scenario(scale=0.1)
        names = {org.name for org in config.orgs}
        # Tables 3 and 5 actors are present by name.
        for expected in (
            "Korea Telecom", "SK Broadband", "Tele2", "Amazon",
            "EGI Hosting", "OCN", "Verizon Wireless", "Cox",
            "Time Warner Cable", "SingTel", "SoftBank",
        ):
            assert expected in names

    def test_small_is_paper_scaled(self):
        small = small_scenario()
        full = paper_scenario(scale=1.0)
        assert _slash24s(small) < _slash24s(full)

    def test_scale_monotone(self):
        lo = _slash24s(paper_scenario(scale=0.05))
        hi = _slash24s(paper_scenario(scale=0.5))
        assert lo < hi

    def test_korean_orgs_split_most(self):
        config = paper_scenario(scale=0.1)
        by_name = {org.name: org for org in config.orgs}
        kt = by_name["Korea Telecom"]
        assert kt.registry == "krnic"
        others = [
            org.split24_fraction
            for org in config.orgs
            if org.name not in ("Korea Telecom", "SK Broadband")
        ]
        assert kt.split24_fraction > max(others)

    def test_cellular_pools_marked(self):
        config = paper_scenario(scale=0.1)
        cellular_orgs = {
            org.name
            for org in config.orgs
            if any(big.cellular for big in org.big_pods)
        }
        assert {"Tele2", "OCN", "Verizon Wireless"} <= cellular_orgs

    def test_big_pods_scale_with_floor(self):
        tiny_scale = paper_scenario(scale=0.01)
        for org in tiny_scale.orgs:
            for big in org.big_pods:
                assert big.size_slash24s >= 4

    def test_table5_order_preserved_under_scaling(self):
        config = paper_scenario(scale=0.25)
        sizes = {}
        for org in config.orgs:
            for big in org.big_pods:
                sizes[big.label] = big.size_slash24s
        assert sizes["egihosting-main"] >= sizes["ec2-ap-northeast-1"]
        assert sizes["ec2-ap-northeast-1"] >= sizes["ntt-dc"]


class TestConfigBehaviour:
    def test_mode_weights_sum_to_one(self):
        for org in paper_scenario(scale=0.1).orgs:
            total = sum(w for _m, w in org.lasthop_mode_weights)
            assert total == pytest.approx(1.0, abs=1e-6)
            total = sum(w for _k, w in org.lasthop_k_weights)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_default_ttl_weights_sum_to_one(self):
        config = ScenarioConfig()
        assert sum(w for _v, w in config.default_ttl_weights) == pytest.approx(
            1.0
        )

    def test_reverse_delta_weights_sum_to_one(self):
        config = ScenarioConfig()
        assert sum(
            w for _v, w in config.reverse_delta_weights
        ) == pytest.approx(1.0)

    def test_org_types_valid(self):
        for org in paper_scenario(scale=0.1).orgs:
            assert isinstance(org.org_type, OrgType)
