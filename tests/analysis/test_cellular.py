"""Tests for cellular detection by RTT behaviour."""

import pytest

from repro.aggregation import AggregatedBlock
from repro.analysis import BlockRttStudy, study_block


def _pod_block(internet, want_cellular):
    for pod in internet.pods:
        if pod.cellular == want_cellular and len(pod.slash24s()) >= 2:
            if pod.unresponsive_lasthop:
                continue
            return AggregatedBlock(
                block_id=pod.pod_id,
                lasthop_set=frozenset(pod.lasthop_router_ids),
                slash24s=tuple(pod.slash24s()),
            )
    pytest.fail(f"no pod with cellular={want_cellular}")


class TestBlockRttStudy:
    def test_cellular_block_positive_differences(self, internet, snapshot):
        block = _pod_block(internet, want_cellular=True)
        study = study_block(
            internet, block, snapshot, label="cell",
            slash24_sample=4, max_addresses_per_slash24=5, ping_count=6,
        )
        assert study.differences_seconds
        assert study.looks_cellular
        assert study.fraction_above(0.2) > 0.5

    def test_wired_block_near_zero(self, internet, snapshot):
        block = _pod_block(internet, want_cellular=False)
        study = study_block(
            internet, block, snapshot, label="wired",
            slash24_sample=4, max_addresses_per_slash24=5, ping_count=6,
        )
        assert study.differences_seconds
        assert not study.looks_cellular
        assert study.fraction_above(0.5) < 0.1

    def test_empty_study(self):
        study = BlockRttStudy(label="x")
        assert not study.looks_cellular
        assert study.fraction_above(0.5) == 0.0
