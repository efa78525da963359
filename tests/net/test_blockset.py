"""Tests for repro.net.blockset."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Prefix,
    adjacency_lcp_lengths,
    contiguous_runs,
    extremes_lcp_length,
    normalize,
    parse,
    visualization_coordinates,
)


def s24(text: str) -> Prefix:
    return Prefix.parse(text + "/24")


class TestNormalize:
    def test_merges_sibling_halves(self):
        result = normalize(
            [Prefix.parse("10.0.0.0/25"), Prefix.parse("10.0.0.128/25")]
        )
        assert result == [Prefix.parse("10.0.0.0/24")]

    def test_removes_nested(self):
        result = normalize(
            [Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")]
        )
        assert result == [Prefix.parse("10.0.0.0/8")]

    def test_keeps_disjoint(self):
        a, b = Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.2.0/24")
        assert normalize([b, a]) == [a, b]

    def test_merges_adjacent_runs(self):
        result = normalize([s24("10.0.0.0"), s24("10.0.1.0"), s24("10.0.2.0")])
        assert [str(p) for p in result] == ["10.0.0.0/23", "10.0.2.0/24"]

    def test_empty(self):
        assert normalize([]) == []

    @settings(max_examples=40)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=200).map(
                lambda n: Prefix(0x0A000000 + n * 256, 24)
            ),
            max_size=30,
        )
    )
    def test_normalize_preserves_coverage(self, prefix_list):
        result = normalize(prefix_list)
        covered_before = set()
        for p in prefix_list:
            covered_before.update(range(p.first, p.last + 1, 64))
        for probe in covered_before:
            assert any(p.contains_address(probe) for p in result)
        # Result is non-overlapping and sorted.
        for left, right in zip(result, result[1:]):
            assert left.last < right.first


class TestContiguousRuns:
    def test_single_run(self):
        runs = contiguous_runs([s24("10.0.1.0"), s24("10.0.0.0")])
        assert len(runs) == 1
        assert len(runs[0]) == 2

    def test_split_runs(self):
        runs = contiguous_runs([s24("10.0.0.0"), s24("10.0.2.0")])
        assert len(runs) == 2

    def test_rejects_non_slash24(self):
        with pytest.raises(ValueError):
            contiguous_runs([Prefix.parse("10.0.0.0/23")])


class TestAdjacencyMetrics:
    def test_adjacent_pair_lengths(self):
        lengths = adjacency_lcp_lengths([s24("10.0.0.0"), s24("10.0.1.0")])
        assert lengths == [23]

    def test_distant_pair(self):
        lengths = adjacency_lcp_lengths([s24("10.0.0.0"), s24("138.0.0.0")])
        assert lengths == [0]

    def test_extremes(self):
        assert extremes_lcp_length(
            [s24("10.0.0.0"), s24("10.0.1.0"), s24("10.0.3.0")]
        ) == 22

    def test_extremes_single_block(self):
        assert extremes_lcp_length([s24("10.0.0.0")]) == 24

    def test_visualization_coordinates(self):
        coords = visualization_coordinates(
            [s24("10.0.0.0"), s24("10.0.1.0"), s24("10.0.4.0")]
        )
        # x1=1; adjacent pair adds 24-23=1; /22-distant pair adds 24-21=3.
        assert coords == [1.0, 2.0, 5.0]

    def test_coordinates_monotone(self):
        coords = visualization_coordinates(
            [s24("10.0.0.0"), s24("40.0.0.0"), s24("90.0.0.0")]
        )
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)
