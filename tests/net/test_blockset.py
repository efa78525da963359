"""Tests for repro.net.blockset."""

import pytest

from repro.net import (
    Prefix,
    adjacency_lcp_lengths,
    contiguous_runs,
    extremes_lcp_length,
    parse,
    visualization_coordinates,
)


def s24(text: str) -> Prefix:
    return Prefix.parse(text + "/24")


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
