"""Tests for CDF utilities and path-metric cardinalities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    cdf_at,
    empirical_cdf,
    fraction_above,
    histogram_fractions,
    lasthop_cardinality,
    links_of_route,
    per_destination_lasthops,
    percentile,
    subpath_cardinality,
    traceroute_cardinality,
)
from repro.analysis.pathmetrics import common_router_depth


class TestCdf:
    def test_empirical_cdf(self):
        assert empirical_cdf([1, 2, 2, 4]) == [
            (1.0, 0.25), (2.0, 0.75), (4.0, 1.0),
        ]

    def test_empirical_cdf_empty(self):
        assert empirical_cdf([]) == []

    def test_cdf_at(self):
        values = [1, 2, 3, 4]
        assert cdf_at(values, 2) == 0.5
        assert cdf_at(values, 0) == 0.0
        assert cdf_at(values, 10) == 1.0

    def test_fraction_above(self):
        assert fraction_above([1, 2, 3, 4], 2) == 0.5

    def test_percentile(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda: percentile([], 50),
            lambda: cdf_at([], 1),
            lambda: fraction_above([], 1),
        ],
    )
    def test_empty_inputs_raise_value_error(self, call):
        with pytest.raises(ValueError, match="empty"):
            call()

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError, match="outside"):
            percentile([1, 2], 150)

    def test_numpy_array_inputs_accepted(self):
        import numpy as np

        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert cdf_at(values, 2) == 0.5
        assert fraction_above(values, 2) == 0.5
        assert percentile(values, 50) == 2.5
        with pytest.raises(ValueError, match="empty"):
            cdf_at(np.array([]), 1)

    def test_multidimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            cdf_at([[1, 2], [3, 4]], 2)

    def test_histogram_fractions_empty(self):
        assert histogram_fractions([]) == []

    def test_histogram_fractions(self):
        rows = histogram_fractions([1, 1, 2])
        assert rows == [(1, 2, pytest.approx(2 / 3)), (2, 1, pytest.approx(1 / 3))]

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1))
    def test_cdf_monotone(self, values):
        points = empirical_cdf(values)
        fractions = [f for _x, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


ROUTE_A = (10, 20, 30)
ROUTE_B = (10, 21, 30)
ROUTE_C = (10, 21, 31)


class TestPathMetrics:
    def test_traceroute_cardinality(self):
        sets = {1: frozenset({ROUTE_A, ROUTE_B}), 2: frozenset({ROUTE_B})}
        assert traceroute_cardinality(sets) == 2

    def test_lasthop_cardinality(self):
        sets = {1: frozenset({ROUTE_A, ROUTE_B}), 2: frozenset({ROUTE_C})}
        assert lasthop_cardinality(sets) == 2  # last hops: 30, 31

    def test_lasthop_ignores_unresponsive(self):
        sets = {1: frozenset({(10, None)})}
        assert lasthop_cardinality(sets) == 0

    def test_common_router_depth(self):
        routes = {ROUTE_A, ROUTE_B}
        # Hop 0 common (10); hop 1 differs; hop 2 common (30) and deepest.
        assert common_router_depth(routes) == 2

    def test_common_router_depth_none(self):
        assert common_router_depth({(1, 2), (3, 4)}) is None

    def test_subpath_cardinality_collapses_prefix_diversity(self):
        # Routes differ only upstream of a common final router.
        sets = {1: frozenset({(1, 5, 9), (2, 5, 9)})}
        assert traceroute_cardinality(sets) == 2
        assert subpath_cardinality(sets) == 1

    def test_subpath_without_common_router(self):
        sets = {1: frozenset({(1, 2), (3, 4)})}
        assert subpath_cardinality(sets) == 2

    def test_per_destination_lasthops(self):
        sets = {7: frozenset({ROUTE_A, (10, 20, None)})}
        observations = per_destination_lasthops(sets)
        assert observations[7] == frozenset({30})

    def test_links_of_route(self):
        assert links_of_route((1, 2, 3)) == {(1, 2), (2, 3)}

    def test_links_skip_unresponsive(self):
        assert links_of_route((1, None, 3)) == set()
        assert links_of_route((1, 2, None, 4)) == {(1, 2)}
