"""Tests for the hierarchy test — including a property-based check of
the stack algorithm against the quadratic reference,
``tests/oracle.py:hierarchical_with`` over every pair."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import AddressRange
from repro.core import (
    find_non_hierarchical_pair,
    groups_hierarchical,
    ranges_hierarchical,
    ranges_non_hierarchical_batch,
)
from tests import oracle


def r(first, last):
    return AddressRange(first, last)


class TestRangesHierarchical:
    def test_empty(self):
        assert ranges_hierarchical([])

    def test_single(self):
        assert ranges_hierarchical([r(0, 10)])

    def test_disjoint(self):
        assert ranges_hierarchical([r(0, 4), r(5, 9), r(20, 30)])

    def test_nested(self):
        assert ranges_hierarchical([r(0, 100), r(10, 20), r(30, 40)])

    def test_partial_overlap_detected(self):
        assert not ranges_hierarchical([r(0, 6), r(3, 9)])

    def test_deeply_nested(self):
        assert ranges_hierarchical([r(0, 100), r(10, 90), r(20, 80)])

    def test_figure_2c_example(self):
        # Non-hierarchical groups from the paper's Figure 2c: group
        # boundaries interleave.
        groups = [r(2, 237), r(126, 254), r(130, 130)]
        assert not ranges_hierarchical(groups)

    def test_figure_2a_disjoint_example(self):
        # Figure 2a: addresses .2-.126 vs .130-.237 → disjoint.
        assert ranges_hierarchical([r(2, 126), r(130, 237)])

    def test_identical_ranges_are_non_hierarchical(self):
        # Equal ranges require shared endpoint addresses — only load
        # balancing produces that, never distinct route entries.
        assert not ranges_hierarchical([r(5, 10), r(5, 10)])

    def test_shared_endpoint_containment(self):
        assert ranges_hierarchical([r(0, 10), r(0, 5)])
        assert ranges_hierarchical([r(0, 10), r(5, 10)])

    def test_pair_reported(self):
        pair = find_non_hierarchical_pair([r(0, 6), r(3, 9)])
        assert pair is not None
        assert {pair[0], pair[1]} == {r(0, 6), r(3, 9)}

    def test_no_pair_when_hierarchical(self):
        assert find_non_hierarchical_pair([r(0, 4), r(5, 9)]) is None


ranges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    ).map(lambda t: AddressRange(min(t), max(t))),
    max_size=14,
)


batch_entry = st.tuples(
    st.integers(0, 40), st.integers(0, 40), st.booleans()
)


class TestAgainstReference:
    @settings(max_examples=300)
    @given(ranges_strategy)
    def test_matches_quadratic_reference(self, ranges):
        expected = all(
            oracle.hierarchical_with(a, b)
            for i, a in enumerate(ranges)
            for b in ranges[i + 1:]
        )
        assert ranges_hierarchical(ranges) == expected

    @settings(max_examples=200)
    @given(st.integers(0, 12).flatmap(lambda width: st.lists(
        st.lists(batch_entry, min_size=width, max_size=width),
        min_size=1, max_size=6,
    )))
    def test_batch_matches_scalar(self, rows):
        """Rows of (endpoint, endpoint, present) entries; small endpoints
        make equal, nested and partially overlapping ranges common."""
        entries = np.array(rows, dtype=np.int64).reshape(
            len(rows), len(rows[0]), 3
        )
        first = entries[:, :, :2].min(axis=2)
        last = entries[:, :, :2].max(axis=2)
        present = entries[:, :, 2].astype(bool)
        expected = [
            find_non_hierarchical_pair([
                AddressRange(int(f), int(l))
                for f, l, keep in zip(first[d], last[d], present[d])
                if keep
            ]) is not None
            for d in range(len(rows))
        ]
        assert ranges_non_hierarchical_batch(
            first, last, present
        ).tolist() == expected

    @settings(max_examples=100)
    @given(ranges_strategy)
    def test_order_invariance(self, ranges):
        assert ranges_hierarchical(ranges) == ranges_hierarchical(
            list(reversed(ranges))
        )


class TestGroupsInterface:
    def test_groups_hierarchical(self):
        groups = {"a": [0, 4], "b": [5, 9]}
        assert groups_hierarchical(groups)

    def test_groups_interleaved(self):
        groups = {"a": [0, 6], "b": [3, 9]}
        assert not groups_hierarchical(groups)
