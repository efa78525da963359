"""Cross-cutting property-based tests on core invariants.

These complement the per-module suites with deeper hypothesis checks on
the data structures the whole pipeline leans on.
"""

import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.aggregation import (
    aggregate_identical,
    mcl,
    prepare_stochastic,
)
from repro.core import round_robin_order
from repro.net import Prefix, to_prefixes
from repro.probing import ActivitySnapshot, probes_required
from repro.store.fingerprint import active_list_fingerprint
from tests import oracle

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestToPrefixesMinimality:
    @settings(max_examples=80)
    @given(addresses, st.integers(min_value=0, max_value=4095))
    def test_result_is_minimal(self, first, span):
        last = min(first + span, (1 << 32) - 1)
        result = to_prefixes(first, last)
        # Minimality: no two adjacent prefixes in the result can merge
        # into a single aligned prefix.
        for left, right in zip(result, result[1:]):
            if left.length != right.length:
                continue
            parent_len = left.length - 1
            if parent_len < 0:
                continue
            if Prefix.of(left.network, parent_len) == Prefix.of(
                right.network, parent_len
            ):
                pytest.fail(f"{left} and {right} could merge")

    @settings(max_examples=80)
    @given(addresses, st.integers(min_value=0, max_value=4095))
    def test_normalize_of_result_is_identity(self, first, span):
        """The result is already in normal form: sorted, and covering
        exactly [first, last] with no gap or overlap."""
        last = min(first + span, (1 << 32) - 1)
        result = to_prefixes(first, last)
        assert result == sorted(result)
        assert (result[0].first, result[-1].last) == (first, last)
        for left, right in zip(result, result[1:]):
            assert left.last + 1 == right.first


class TestMclInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            max_size=30,
        )
    )
    def test_clusters_partition_vertices(self, edges):
        # A pair drawn again keeps its first weight.
        weights = {}
        for u, v, w in edges:
            if u != v:
                weights.setdefault((min(u, v), max(u, v)), w)
        graph = oracle.graph_from_edges(
            12, [(u, v, w) for (u, v), w in weights.items()]
        )
        result = mcl(graph.to_sparse(), inflation=2.0)
        members = sorted(v for c in result.clusters for v in c)
        assert members == list(range(12))

    def test_normalize_columns_is_stochastic(self):
        rng = np.random.default_rng(1)
        dense = rng.random((6, 6))
        matrix = prepare_stochastic(sparse.csc_matrix(dense))
        sums = np.asarray(matrix.sum(axis=0)).ravel()
        assert np.allclose(sums, 1.0)

    def test_normalize_repairs_zero_columns(self):
        matrix = sparse.csc_matrix((3, 3))
        repaired = prepare_stochastic(matrix, self_loop_weight=0.0)
        sums = np.asarray(repaired.sum(axis=0)).ravel()
        assert np.allclose(sums, 1.0)


class TestAggregationInvariants:
    @settings(max_examples=40)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=400),
            st.frozensets(
                st.integers(min_value=1, max_value=6), min_size=1, max_size=3
            ),
            max_size=40,
        )
    )
    def test_blocks_partition_input(self, raw):
        sets = {
            Prefix(0x0A000000 + n * 256, 24): lasthops
            for n, lasthops in raw.items()
        }
        blocks = aggregate_identical(sets)
        covered = [p for b in blocks for p in b.slash24s]
        assert sorted(covered) == sorted(sets)
        for block in blocks:
            for slash24 in block.slash24s:
                assert sets[slash24] == block.lasthop_set


class TestRoundRobinProperties:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=255).map(
                lambda o: 0x0A000000 + o
            ),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        st.integers(min_value=0, max_value=1 << 30),
    )
    def test_permutation(self, addrs, seed):
        order = list(round_robin_order(addrs, random.Random(seed)))
        assert sorted(order) == sorted(addrs)


class TestStoppingRuleProperties:
    @given(
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=0.5, max_value=0.999),
    )
    def test_monotone_in_both_arguments(self, observed, confidence):
        base = probes_required(observed, confidence)
        assert probes_required(observed + 1, confidence) > base
        assert base > observed  # always probes beyond what was seen


#: Random /24s: network → last octets of its active addresses (repeats
#: allowed, as overlapping allocation spans can give).
slash24_octets = st.dictionaries(
    st.integers(min_value=0, max_value=(1 << 24) - 1).map(lambda n: n << 8),
    st.lists(st.integers(min_value=0, max_value=255), max_size=24),
    max_size=12,
)


class TestColumnarSnapshotProperties:
    @settings(max_examples=80)
    @given(slash24_octets, st.integers(min_value=0, max_value=8))
    def test_eligibility_matches_per_slash24_rule(self, raw, min_active):
        lists = {
            network: [network | octet for octet in octets]
            for network, octets in raw.items()
        }
        snapshot = ActivitySnapshot.from_lists(0, lists)
        expected = [
            Prefix(network, 24)
            for network, active in sorted(lists.items())
            if len(active) >= min_active
            and len({addr & 0xC0 for addr in active}) == 4
        ]
        assert snapshot.eligible_slash24s(min_active) == expected

    @settings(max_examples=80)
    @given(slash24_octets)
    def test_slice_fingerprint_equals_list_fingerprint(self, raw):
        snapshot = ActivitySnapshot.from_lists(
            0,
            {
                network: [network | octet for octet in octets]
                for network, octets in raw.items()
            },
        )
        for network in snapshot.networks.tolist():
            slash24 = Prefix(network, 24)
            active = snapshot.active_in(slash24)
            packed = struct.pack(f"<{len(active)}I", *active)
            expected = int.from_bytes(
                hashlib.blake2b(packed, digest_size=8).digest(), "little"
            )
            assert active_list_fingerprint(active) == expected
            assert (
                active_list_fingerprint(snapshot.addresses_in(slash24))
                == expected
            )
