"""Tests for repro.net.prefix."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    AddressError,
    AddressRange,
    Prefix,
    enclosing_prefix,
    parse,
    to_prefixes,
)
from tests.oracle import hierarchical_with, range_contains

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    network = draw(addresses) & (((1 << 32) - 1) << (32 - length)) & ((1 << 32) - 1)
    return Prefix(network & ((1 << 32) - 1), length)


class TestPrefixBasics:
    def test_parse(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.network == parse("10.0.0.0")
        assert p.length == 8

    def test_parse_bare_address_is_host(self):
        assert Prefix.parse("1.2.3.4").length == 32

    def test_str_roundtrip(self):
        assert str(Prefix.parse("192.0.2.0/24")) == "192.0.2.0/24"

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix(parse("10.0.0.1"), 24)

    def test_of_masks_host_bits(self):
        assert Prefix.of(parse("10.0.0.99"), 24) == Prefix.parse("10.0.0.0/24")

    def test_first_last_size(self):
        p = Prefix.parse("10.0.0.0/25")
        assert p.first == parse("10.0.0.0")
        assert p.last == parse("10.0.0.127")
        assert p.size == 128

    def test_iteration(self):
        p = Prefix.parse("10.0.0.0/30")
        assert list(p) == [p.first, p.first + 1, p.first + 2, p.first + 3]

    def test_ordering_is_by_network_then_length(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert sorted([c, b, a]) == [a, b, c]


class TestContainment:
    def test_contains_address(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.contains_address(parse("10.0.0.255"))
        assert not p.contains_address(parse("10.0.1.0"))

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/16")
        inner = Prefix.parse("10.0.5.0/24")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)

    def test_contains_self(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.contains_prefix(p)

    def test_in_operator(self):
        p = Prefix.parse("10.0.0.0/24")
        assert parse("10.0.0.7") in p
        assert Prefix.parse("10.0.0.0/25") in p

    @given(prefixes(), prefixes())
    def test_overlap_means_nesting(self, a, b):
        # CIDR prefixes can only overlap by nesting.
        if a.first <= b.last and b.first <= a.last:
            assert a.contains_prefix(b) or b.contains_prefix(a)


class TestDerivation:
    def test_subnets(self):
        p = Prefix.parse("10.0.0.0/24")
        halves = list(p.subnets())
        assert halves == [
            Prefix.parse("10.0.0.0/25"), Prefix.parse("10.0.0.128/25"),
        ]

    def test_slash24s(self):
        p = Prefix.parse("10.0.0.0/22")
        assert len(list(p.slash24s())) == 4

    def test_slash24s_rejects_narrower(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/25").slash24s())

    @given(prefixes())
    def test_subnets_partition(self, p):
        if p.length >= 32:
            return
        subs = list(p.subnets())
        assert sum(s.size for s in subs) == p.size
        assert subs[0].first == p.first
        assert subs[-1].last == p.last


class TestLcp:
    def test_enclosing_prefix(self):
        block = enclosing_prefix([parse("10.0.0.2"), parse("10.0.0.125")])
        assert block == Prefix.parse("10.0.0.0/25")

    def test_enclosing_prefix_single_address(self):
        assert enclosing_prefix([parse("1.2.3.4")]).length == 32


class TestAddressRange:
    """Ranges, and the pairwise hierarchy relation of Section 2.3 that
    ``tests/oracle.py:hierarchical_with`` defines over them."""

    def test_rejects_inverted(self):
        with pytest.raises(AddressError):
            AddressRange(5, 1)

    def test_contains(self):
        assert range_contains(AddressRange(0, 10), AddressRange(2, 5))
        assert not range_contains(AddressRange(2, 5), AddressRange(0, 10))

    def test_disjoint(self):
        assert AddressRange(0, 4).disjoint(AddressRange(5, 9))
        assert not AddressRange(0, 5).disjoint(AddressRange(5, 9))

    def test_hierarchical_disjoint(self):
        assert hierarchical_with(AddressRange(0, 4), AddressRange(5, 9))

    def test_hierarchical_nested(self):
        assert hierarchical_with(AddressRange(0, 9), AddressRange(3, 5))

    def test_non_hierarchical_partial_overlap(self):
        assert not hierarchical_with(AddressRange(0, 6), AddressRange(3, 9))

    @given(
        st.tuples(addresses, addresses), st.tuples(addresses, addresses)
    )
    def test_hierarchical_symmetry(self, pair_a, pair_b):
        a = AddressRange(min(pair_a), max(pair_a))
        b = AddressRange(min(pair_b), max(pair_b))
        assert hierarchical_with(a, b) == hierarchical_with(b, a)


class TestToPrefixes:
    def test_aligned_block(self):
        result = to_prefixes(parse("10.0.0.0"), parse("10.0.0.127"))
        assert result == [Prefix.parse("10.0.0.0/25")]

    def test_unaligned_range(self):
        result = to_prefixes(parse("10.0.0.64"), parse("10.0.0.191"))
        assert [str(p) for p in result] == ["10.0.0.64/26", "10.0.0.128/26"]

    def test_single_address(self):
        result = to_prefixes(7, 7)
        assert result == [Prefix(7, 32)]

    @given(addresses, addresses)
    def test_covers_exactly(self, a, b):
        first, last = min(a, b), max(a, b)
        # Bound the enumeration cost: clip to 4096 addresses.
        last = min(last, first + 4095)
        result = to_prefixes(first, last)
        # Contiguous, exact cover.
        cursor = first
        for p in result:
            assert p.first == cursor
            cursor = p.last + 1
        assert cursor == last + 1
