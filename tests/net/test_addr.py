"""Tests for repro.net.addr."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import addr

addresses = st.integers(min_value=0, max_value=addr.MAX_ADDRESS)


class TestParseFormat:
    def test_parse_known_value(self):
        assert addr.parse("192.0.2.1") == 0xC0000201

    def test_format_known_value(self):
        assert addr.format_address(0xC0000201) == "192.0.2.1"

    def test_parse_zero(self):
        assert addr.parse("0.0.0.0") == 0

    def test_parse_max(self):
        assert addr.parse("255.255.255.255") == addr.MAX_ADDRESS

    @pytest.mark.parametrize(
        "text",
        ["1.2.3", "1.2.3.4.5", "1.2.3.256", "a.b.c.d", "1..2.3", ""],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(addr.AddressError):
            addr.parse(text)

    @given(addresses)
    def test_roundtrip(self, value):
        assert addr.parse(addr.format_address(value)) == value

    def test_format_rejects_out_of_range(self):
        with pytest.raises(addr.AddressError):
            addr.format_address(1 << 32)
        with pytest.raises(addr.AddressError):
            addr.format_address(-1)


class TestOctets:
    def test_octets(self):
        assert addr.octets(addr.parse("10.20.30.40")) == (10, 20, 30, 40)


class TestMasks:
    def test_netmask_24(self):
        assert addr.format_address(addr.netmask(24)) == "255.255.255.0"

    def test_netmask_0(self):
        assert addr.netmask(0) == 0

    def test_netmask_32(self):
        assert addr.netmask(32) == addr.MAX_ADDRESS

    def test_hostmask_complements_netmask(self):
        for length in range(33):
            assert addr.netmask(length) ^ addr.hostmask(length) == addr.MAX_ADDRESS

    def test_netmask_rejects_bad_length(self):
        with pytest.raises(addr.AddressError):
            addr.netmask(33)

    def test_network_of(self):
        assert addr.network_of(addr.parse("10.1.2.3"), 8) == addr.parse("10.0.0.0")


class TestBlockHelpers:
    def test_slash24_of(self):
        assert addr.slash24_of(addr.parse("10.1.2.3")) == addr.parse("10.1.2.0")

    @given(addresses)
    def test_slash24_contains_address(self, value):
        network = addr.slash24_of(value)
        assert network <= value <= network + 255


class TestCommonPrefix:
    def test_identical_addresses(self):
        assert addr.common_prefix_length(5, 5) == 32

    def test_adjacent_slash24s(self):
        a = addr.parse("10.0.0.0")
        b = addr.parse("10.0.1.0")
        assert addr.common_prefix_length(a, b) == 23

    def test_disjoint_top_bit(self):
        assert addr.common_prefix_length(0, 1 << 31) == 0

    @given(addresses, addresses)
    def test_symmetry(self, a, b):
        assert addr.common_prefix_length(a, b) == addr.common_prefix_length(b, a)

    @given(addresses, addresses)
    def test_agreement_on_prefix(self, a, b):
        length = addr.common_prefix_length(a, b)
        if length:
            shift = 32 - length
            assert a >> shift == b >> shift
        if length < 32:
            shift = 32 - length - 1
            assert (a >> shift) != (b >> shift)


class TestSummarize:
    def test_bounds(self):
        assert addr.summarize_bounds([5, 1, 9, 3]) == (1, 9)

    def test_single(self):
        assert addr.summarize_bounds([7]) == (7, 7)

    def test_empty_rejected(self):
        with pytest.raises(addr.AddressError):
            addr.summarize_bounds([])
