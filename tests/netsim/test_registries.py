"""Tests for the out-of-band registries: geo database, WHOIS, rDNS and
ground truth."""

import re

import pytest

from repro.net import AddressError, Prefix
from repro.netsim.geodb import GeoDatabase
from repro.netsim.orgs import Organization, OrgType
from repro.netsim.rdns import (
    SCHEME_PATTERN_COUNTS,
    rdns_name,
    router_rdns_name,
)
from tests.oracle import PrefixTrie


class TestGeoDatabase:
    def test_lookup_returns_org(self, shared_internet):
        slash24 = shared_internet.universe_slash24s[0]
        record = shared_internet.geodb.lookup(slash24.network)
        assert record is not None
        assert record.asn in {65001, 65002, 65003}

    def test_lookup_unallocated(self, shared_internet):
        assert shared_internet.geodb.lookup(0xC6000001) is None

    def test_asn_histogram(self, shared_internet):
        slash24s = shared_internet.universe_slash24s[:50]
        geodb = shared_internet.geodb
        assert all(geodb.asn_of(p.network) is not None for p in slash24s)

    def test_lookup_refuses_address_outside_ipv4(self, shared_internet):
        for addr in (-1, 1 << 32):
            with pytest.raises(AddressError):
                shared_internet.geodb.lookup(addr)

    def test_lookup_matches_reference_trie(self, shared_internet):
        """The sorted-breakpoint lookup against a per-bit trie walk over
        the same records, at every record's edges and around them, on a
        database of nested prefixes (the scenario's spans are disjoint,
        so its own records never nest); and each record of the
        scenario's database answers at both its edges."""
        nested_prefixes = [Prefix.parse(text) for text in (
            "0.0.0.0/1", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
            "10.1.2.128/25", "10.1.2.255/32", "10.2.0.0/15",
            "192.0.2.0/24",
        )]
        nested = GeoDatabase()
        for index, prefix in enumerate(nested_prefixes):
            nested.add_organization_prefix(prefix, Organization(
                org_id=index, asn=65100 + index, name=f"org{index}",
                country="ZZ", city="c", org_type=OrgType.HOSTING,
            ))
        trie = PrefixTrie()
        for prefix in nested_prefixes:
            trie.insert(prefix, nested.lookup(prefix.network))
        probes = {0, (1 << 32) - 1}
        for prefix in nested_prefixes:
            for edge in (prefix.network, prefix.last):
                probes.update((edge - 1, edge, edge + 1))
        for addr in sorted(a for a in probes if 0 <= a < 1 << 32):
            match = trie.lookup(addr)
            assert nested.lookup(addr) is (match[1] if match else None)
            if match:
                assert match[1].prefix == match[0]
        geodb = shared_internet.geodb
        for slash24 in shared_internet.universe_slash24s:
            record = geodb.lookup(slash24.network)
            assert geodb.lookup(record.prefix.network) is record
            assert geodb.lookup(record.prefix.last) is record


class TestWhois:
    def test_split_slash24_has_multiple_records(self, shared_internet):
        truth = shared_internet.ground_truth
        splits = [
            p for p in shared_internet.universe_slash24s if truth.is_split(p)
        ]
        assert splits
        records = shared_internet.whois.query(splits[0])
        assert len(records) > 1
        assert shared_internet.whois.is_split(splits[0])

    def test_normal_slash24_single_record(self, shared_internet):
        truth = shared_internet.ground_truth
        normal = truth.homogeneous_slash24s()[0]
        records = shared_internet.whois.query(normal)
        assert len(records) == 1
        assert not shared_internet.whois.is_split(normal)

    def test_query_address(self, shared_internet):
        slash24 = shared_internet.universe_slash24s[0]
        host = Prefix(slash24.network + 5, 32)
        records = shared_internet.whois.query(host)
        assert len(records) == 1
        assert records[0].prefix.contains_prefix(host)


class TestRdnsSchemes:
    def test_pattern_counts_match_schemes(self):
        for scheme, count in SCHEME_PATTERN_COUNTS.items():
            if scheme == "none":
                assert count == 0
                continue
            for pattern_id in range(min(count, 3)):
                assert any(
                    rdns_name(scheme, pattern_id, addr) for addr in range(50)
                )

    def test_tele2_name_matches_paper_pattern(self):
        name = rdns_name("tele2-cellular", 0, 0x01020304)
        assert name is not None
        assert re.match(r"^m[0-9].+\.cust\.tele2", name)

    def test_names_deterministic(self):
        a = rdns_name("ec2", 1, 0x01020304)
        b = rdns_name("ec2", 1, 0x01020304)
        assert a == b

    def test_none_scheme(self):
        assert rdns_name("none", 0, 1) is None

    def test_coverage_below_one_leaves_gaps(self):
        names = [rdns_name("korea-customer", 0, a) for a in range(300)]
        missing = sum(1 for n in names if n is None)
        assert missing > 100  # coverage 0.3

    def test_router_names(self):
        assert router_rdns_name("core-1").endswith("core.transit.example.net")


class TestGroundTruth:
    def test_summary_consistent(self, shared_internet):
        truth = shared_internet.ground_truth
        summary = truth.summary()
        assert summary["universe_slash24s"] == (
            summary["homogeneous_slash24s"] + summary["split_slash24s"]
        )

    def test_split_composition(self, shared_internet):
        truth = shared_internet.ground_truth
        split = next(
            p for p in shared_internet.universe_slash24s if truth.is_split(p)
        )
        allocations = shared_internet.allocations.allocations_within(split)
        assert all(a.prefix.length > 24 for a in allocations)
        assert sum(a.prefix.size for a in allocations) == 256

    def test_true_blocks_partition_homogeneous(self, shared_internet):
        truth = shared_internet.ground_truth
        blocks = truth.true_blocks()
        covered = [p for block in blocks for p in block.slash24s]
        assert sorted(covered) == sorted(truth.homogeneous_slash24s())

    def test_lasthop_set_nonempty(self, shared_internet):
        truth = shared_internet.ground_truth
        for slash24 in truth.universe_slash24s[:20]:
            assert truth.lasthop_set_of(slash24)

    def test_big_true_block_exists(self, shared_internet):
        blocks = shared_internet.ground_truth.true_blocks()
        assert max(block.size for block in blocks) >= 20
