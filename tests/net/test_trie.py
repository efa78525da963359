"""Tests for the reference radix trie, ``tests/oracle.py:PrefixTrie`` —
longest-prefix-match correctness of the LPM the production tables'
sorted breakpoints are checked against."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Prefix, parse
from tests.oracle import PrefixTrie

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


@st.composite
def prefix_strategy(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    network = draw(addresses)
    return Prefix.of(network, length)


class TestBasics:
    def test_insert_get(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "a")
        assert trie.lookup(p.network) == (p, "a")
        assert list(trie.items()) == [(p, "a")]

    def test_get_missing_returns_default(self):
        assert PrefixTrie().lookup(parse("10.0.0.0")) is None

    def test_insert_replaces(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "a")
        trie.insert(p, "b")
        assert trie.lookup(p.network) == (p, "b")
        assert list(trie.items()) == [(p, "b")]

    def test_contains(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, None)  # value None is still present
        assert trie.lookup(p.network) == (p, None)


class TestLookup:
    def test_longest_prefix_wins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
        match = trie.lookup(parse("10.1.2.3"))
        assert match is not None
        assert match[1] == "fine"
        assert match[0] == Prefix.parse("10.1.0.0/16")

    def test_falls_back_to_coarse(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
        assert trie.lookup(parse("10.2.0.1"))[1] == "coarse"

    def test_no_match(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        assert trie.lookup(parse("11.0.0.0")) is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix(0, 0), "default")
        assert trie.lookup(parse("200.1.2.3"))[1] == "default"

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.7/32"), "host")
        assert trie.lookup(parse("10.0.0.7"))[1] == "host"
        assert trie.lookup(parse("10.0.0.8")) is None

    @settings(max_examples=50)
    @given(st.lists(prefix_strategy(), min_size=1, max_size=24), addresses)
    def test_matches_reference_implementation(self, prefix_list, probe):
        trie = PrefixTrie()
        values = {}
        for index, prefix in enumerate(prefix_list):
            trie.insert(prefix, index)
            values[prefix] = index  # later insert wins, like the trie
        expected = None
        best_len = -1
        for prefix, value in values.items():
            if prefix.contains_address(probe) and prefix.length > best_len:
                best_len = prefix.length
                expected = (prefix, value)
        actual = trie.lookup(probe)
        if expected is None:
            assert actual is None
        else:
            assert actual == expected


class TestTraversal:
    def _populated(self):
        trie = PrefixTrie()
        for text in ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"]:
            trie.insert(Prefix.parse(text), text)
        return trie

    def test_items_in_network_order(self):
        trie = self._populated()
        networks = [p.network for p, _v in trie.items()]
        assert networks == sorted(networks)
        assert len(list(trie.items())) == 4
