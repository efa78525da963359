"""Binary radix trie over IPv4 prefixes.

:class:`PrefixTrie` is a longest-prefix-match map
(:meth:`PrefixTrie.lookup`); the simulator's geolocation database
(:mod:`repro.netsim.geodb`) is built on one, and the test oracle uses
it as the reference LPM for forwarding. Routing tables and the
allocation map do not build tries: they flatten their sorted entries
with :func:`leaf_intervals_from_items` and look addresses up by
bisection.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from .addr import ADDRESS_BITS, check_address
from .prefix import Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Map from :class:`Prefix` to values with longest-prefix-match lookup.

    >>> trie = PrefixTrie()
    >>> trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
    >>> trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
    >>> trie.lookup(Prefix.parse("10.1.2.3").network)
    (Prefix(network=167837696, length=16), 'fine')
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self.get(prefix) is not _MISSING

    # -- mutation -------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value for an exact prefix."""
        node = self._root
        for bit in _bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix, default=None):
        """Value stored at an exact prefix, else ``default``."""
        node = self._root
        for bit in _bits(prefix):
            node = node.children[bit]  # type: ignore[assignment]
            if node is None:
                return default
        return node.value if node.has_value else default

    def lookup(self, addr: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for an address; None if nothing covers it."""
        check_address(addr)
        node = self._root
        best: Optional[Tuple[Prefix, V]] = None
        depth = 0
        if node.has_value:
            best = (Prefix(0, 0), node.value)  # type: ignore[arg-type]
        while depth < ADDRESS_BITS:
            bit = (addr >> (ADDRESS_BITS - 1 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            depth += 1
            if node.has_value:
                best = (Prefix.of(addr, depth), node.value)
        return best

    def covers(self, addr: int) -> bool:
        """True if some stored prefix contains the address."""
        return self.lookup(addr) is not None

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All (prefix, value) pairs in network order."""
        yield from self._walk(self._root, 0, 0)

    def subtree(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """All stored (prefix, value) pairs at or below ``prefix``."""
        node = self._root
        for bit in _bits(prefix):
            node = node.children[bit]  # type: ignore[assignment]
            if node is None:
                return
        yield from self._walk(node, prefix.network, prefix.length)

    def ancestors(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Stored prefixes strictly containing ``prefix``, shortest first."""
        node = self._root
        depth = 0
        if node.has_value and prefix.length > 0:
            yield Prefix(0, 0), node.value  # type: ignore[misc]
        for bit in _bits(prefix):
            node = node.children[bit]  # type: ignore[assignment]
            if node is None:
                return
            depth += 1
            if node.has_value and depth < prefix.length:
                yield Prefix.of(prefix.network, depth), node.value

    def leaf_intervals(self) -> List[Tuple[int, Optional[V]]]:
        """Flatten longest-prefix matching into sorted breakpoints.

        Returns ``[(start, value), ...]`` with ``starts`` strictly
        increasing from 0: every address ``a`` matches the value of the
        last breakpoint with ``start <= a`` (None where no prefix
        covers). This is what lets a FIB trade the per-address trie walk
        for one ``bisect``/``searchsorted`` over a frozen table.
        """
        return leaf_intervals_from_items(self.items())

    def _walk(
        self, node: _Node[V], network: int, depth: int
    ) -> Iterator[Tuple[Prefix, V]]:
        if node.has_value:
            yield Prefix(network, depth), node.value  # type: ignore[misc]
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                child_net = network | (bit << (ADDRESS_BITS - 1 - depth))
                yield from self._walk(child, child_net, depth + 1)


def _bits(prefix: Prefix) -> Iterator[int]:
    """Most-significant-first bits of a prefix's network portion."""
    for depth in range(prefix.length):
        yield (prefix.network >> (ADDRESS_BITS - 1 - depth)) & 1


def leaf_intervals_from_items(
    items: "Iterator[Tuple[Prefix, V]] | List[Tuple[Prefix, V]]",
) -> List[Tuple[int, Optional[V]]]:
    """:meth:`PrefixTrie.leaf_intervals` over any (prefix, value) stream
    already in trie order — address order, ancestors before descendants,
    i.e. sorted by ``(network, length)``.

    Flat tables (:class:`repro.netsim.routing.Fib`,
    :class:`repro.netsim.allocation.AllocationMap`) feed their sorted
    entry lists straight through this sweep, skipping the per-bit trie
    nodes entirely — at paper scale those nodes dominated build time and
    memory.
    """
    points: List[Tuple[int, Optional[V]]] = [(0, None)]
    # Pending (end_exclusive, value-to-restore) for every prefix whose
    # interval is still open, innermost last: a child carves a hole out
    # of the breakpoint its parent just emitted and the parent's value
    # resumes at the child's end.
    stack: List[Tuple[int, Optional[V]]] = []

    def emit(position: int, value: Optional[V]) -> None:
        if points[-1][0] == position:
            if len(points) > 1 and points[-2][1] is value:
                points.pop()
            else:
                points[-1] = (position, value)
        elif points[-1][1] is not value:
            points.append((position, value))

    for prefix, value in items:
        first = prefix.network
        while stack and stack[-1][0] <= first:
            end, restore = stack.pop()
            emit(end, restore)
        stack.append(
            (first + (1 << (ADDRESS_BITS - prefix.length)), points[-1][1])
        )
        emit(first, value)
    while stack:
        end, restore = stack.pop()
        emit(end, restore)
    return points
