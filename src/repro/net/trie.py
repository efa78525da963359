"""Longest-prefix match as sorted breakpoints.

The routing tables (:class:`repro.netsim.routing.Fib`), the allocation
map and the geolocation database flatten their sorted prefixes with
:func:`leaf_intervals_from_items` and look addresses up by bisection;
at paper scale a per-bit trie's nodes dominated build time and memory.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, TypeVar

from .addr import ADDRESS_BITS
from .prefix import Prefix

V = TypeVar("V")


def leaf_intervals_from_items(
    items: "Iterator[Tuple[Prefix, V]] | List[Tuple[Prefix, V]]",
) -> List[Tuple[int, Optional[V]]]:
    """Flatten longest-prefix matching into sorted breakpoints.

    ``items`` are (prefix, value) pairs sorted by ``(network, length)``:
    address order, ancestors before descendants. Returns ``[(start,
    value), ...]`` with ``starts`` strictly increasing from 0: every
    address ``a`` matches the value of the last breakpoint with ``start
    <= a`` (None where no prefix covers it), so one ``bisect`` over a
    frozen table replaces a per-bit trie walk.
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
