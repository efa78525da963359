"""FIBs and forwarding.

Each router owns a :class:`Fib`: a table of route entries resolved with
longest-prefix match. The :class:`Forwarder` holds them all, with the
vantage gateway every packet leaves from; a packet walks from there
until it reaches the router that owns a host route for its destination
(its last-hop router).

The distinction at the heart of Hobbit lives here: a *route entry*
(:class:`RouteEntry`) is installed for a destination network, so two
destinations covered by different entries are topologically distinct;
a *load-balanced* entry has one entry but several next hops, so the
divergence it causes between destinations is not a topological
difference (Figure 1 of the paper).

The compiled engine (:mod:`repro.core.fastengine`) walks the forwarding
plane into route templates, reading each FIB frozen into flat
sorted-interval arrays (one ``bisect`` per hop instead of a 32-level
trie walk). The parity suites compare it bit for bit against the
trie-walking resolver in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.prefix import Prefix
from ..net.trie import leaf_intervals_from_items
from .loadbalance import NextHopSelector
from .topology import Router, Topology


@dataclass
class RouteEntry:
    """A FIB entry: traffic to ``prefix`` goes to ``selector``'s choice.

    ``delivers`` marks the entry as a *directly connected* network: the
    router owning it is the last-hop router for addresses it covers.
    """

    prefix: Prefix
    selector: Optional[NextHopSelector] = None
    delivers: bool = False

    def __post_init__(self) -> None:
        if self.delivers == (self.selector is not None):
            raise ValueError(
                "a route entry either delivers locally or has a selector"
            )


class Fib:
    """Longest-prefix-match forwarding table for one router.

    Stored as a flat prefix → entry dict. A paper-scale scenario holds
    tens of thousands of FIBs with hundreds of thousands of entries
    total; per-bit trie nodes (~24 per entry) dominated build time and
    memory, while the compiled forwarder only ever needs the sorted
    interval projection (:meth:`leaf_intervals`).
    """

    def __init__(self) -> None:
        self._entries: Dict[Prefix, RouteEntry] = {}
        #: Bumped on every install so compiled copies can detect staleness.
        self.revision = 0

    def install(self, entry: RouteEntry) -> None:
        """Install (or replace) the entry for its prefix."""
        self._entries[entry.prefix] = entry
        self.revision += 1

    def entry_for(self, prefix: Prefix) -> Optional[RouteEntry]:
        """The entry installed for exactly ``prefix`` (no LPM)."""
        return self._entries.get(prefix)

    def leaf_intervals(self) -> List[Tuple[int, Optional[RouteEntry]]]:
        """The table flattened into sorted LPM breakpoints (see
        :func:`repro.net.trie.leaf_intervals_from_items`)."""
        return leaf_intervals_from_items(sorted(self._entries.items()))

    def entries(self) -> List[RouteEntry]:
        return [entry for _, entry in sorted(self._entries.items())]

    def __len__(self) -> int:
        return len(self._entries)


class _CompiledFib:
    """A FIB frozen into flat sorted-interval arrays: ``values[i]`` is
    the entry (or None) matching every address from ``starts[i]`` up to
    the next start."""

    __slots__ = ("starts", "values", "revision")

    def __init__(self, fib: Fib) -> None:
        self.revision = fib.revision
        points = fib.leaf_intervals()
        self.starts: List[int] = [start for start, _ in points]
        self.values: List[Optional[RouteEntry]] = [
            entry for _, entry in points
        ]


class Forwarder:
    """The forwarding plane: every router's FIB, the vantage gateway
    packets leave from, and each FIB's compiled form, built lazily and
    dropped wholesale when any FIB changes.
    """

    def __init__(self, topology: Topology, fibs: Dict[int, Fib], source_router: Router) -> None:
        self.topology = topology
        self.fibs = fibs
        self.source_router = source_router
        self._reset_compiled_state()

    def _reset_compiled_state(self) -> None:
        # A new dict, not a cleared one: the compiled engine holds the
        # old one to tell that its route templates went stale.
        self._compiled: Dict[int, _CompiledFib] = {}

    def _compiled_fib(self, router_id: int, fib: Fib) -> _CompiledFib:
        cfib = self._compiled.get(router_id)
        if cfib is not None and cfib.revision == fib.revision:
            return cfib
        if cfib is not None:
            # A FIB changed after compilation: everything derived from
            # the old tables is stale. Drop the whole compiled plane; it
            # rebuilds lazily.
            self._reset_compiled_state()
        cfib = _CompiledFib(fib)
        self._compiled[router_id] = cfib
        return cfib
