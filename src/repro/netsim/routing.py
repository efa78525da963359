"""FIBs and forwarding.

Each router owns a :class:`Fib`: a table of route entries resolved with
longest-prefix match. Forwarding (:class:`Forwarder`) walks routers
from the vantage gateway until the packet reaches the router that owns a
host route for the destination (its last-hop router).

The distinction at the heart of Hobbit lives here: a *route entry*
(:class:`RouteEntry`) is installed for a destination network, so two
destinations covered by different entries are topologically distinct;
a *load-balanced* entry has one entry but several next hops, so the
divergence it causes between destinations is not a topological
difference (Figure 1 of the paper).

Resolution runs on a **compiled forwarding plane**: each FIB's trie is
frozen into flat sorted-interval arrays (one ``bisect`` per hop instead
of a 32-level trie walk), selector traits (per-packet, flow-invariant)
are precomputed per entry, and resolved paths are deduplicated by their
*route signature* — the chain of FIB entry ids the walk traversed — so
destinations sharing a route chain share one cached path tuple. The
parity suites compare it bit for bit against the trie-walking resolver
in ``tests/oracle.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.prefix import Prefix
from ..net.trie import leaf_intervals_from_items
from .loadbalance import (
    NextHopSelector,
    PerDestinationBalancer,
    SingleNextHop,
)
from .topology import Router, Topology

#: Forwarding gives up after this many hops (loop guard).
MAX_FORWARD_HOPS = 64


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
        :meth:`repro.net.trie.PrefixTrie.leaf_intervals`)."""
        return leaf_intervals_from_items(sorted(self._entries.items()))

    def entries(self) -> List[RouteEntry]:
        return [entry for _, entry in sorted(self._entries.items())]

    def __len__(self) -> int:
        return len(self._entries)


class _CompiledEntry:
    """One FIB entry with its selector traits resolved ahead of time."""

    __slots__ = ("entry_id", "delivers", "selector", "per_packet",
                 "flow_invariant")

    def __init__(self, entry_id: int, entry: RouteEntry) -> None:
        self.entry_id = entry_id
        self.delivers = entry.delivers
        self.selector = entry.selector
        # Same duck-typed detection the per-hop string check used, paid
        # once per entry instead of once per hop.
        self.per_packet = (
            entry.selector is not None
            and entry.selector.__class__.__name__ == "PerPacketBalancer"
        )
        # Whitelist of selector types whose choice ignores the flow id;
        # unknown selector classes are conservatively flow-sensitive.
        self.flow_invariant = entry.delivers or (
            not self.per_packet
            and isinstance(
                entry.selector, (SingleNextHop, PerDestinationBalancer)
            )
        )


class _CompiledFib:
    """A FIB frozen into flat sorted-interval arrays."""

    __slots__ = ("starts", "values", "covers24", "revision")

    def __init__(self, fib: Fib, next_entry_id) -> None:
        self.revision = fib.revision
        by_entry: Dict[int, _CompiledEntry] = {}
        self.starts: List[int] = []
        self.values: List[Optional[_CompiledEntry]] = []
        for start, entry in fib.leaf_intervals():
            if entry is None:
                compiled = None
            else:
                compiled = by_entry.get(id(entry))
                if compiled is None:
                    compiled = _CompiledEntry(next_entry_id(), entry)
                    by_entry[id(entry)] = compiled
            self.starts.append(start)
            self.values.append(compiled)
        # An interval whose endpoints are both /24-aligned covers every
        # /24 it intersects entirely, so its match can be memoised at
        # /24 granularity (split /24s stay on the bisect path).
        self.covers24 = [
            (start & 0xFF) == 0 and (end & 0xFF) == 0
            for start, end in zip(
                self.starts, self.starts[1:] + [1 << 32]
            )
        ]


class ForwardingError(RuntimeError):
    """Raised when a packet cannot be forwarded (no route / loop)."""


class Forwarder:
    """Walks packets through the router graph.

    Resolution is deterministic for per-flow and per-destination load
    balancing, so resolved paths are cached: under ``(src, dst)`` when
    no selector on the path reads the flow id, under
    ``(src, dst, flow_id)`` otherwise (per-packet balancers disable
    caching along the affected path). Cache entries point at
    signature-deduplicated path tuples, so every destination behind one
    route chain shares a single tuple.
    """

    def __init__(self, topology: Topology, fibs: Dict[int, Fib], source_router: Router) -> None:
        self.topology = topology
        self.fibs = fibs
        self.source_router = source_router
        self.cache_enabled = True
        self.cache_hits = 0
        self.cache_misses = 0
        self._reset_compiled_state()

    def _reset_compiled_state(self) -> None:
        self._compiled: Dict[int, _CompiledFib] = {}
        self._next_entry_id = 0
        #: (router_id, dst >> 8) → compiled entry, for whole-/24 intervals.
        self._entry_memo: Dict[Tuple[int, int], _CompiledEntry] = {}
        #: Route signature (chain of entry ids) → the shared path tuple.
        self._paths_by_sig: Dict[Tuple[int, ...], Tuple[Router, ...]] = {}
        self._flow_cache: Dict[Tuple[int, int, int], Tuple[Router, ...]] = {}
        self._invariant_cache: Dict[Tuple[int, int], Tuple[Router, ...]] = {}

    # Workers receive pickled internets (parallel campaigns); compiled
    # state and caches rebuild lazily on first use, so ship none of it.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_compiled"] = {}
        state["_next_entry_id"] = 0
        state["_entry_memo"] = {}
        state["_paths_by_sig"] = {}
        state["_flow_cache"] = {}
        state["_invariant_cache"] = {}
        return state

    def precompile(self) -> None:
        """Eagerly freeze every router's FIB (called after scenario
        build; resolution would otherwise compile each FIB lazily)."""
        for router_id, fib in self.fibs.items():
            self._compiled_fib(router_id, fib)

    def resolve_path(
        self, src: int, dst: int, flow_id: int, nonce: int = 0
    ) -> Tuple[Router, ...]:
        """Router sequence from the vantage gateway to the last-hop
        router for ``dst`` (inclusive of both).

        Raises :class:`ForwardingError` if no route exists or a loop is
        detected.
        """
        if self.cache_enabled:
            cached = self._invariant_cache.get((src, dst))
            if cached is None:
                cached = self._flow_cache.get((src, dst, flow_id))
            if cached is not None:
                self.cache_hits += 1
                return cached
        self.cache_misses += 1
        memo = self._entry_memo
        by_id = self.topology.by_id
        key24 = dst >> 8
        path: List[Router] = []
        sig: List[int] = []
        cacheable = True
        flow_sensitive = False
        router = self.source_router
        for _ in range(MAX_FORWARD_HOPS):
            path.append(router)
            memo_key = (router.router_id, key24)
            entry = memo.get(memo_key)
            if entry is None:
                entry = self._lookup_compiled(router, dst, memo_key)
                if entry is None:
                    raise ForwardingError(
                        f"no route for destination at router {router}"
                    )
            sig.append(entry.entry_id)
            if entry.delivers:
                sig_key = tuple(sig)
                shared = self._paths_by_sig.get(sig_key)
                if shared is None:
                    shared = tuple(path)
                    self._paths_by_sig[sig_key] = shared
                if self.cache_enabled and cacheable:
                    if flow_sensitive:
                        self._flow_cache[(src, dst, flow_id)] = shared
                    else:
                        self._invariant_cache[(src, dst)] = shared
                return shared
            if entry.per_packet:
                cacheable = False
            elif not entry.flow_invariant:
                flow_sensitive = True
            router = by_id(entry.selector.select(src, dst, flow_id, nonce))
        raise ForwardingError(f"forwarding loop towards {dst}")

    def _lookup_compiled(
        self, router: Router, dst: int, memo_key: Tuple[int, int]
    ) -> Optional[_CompiledEntry]:
        fib = self.fibs.get(router.router_id)
        if fib is None:
            raise ForwardingError(f"router {router} has no FIB")
        cfib = self._compiled_fib(router.router_id, fib)
        index = bisect_right(cfib.starts, dst) - 1
        entry = cfib.values[index]
        if entry is not None and cfib.covers24[index]:
            self._entry_memo[memo_key] = entry
        return entry

    def _compiled_fib(self, router_id: int, fib: Fib) -> _CompiledFib:
        cfib = self._compiled.get(router_id)
        if cfib is not None and cfib.revision == fib.revision:
            return cfib
        if cfib is not None:
            # A FIB changed after compilation: entry ids, memos and
            # cached paths derived from the old tables are all stale.
            # Drop the whole compiled plane; it rebuilds lazily.
            self._reset_compiled_state()

        def next_entry_id() -> int:
            value = self._next_entry_id
            self._next_entry_id += 1
            return value

        cfib = _CompiledFib(fib, next_entry_id)
        self._compiled[router_id] = cfib
        return cfib

    def clear_cache(self) -> None:
        self._flow_cache.clear()
        self._invariant_cache.clear()
        self._paths_by_sig.clear()

    @property
    def cache_size(self) -> int:
        return len(self._flow_cache) + len(self._invariant_cache)

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss counters plus cache shape, for bench attribution."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "entries": self.cache_size,
            "shared_paths": len(self._paths_by_sig),
            "entry_memo": len(self._entry_memo),
        }
