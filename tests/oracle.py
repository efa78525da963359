"""Test oracle: the plain measurement path the production code replaced.

Production measures on one path: the compiled forwarding plane
(:mod:`repro.netsim.routing`), batched probing
(:meth:`repro.netsim.SimulatedInternet.send_probe_batch`) and the
compiled campaign engine (:mod:`repro.core.fastengine`), which hands a
/24 it cannot replay to the object :class:`repro.probing.Prober`. Each
of those claims bit-identity with a straightforward implementation; the
parity suites compare against the implementations kept here:

* ``forwarding`` — :func:`resolve_path`, which walks every FIB with a
  longest-prefix match (:func:`fib_lookup`) per hop and caches paths
  per ``(src, dst, flow_id)``;
* ``allocation`` — :func:`allocation_of`, which asks the allocation map
  directly instead of the simulator's compiled interval index;
* ``serial`` — ``MIN_VECTOR_BATCH`` raised out of reach, so every
  ``send_probe_batch`` loops over ``send_probe``;
* ``campaign`` — :func:`no_fast_engine` in place of ``fast_engine_for``,
  so every /24 is measured by ``measure_slash24`` through a ``Prober``.

:func:`install` patches any subset of the four through a pytest
``monkeypatch``. The patches replace class attributes and module
globals, so the worker processes a parallel campaign forks inherit
them; every simulator in the process is affected until the patch is
undone.
"""

from __future__ import annotations

import sys
import weakref
from typing import Iterable, Optional, Tuple

import repro.core.pipeline as pipeline_module
import repro.netsim.internet as internet_module
from repro.net.trie import PrefixTrie
from repro.netsim.allocation import Allocation
from repro.netsim.internet import SimulatedInternet
from repro.netsim.routing import (
    MAX_FORWARD_HOPS,
    Fib,
    Forwarder,
    ForwardingError,
    RouteEntry,
)
from repro.netsim.topology import Router

#: The probe-level parts. A reference campaign also installs
#: ``campaign``, because the compiled campaign engine reads the compiled
#: FIBs directly instead of calling ``resolve_path``.
PROBING = ("forwarding", "allocation", "serial")
#: Every /24 of a campaign on the object Prober, over production probing.
PROBER_CAMPAIGN = ("campaign",)
PARTS = PROBING + PROBER_CAMPAIGN

# FIB → (revision, trie of its entries), rebuilt when the FIB changes.
_TRIES: "weakref.WeakKeyDictionary[Fib, Tuple[int, PrefixTrie]]" = (
    weakref.WeakKeyDictionary()
)


def fib_lookup(fib: Fib, dst: int) -> Optional[RouteEntry]:
    """Longest-prefix match for a destination address, by descending a
    radix trie of the FIB's entries."""
    memo = _TRIES.get(fib)
    if memo is None or memo[0] != fib.revision:
        trie: PrefixTrie[RouteEntry] = PrefixTrie()
        for entry in fib.entries():
            trie.insert(entry.prefix, entry)
        memo = (fib.revision, trie)
        _TRIES[fib] = memo
    match = memo[1].lookup(dst)
    return match[1] if match else None


def resolve_path(
    forwarder: Forwarder, src: int, dst: int, flow_id: int, nonce: int = 0
) -> Tuple[Router, ...]:
    """The trie-walking form of :meth:`Forwarder.resolve_path`.

    Paths are cached per ``(src, dst, flow_id)`` in the forwarder's
    flow cache, so ``clear_cache`` and a routing shift drop them like
    the compiled plane's; a path through a per-packet balancer is never
    cached.
    """
    cache_key = (src, dst, flow_id)
    if forwarder.cache_enabled:
        cached = forwarder._flow_cache.get(cache_key)
        if cached is not None:
            forwarder.cache_hits += 1
            return cached
    forwarder.cache_misses += 1
    path = []
    cacheable = True
    router = forwarder.source_router
    for _ in range(MAX_FORWARD_HOPS):
        path.append(router)
        fib = forwarder.fibs.get(router.router_id)
        if fib is None:
            raise ForwardingError(f"router {router} has no FIB")
        entry = fib_lookup(fib, dst)
        if entry is None:
            raise ForwardingError(
                f"no route for destination at router {router}"
            )
        if entry.delivers:
            result = tuple(path)
            if forwarder.cache_enabled and cacheable:
                forwarder._flow_cache[cache_key] = result
            return result
        if entry.selector.__class__.__name__ == "PerPacketBalancer":
            cacheable = False
        next_id = entry.selector.select(src, dst, flow_id, nonce)
        router = forwarder.topology.by_id(next_id)
    raise ForwardingError(f"forwarding loop towards {dst}")


def allocation_of(
    internet: SimulatedInternet, addr: int
) -> Optional[Allocation]:
    """Most-specific allocation for an address, from the allocation map
    itself rather than the simulator's compiled index."""
    return internet.allocations.lookup(addr)


def no_fast_engine(internet, policy, max_probes) -> None:
    """``fast_engine_for`` that declines every /24, leaving each to the
    object Prober."""
    return None


def install(monkeypatch, parts: Iterable[str] = PARTS) -> None:
    """Patch the named parts (see the module docstring) into the
    production path for the rest of ``monkeypatch``'s lifetime."""
    parts = tuple(parts)
    unknown = set(parts) - set(PARTS)
    if unknown:
        raise ValueError(f"unknown oracle parts {sorted(unknown)}")
    if "forwarding" in parts:
        monkeypatch.setattr(Forwarder, "resolve_path", resolve_path)
    if "allocation" in parts:
        monkeypatch.setattr(
            SimulatedInternet, "_allocation_of", allocation_of
        )
    if "serial" in parts:
        monkeypatch.setattr(
            internet_module, "MIN_VECTOR_BATCH", sys.maxsize
        )
    if "campaign" in parts:
        monkeypatch.setattr(
            pipeline_module, "fast_engine_for", no_fast_engine
        )
