"""Test oracle: the plain implementations the production code replaced.

Production measures on one path: the compiled forwarding plane
(:mod:`repro.netsim.routing`), batched probing
(:meth:`repro.netsim.SimulatedInternet.send_probe_batch`) and the
compiled campaign engine (:mod:`repro.core.fastengine`), which hands a
/24 it cannot replay to the object :class:`repro.probing.Prober`. It
aggregates on one path too: the similarity graph is a sparse incidence
Gram product (:mod:`repro.aggregation.similarity`). Each of those
claims bit-identity with a straightforward implementation; the parity
suites compare against the implementations kept here:

* ``forwarding`` — :func:`resolve_path`, which walks every FIB with a
  longest-prefix match (:func:`fib_lookup`) per hop and caches paths
  per ``(src, dst, flow_id)``;
* ``allocation`` — :func:`allocation_of`, which asks the allocation map
  directly instead of the simulator's compiled interval index;
* ``serial`` — ``MIN_VECTOR_BATCH`` raised out of reach, so every
  ``send_probe_batch`` loops over ``send_probe``;
* ``campaign`` — :func:`no_fast_engine` in place of ``fast_engine_for``,
  so every /24 is measured by ``measure_slash24`` through a ``Prober``;
* ``similarity`` — :func:`build_similarity_graph`, an inverted index
  plus per-pair dict accumulation, in place of the Gram product that
  :func:`repro.aggregation.run_aggregation` calls.

:func:`install` patches any subset of the five through a pytest
``monkeypatch``. The patches replace class attributes and module
globals, so the worker processes a parallel campaign forks inherit
them; every simulator in the process is affected until the patch is
undone.

:func:`weak_intra_cluster_fraction` is the whole-graph definition of the
Section 6.4 sweep score, which the sweep folds from per-component counts.

:func:`build_confidence_table` builds the Section 3.2 table one subset at
a time, deciding each with :func:`recognised` (regroup the subset by
last-hop router, then the scalar hierarchy test);
:meth:`repro.core.ConfidenceTable.build` must produce the same cells,
in the same order, from the same ``rng.sample`` stream.

:func:`scan` takes the ZMap snapshot one /24 and one allocation span
at a time (:func:`active_addresses_in_slash24`, one
``hosts_up_in_epoch_np`` call per span); :func:`repro.probing.scan`,
which sweeps chunks of /24s in one call each, must produce the same
dict in the same key order and leave the same ``events.renumber``
count. Like the table build, it is called directly, not installed.
"""

from __future__ import annotations

import random
import sys
import weakref
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro.aggregation.pipeline as aggregation_module
import repro.core.pipeline as pipeline_module
import repro.netsim.internet as internet_module
from repro.aggregation import AggregatedBlock, WeightedGraph
from repro.core.confidence import ConfidenceTable
from repro.core.grouping import (
    Observations,
    group_by_lasthop,
    identical_lasthop_sets,
    union_lasthops,
)
from repro.core.hierarchy import groups_hierarchical
from repro.net.trie import PrefixTrie
from repro.net.prefix import Prefix
from repro.netsim import hosts as hostmod
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
from repro.probing.zmap import ActivitySnapshot

#: The probe-level parts. A reference campaign also installs
#: ``campaign``, because the compiled campaign engine reads the compiled
#: FIBs directly instead of calling ``resolve_path``.
PROBING = ("forwarding", "allocation", "serial")
#: Every /24 of a campaign on the object Prober, over production probing.
PROBER_CAMPAIGN = ("campaign",)
#: The dict similarity builder in place of the Gram product.
SIMILARITY = ("similarity",)
PARTS = PROBING + PROBER_CAMPAIGN + SIMILARITY

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


def build_similarity_graph(
    blocks: Sequence[AggregatedBlock],
) -> WeightedGraph:
    """Vertices are block indices; edges connect blocks sharing at least
    one last-hop router, weighted by similarity.

    Uses an inverted index (router → blocks) so the cost is proportional
    to actual overlaps, not all block pairs.
    """
    graph = WeightedGraph(len(blocks))
    by_router: Dict[int, List[int]] = {}
    for index, block in enumerate(blocks):
        for router in block.lasthop_set:
            by_router.setdefault(router, []).append(index)

    intersections: Dict[Tuple[int, int], int] = {}
    for members in by_router.values():
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                key = (u, v) if u < v else (v, u)
                intersections[key] = intersections.get(key, 0) + 1

    for (u, v), shared in intersections.items():
        score = shared / max(
            len(blocks[u].lasthop_set), len(blocks[v].lasthop_set)
        )
        graph.add_edge(u, v, score)
    return graph


def weak_intra_cluster_fraction(
    graph: WeightedGraph, clusters: List[List[int]], median_weight: float
) -> float:
    """Fraction of intra-cluster edges with weight below the median of
    *all* edge weights.

    Vectorised over the graph's edge arrays; vertices in no cluster
    keep the fill label, so — as in the historical dict version — edges
    between two unclustered vertices count as intra-cluster.
    """
    u, v, w = graph.edge_arrays()
    if len(u) == 0:
        return 0.0
    labels = np.full(graph.vertex_count, -1, dtype=np.int64)
    for index, cluster in enumerate(clusters):
        labels[cluster] = index
    intra = labels[u] == labels[v]
    total = int(np.count_nonzero(intra))
    if total == 0:
        return 0.0
    weak = int(np.count_nonzero(w[intra] < median_weight))
    return weak / total


def recognised(observations: Observations) -> bool:
    """Would Hobbit call these observations homogeneous?

    Either a single common last-hop router, or a non-hierarchical
    grouping.
    """
    lasthops = union_lasthops(observations)
    if len(lasthops) <= 1 or identical_lasthop_sets(observations):
        return True
    groups = group_by_lasthop(observations)
    return not groups_hierarchical(groups)


def build_confidence_table(
    datasets: Mapping[object, Observations],
    seed: int = 0,
    samples_per_block: int = 64,
    max_probed: int = 50,
    min_trials: int = 50,
) -> ConfidenceTable:
    """:meth:`ConfidenceTable.build`, one sampled subset at a time."""
    table = ConfidenceTable(min_trials=min_trials)
    rng = random.Random(seed)
    for observations in datasets.values():
        addresses = sorted(observations)
        if len(addresses) < 4:
            continue
        full_cardinality = len(union_lasthops(observations))
        for probed in range(4, min(len(addresses), max_probed) + 1):
            for _ in range(samples_per_block):
                subset = rng.sample(addresses, probed)
                sub_obs = {a: observations[a] for a in subset}
                table.record(full_cardinality, probed, recognised(sub_obs))
    return table


def active_addresses_in_slash24(
    internet: SimulatedInternet, slash24: Prefix, epoch: int
) -> List[int]:
    """All addresses of one /24 up in ``epoch``, hashed one allocation
    span at a time."""
    result: List[int] = []
    ordered = True
    previous_last = -1
    for allocation in internet.allocations.allocations_within(slash24):
        first = max(allocation.prefix.first, slash24.first)
        last = min(allocation.prefix.last, slash24.last)
        if first <= previous_last:
            ordered = False
        previous_last = last
        addrs = np.arange(first, last + 1, dtype=np.uint64)
        key_addrs = (
            internet.events.availability_keys_np(allocation.pod, addrs, epoch)
            if internet.events is not None
            else addrs
        )
        mask = hostmod.hosts_up_in_epoch_np(
            internet._built.host_seed, key_addrs, epoch,
            allocation.pod.host_density, allocation.pod.host_stability,
            allocation.pod.sleep_probability,
        )
        result.extend(addrs[mask].tolist())
    # allocations_within walks the trie in address order, so the
    # concatenation is already sorted unless spans overlapped.
    return result if ordered else sorted(result)


def scan(
    internet: SimulatedInternet,
    epoch: Optional[int] = None,
    slash24s: Optional[Iterable[Prefix]] = None,
) -> ActivitySnapshot:
    """:func:`repro.probing.scan`, one /24 at a time."""
    if epoch is None:
        epoch = internet.config.snapshot_epoch
    if slash24s is None:
        slash24s = internet.universe_slash24s
    snapshot = ActivitySnapshot(epoch=epoch)
    for slash24 in slash24s:
        active = active_addresses_in_slash24(internet, slash24, epoch)
        if active:
            snapshot.active_by_slash24[slash24.network] = active
    return snapshot


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
    if "similarity" in parts:
        monkeypatch.setattr(
            aggregation_module,
            "build_similarity_graph_columnar",
            build_similarity_graph,
        )
