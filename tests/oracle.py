"""Test oracle: the plain implementations the production code replaced.

Production probes and measures on one path: the compiled engine
(:mod:`repro.core.fastengine`), which flattens the forwarding plane into
route templates and measures every /24 of every phase, traces every
path-dataset destination and sends every ping. It aggregates on one
path too: the similarity graph is a sparse incidence Gram product
(:mod:`repro.aggregation.similarity`). Each of those claims bit-identity
with a straightforward implementation; the parity suites compare
against the implementations kept here.

The probe-level reference is :func:`send_probe`: one probe at a time,
its path resolved by :func:`resolve_path`, which walks every FIB with a
longest-prefix match (:func:`fib_lookup`, down the radix trie
:class:`PrefixTrie`) per hop, and its reply an
:class:`IcmpReply` (or None on timeout) carrying the RTT.
:func:`probe` and :func:`echo_with_retries` send through it and count
each probe in a ``Prober``'s stats.

:func:`install` patches any subset of three parts through a pytest
``monkeypatch``:

* ``allocation`` — :func:`allocation_of`, which asks the allocation map
  directly instead of the simulator's compiled interval index;
* ``campaign`` — :func:`prober_engine_for` in place of
  ``fast_engine_for``, so every per-/24 measurement that goes through
  :func:`repro.core.pipeline.measure` is made by the object classifier,
  :func:`measure_slash24` over :func:`identify_lasthops`, through a
  ``Prober``: the campaign's /24s and those of the confidence dataset,
  strict-het re-probing, cluster-validation reprobing, the termination
  ablation and the vantage study; every destination that goes through
  :func:`repro.core.pipeline.enumerate_paths` (the path dataset, the
  Section 2 studies) is traced by the object MDA,
  :func:`enumerate_paths` over :func:`paris_traceroute`, through a
  ``Prober``; and every :func:`repro.core.pipeline.ping` (the Section
  5.2 RTT study) is the object :func:`ping`. That MDA is a path-level
  formulation: it traces with varied flow ids until the stopping rule
  says no further route is likely to exist, each trace keeping its
  flow id fixed (the Paris traceroute discipline);
* ``similarity`` — :func:`build_similarity_graph`, an inverted index
  plus per-pair dict accumulation, in place of the Gram product that
  :func:`repro.aggregation.run_aggregation` calls.

The patches replace class attributes and module globals, so the worker
processes a parallel campaign forks inherit them; every simulator in
the process is affected until the patch is undone.

The similarity graph, like every :class:`WeightedGraph`, is built from
edge arrays; :func:`graph_from_edges` collects (u, v, weight) triples
into them for the dict builder and the tests.

:func:`hierarchical_with` is the pairwise hierarchy relation of Section
2.3 (over :func:`range_contains` and ``AddressRange.disjoint``), which
:func:`repro.core.hierarchy.ranges_hierarchical` must equal over every
pair of ranges.

:func:`weak_intra_cluster_fraction` is the whole-graph definition of the
Section 6.4 sweep score, which the sweep folds from per-component counts.

:func:`mcl_from_stochastic` is MCL one run at a time, in plain scipy
operators, with the convergence test :func:`_has_converged` and the
union-find read-out :func:`_interpret`;
:func:`repro.aggregation.mcl.mcl_runs`, which iterates a whole batch of
runs as one block-diagonal matrix, must give every run the same
clusters, iteration count and converged flag, and count the same
``mcl.*`` metrics. :func:`subgraph` is the induced subgraph the sweep
once cut out per component.

:func:`build_confidence_table` builds the Section 3.2 table one subset at
a time, deciding each with :func:`recognised` (regroup the subset by
last-hop router, then the scalar hierarchy test);
:meth:`repro.core.ConfidenceTable.build` must produce the same cells,
in the same order, from the same ``rng.sample`` stream.

:func:`scan` takes the ZMap snapshot one /24 and one allocation span
at a time (:func:`active_addresses_in_slash24`, one
``hosts_up_in_epoch_np`` call per span), into one Python list per /24,
and builds the snapshot from those lists
(:meth:`ActivitySnapshot.from_lists`); :func:`repro.probing.scan`,
which sweeps chunks of /24s in one call each straight into the
snapshot's arrays, must produce the same arrays, /24 by /24 in network
order, and leave the same ``events.renumber`` count. Like the table
build, it is called directly, not installed.
:func:`scan_with_probes` is the probe-level form of the same snapshot,
one echo (with retransmissions) per address through a ``Prober``.

:func:`measurement_from_dict` and :func:`decode_slash24_record` are the
store's reference decoder: a stored /24 back into a
``Slash24Measurement`` (``Prefix.parse``, one frozenset per destination,
the enums). A warm campaign appends each stored mapping straight into
its columns instead (``CampaignResult.add_stored``), and those columns
must equal what ``CampaignResult.add`` of the decoded measurement
builds, array by array. :func:`score_measurements` grades a campaign
one materialised measurement at a time, as
:func:`repro.analysis.scoring.score_pipeline` did before it read the
columns; the two reports must be equal.
"""

from __future__ import annotations

import random
import time
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
from scipy import sparse

import repro.aggregation.pipeline as aggregation_module
import repro.core.pipeline as pipeline_module
from repro.aggregation import AggregatedBlock, WeightedGraph
from repro.aggregation.graph import _upper_arrays as upper_arrays
from repro.aggregation.mcl import (
    DEFAULT_CONVERGENCE_TOL,
    DEFAULT_INFLATION,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_PRUNE_THRESHOLD,
)
from repro.analysis.scoring import ValidationReport
from repro.core.classifier import (
    Category,
    Slash24Measurement,
    _closing_category,
)
from repro.core.confidence import ConfidenceTable
from repro.core.fastengine import PING_FLOW, PING_INTERVAL_SECONDS
from repro.core.grouping import (
    Observations,
    group_by_lasthop,
    identical_lasthop_sets,
    union_lasthops,
)
from repro.core.hierarchy import groups_hierarchical
from repro.core.pipeline import PING_COUNT, PingResult
from repro.core.selection import meets_selection_criteria, round_robin_order
from repro.core.termination import (
    ExhaustivePolicy,
    ReprobePolicy,
    StopReason,
    TerminationPolicy,
)
from repro.net.addr import ADDRESS_BITS, check_address
from repro.net.prefix import AddressRange, Prefix
from repro.netsim import hosts as hostmod
from repro.netsim.allocation import Allocation
from repro.netsim.icmp import infer_hop_count
from repro.netsim.internet import SimulatedInternet
from repro.netsim.routing import Fib, Forwarder, RouteEntry
from repro.netsim.rtt import path_rtt_ms
from repro.netsim.topology import Router
from repro.obs.metrics import current_metrics
from repro.obs.trace import trace_warning
from repro.util.hashing import mix_to_unit
from repro.probing.session import ECHO_TTL, Prober, ProbeStats
from repro.probing.stopping import DEFAULT_CONFIDENCE, probes_required
from repro.probing.traceroute import DEFAULT_MAX_TTL, Route
from repro.probing.zmap import ActivitySnapshot

#: The allocation map in place of the simulator's compiled index.
ALLOCATION = ("allocation",)
#: Every /24, trace and ping of every phase on the object Prober.
PROBER_CAMPAIGN = ("campaign",)
#: The dict similarity builder in place of the Gram product.
SIMILARITY = ("similarity",)
PARTS = ALLOCATION + PROBER_CAMPAIGN + SIMILARITY

#: Forwarding gives up after this many hops (loop guard).
MAX_FORWARD_HOPS = 64


class ForwardingError(RuntimeError):
    """Raised when a packet cannot be forwarded (no route / loop)."""


class _TrieNode:
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.value = None
        self.has_value = False


class PrefixTrie:
    """Binary radix trie over IPv4 prefixes: the reference
    longest-prefix match, walked one bit at a time, that production's
    sorted-breakpoint tables (:func:`repro.net.trie.leaf_intervals_from_items`)
    must agree with. Inserting a prefix again replaces its value.

    >>> trie = PrefixTrie()
    >>> trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
    >>> trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
    >>> trie.lookup(Prefix.parse("10.1.2.3").network)
    (Prefix(network=167837696, length=16), 'fine')
    """

    def __init__(self) -> None:
        self._root = _TrieNode()

    def insert(self, prefix: Prefix, value) -> None:
        """Insert or replace the value for an exact prefix."""
        node = self._root
        for bit in _bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        node.value = value
        node.has_value = True

    def lookup(self, addr: int) -> Optional[Tuple[Prefix, object]]:
        """Longest-prefix match for an address; None if nothing covers it."""
        check_address(addr)
        node = self._root
        best: Optional[Tuple[Prefix, object]] = None
        depth = 0
        if node.has_value:
            best = (Prefix(0, 0), node.value)
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

    def items(self) -> Iterable[Tuple[Prefix, object]]:
        """All (prefix, value) pairs in network order."""
        yield from self._walk(self._root, 0, 0)

    def _walk(
        self, node: _TrieNode, network: int, depth: int
    ) -> Iterable[Tuple[Prefix, object]]:
        if node.has_value:
            yield Prefix(network, depth), node.value
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                child_net = network | (bit << (ADDRESS_BITS - 1 - depth))
                yield from self._walk(child, child_net, depth + 1)


def _bits(prefix: Prefix) -> Iterable[int]:
    """Most-significant-first bits of a prefix's network portion."""
    for depth in range(prefix.length):
        yield (prefix.network >> (ADDRESS_BITS - 1 - depth)) & 1


def hierarchical_with(a: AddressRange, b: AddressRange) -> bool:
    """The pairwise hierarchy relation of Section 2.3: True if the two
    ranges are disjoint or one strictly contains the other.

    Route entries produce ranges that are siblings (disjoint) or
    parent/child (inclusive); anything else betrays load balancing.
    *Equal* ranges are not hierarchical: two groups can only share both
    endpoints if the endpoint addresses belong to both groups, which
    means some destination has several last-hop routers — itself
    load-balancing evidence (distinct route entries cannot cover the
    same prefix). :func:`repro.core.hierarchy.ranges_hierarchical` must
    equal this relation taken over every pair.
    """
    if a == b:
        return False
    return a.disjoint(b) or range_contains(a, b) or range_contains(b, a)


def range_contains(outer: AddressRange, inner: AddressRange) -> bool:
    """True if ``inner`` lies entirely within ``outer``."""
    return outer.first <= inner.first and inner.last <= outer.last


# FIB → (revision, trie of its entries, {dst: matched entry}), rebuilt
# when the FIB changes.
_TRIES: "weakref.WeakKeyDictionary[Fib, tuple]" = weakref.WeakKeyDictionary()


def fib_lookup(fib: Fib, dst: int) -> Optional[RouteEntry]:
    """Longest-prefix match for a destination address, by descending a
    radix trie of the FIB's entries (once per destination and FIB
    revision)."""
    memo = _TRIES.get(fib)
    if memo is None or memo[0] != fib.revision:
        trie = PrefixTrie()
        for entry in fib.entries():
            trie.insert(entry.prefix, entry)
        memo = (fib.revision, trie, {})
        _TRIES[fib] = memo
    matches = memo[2]
    if dst not in matches:
        match = memo[1].lookup(dst)
        matches[dst] = match[1] if match else None
    return matches[dst]


# Forwarder → (its compiled-state dict, {(src, dst, flow_id): path}).
_PATHS: "weakref.WeakKeyDictionary[Forwarder, tuple]" = (
    weakref.WeakKeyDictionary()
)


def resolve_path(
    forwarder: Forwarder, src: int, dst: int, flow_id: int, nonce: int = 0
) -> Tuple[Router, ...]:
    """Router sequence from the vantage gateway to the last-hop router
    for ``dst`` (inclusive of both), walking every FIB's trie.

    Paths are cached per ``(src, dst, flow_id)``; the cache is dropped
    when the forwarder replaces its compiled state (a routing shift, or
    a FIB that changed under it). A path through a per-packet balancer
    is never cached. Raises :class:`ForwardingError` if no route exists
    or a loop is detected.
    """
    memo = _PATHS.get(forwarder)
    if memo is None or memo[0] is not forwarder._compiled:
        memo = (forwarder._compiled, {})
        _PATHS[forwarder] = memo
    paths = memo[1]
    cache_key = (src, dst, flow_id)
    cached = paths.get(cache_key)
    if cached is not None:
        return cached
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
            if cacheable:
                paths[cache_key] = result
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


class ReplyKind(Enum):
    TTL_EXCEEDED = "ttl-exceeded"
    ECHO_REPLY = "echo-reply"


@dataclass(frozen=True)
class IcmpReply:
    """A reply observed by the prober.

    ``source`` is the address the reply came from (a router interface for
    TTL-exceeded, the destination for Echo Reply). ``ttl`` is the TTL
    field observed *in the reply's own IP header* — for Echo Replies this
    is what Section 3.4's hop-count inference reads. ``rtt_ms`` is the
    round-trip time of the probe.
    """

    kind: ReplyKind
    source: int
    ttl: int
    rtt_ms: float

    @property
    def is_echo(self) -> bool:
        return self.kind is ReplyKind.ECHO_REPLY


def stochastic_loss(
    seed: int, probe_nonce: int, loss_probability: float
) -> bool:
    """Deterministic per-probe loss decision (True means the probe/reply
    is lost). Keyed by a nonce so retransmissions fate-share nothing."""
    if loss_probability <= 0.0:
        return False
    return mix_to_unit(seed, probe_nonce) < loss_probability


def send_probe(
    internet: SimulatedInternet,
    dst: int,
    ttl: int,
    flow_id: int = 0,
    source: Optional[int] = None,
) -> Optional[IcmpReply]:
    """Send one ICMP probe. Returns the reply, or None on timeout.

    ``ttl`` is the probe's initial TTL; ``flow_id`` stands for the
    header fields per-flow load balancers hash (what Paris traceroute
    pins and MDA varies). ``source`` selects among the vantage host's
    addresses (None: the default vantage). The probe advances the
    clock, the nonce and the probe count, and its wall-clock time is
    charged to ``internet.probe_seconds``.
    """
    started = time.perf_counter()
    try:
        internet.probe_count += 1
        internet._nonce += 1
        nonce = internet._nonce
        internet.clock_seconds += internet.config.probe_clock_step_seconds
        if ttl < 1:
            return None
        allocation = internet._allocation_of(dst)
        if allocation is None:
            return None
        path = resolve_path(
            internet.forwarder,
            source if source is not None else internet.vantage_address,
            dst, flow_id, nonce,
        )
        if ttl <= len(path):
            return _router_reply(internet, path, ttl, nonce)
        return _host_reply(internet, allocation, dst, path, nonce)
    finally:
        internet.probe_seconds += time.perf_counter() - started


def _router_reply(
    internet: SimulatedInternet, path, ttl: int, nonce: int
) -> Optional[IcmpReply]:
    router = path[ttl - 1]
    if not router.responds_to_ttl_exceeded:
        return None
    if router.rate_limiter is not None:
        internet._touched_limiters.add(router.rate_limiter)
        events = internet.events
        if events is not None:
            allowed = router.rate_limiter.allow(
                internet.clock_seconds,
                events.storm_scale(router.address, internet.clock_seconds),
            )
        else:
            allowed = router.rate_limiter.allow(internet.clock_seconds)
        if not allowed:
            return None
    built = internet._built
    if stochastic_loss(
        built.loss_seed, nonce, internet.config.router_loss_probability
    ):
        return None
    rtt = path_rtt_ms(path[:ttl], built.rtt_seed, nonce)
    reply_ttl = max(0, 255 - ttl)
    return IcmpReply(ReplyKind.TTL_EXCEEDED, router.address, reply_ttl, rtt)


def _host_reply(
    internet: SimulatedInternet,
    allocation: Allocation,
    dst: int,
    path,
    nonce: int,
) -> Optional[IcmpReply]:
    built = internet._built
    config = internet.config
    pod = allocation.pod
    epoch = internet.current_epoch
    events = internet.events
    availability_key = dst
    if events is not None:
        if events.outage_active(pod, internet.clock_seconds):
            return None
        availability_key = events.availability_key(pod, dst, epoch)
    if not hostmod.host_up_in_epoch(
        built.host_seed, availability_key, epoch, pod.host_density,
        pod.host_stability, pod.sleep_probability,
    ):
        return None
    if stochastic_loss(
        built.loss_seed, nonce, config.host_loss_probability
    ):
        return None
    default = hostmod.default_ttl(
        built.host_seed, dst, config.default_ttl_weights,
        config.custom_ttl_probability,
    )
    delta = hostmod.reverse_path_delta(
        built.host_seed, dst, config.reverse_delta_weights
    )
    reverse_len = max(1, len(path) + delta)
    observed_ttl = max(0, default - reverse_len)
    rtt = path_rtt_ms(path, built.rtt_seed, nonce)
    if pod.cellular and internet._radio.promotion_applies(
        dst, internet.clock_seconds
    ):
        low, high = pod.promotion_delay_range
        rtt += 1000.0 * hostmod.promotion_delay_seconds(
            built.host_seed, dst, low, high
        )
    return IcmpReply(ReplyKind.ECHO_REPLY, dst, observed_ttl, rtt)


def probe(
    prober: Prober, dst: int, ttl: int, flow_id: int = 0
) -> Optional[IcmpReply]:
    """Send one probe through ``prober``, counting it in its stats;
    returns the reply or None on timeout."""
    reply = send_probe(prober.internet, dst, ttl, flow_id, prober.source)
    stats = prober.stats
    stats.sent += 1
    if reply is not None:
        stats.answered += 1
        if reply.is_echo:
            stats.echo_replies += 1
        else:
            stats.ttl_exceeded += 1
    return reply


def echo_with_retries(
    prober: Prober, dst: int, retries: int = 2, flow_id: int = 0
) -> Optional[IcmpReply]:
    """An ICMP Echo Request with a standard TTL, retransmitted up to
    ``retries`` times on flows ``flow_id + 1``, … (covers stochastic
    loss)."""
    for attempt in range(retries + 1):
        reply = probe(prober, dst, ECHO_TTL, flow_id + attempt)
        if reply is not None:
            return reply
    return None


@dataclass
class LasthopResult:
    """Outcome of last-hop identification for one destination."""

    dst: int
    #: Addresses of responsive last-hop routers (empty if none answered).
    lasthops: FrozenSet[int] = frozenset()
    #: TTL distance of the last-hop router (None if never located).
    distance: Optional[int] = None
    #: Whether the destination answered echo probes at all.
    host_responsive: bool = False
    #: Whether a last-hop position was located but no router answered.
    lasthop_unresponsive: bool = False
    probes_used: int = 0

    @property
    def usable(self) -> bool:
        return bool(self.lasthops)


def identify_lasthops(
    prober: Prober,
    dst: int,
    confidence: float = DEFAULT_CONFIDENCE,
    max_ttl: int = DEFAULT_MAX_TTL,
    flow_seed: int = 0,
    retries: int = 1,
) -> LasthopResult:
    """Identify the last-hop router(s) of ``dst`` (Sections 3.4-3.5).

    The per-destination enumeration always uses the full stopping-rule
    budget; the Section 6.5 "modified strategy" differs at the /24
    level (no early termination, more destinations), which is the
    classifier's and reprober's job.
    """
    result = LasthopResult(dst=dst)

    # Step 1: hop-count inference from an Echo Reply's TTL (§3.4).
    echo = echo_with_retries(prober, dst, retries=retries + 1)
    result.probes_used += 1
    if echo is None:
        return result
    result.host_responsive = True
    estimate = max(1, infer_hop_count(echo.ttl))

    # Step 2: locate the last-hop TTL, halving first_ttl on overshoot.
    first_ttl = min(estimate, max_ttl)
    distance = None
    while first_ttl >= 1:
        distance = _locate_lasthop_distance(
            prober, dst, first_ttl, max_ttl, flow_seed, retries, result
        )
        if distance == _OVERSHOOT:
            first_ttl //= 2
            continue
        break
    if distance in (None, _OVERSHOOT):
        return result
    result.distance = distance

    # Step 3: enumerate routers at the last hop with the stopping rule.
    # probes_required is nondecreasing in |seen|, so the probes of each
    # shortfall all go out before the requirement is checked again.
    seen: Set[int] = set()
    sent = 0
    answered_any = False
    while True:
        required = probes_required(max(len(seen), 1), confidence)
        if sent >= required:
            break
        for flow in range(flow_seed + sent, flow_seed + required):
            reply = probe(prober, dst, distance, flow)
            if reply is None:
                continue
            if reply.is_echo:
                # Path-length variation across flows; no router here.
                continue
            answered_any = True
            seen.add(reply.source)
        result.probes_used += required - sent
        sent = required
    result.lasthops = frozenset(seen)
    result.lasthop_unresponsive = not answered_any
    return result


_OVERSHOOT = -1


def _locate_lasthop_distance(
    prober: Prober,
    dst: int,
    first_ttl: int,
    max_ttl: int,
    flow_seed: int,
    retries: int,
    result: LasthopResult,
) -> Optional[int]:
    """Walk forward from ``first_ttl`` until the destination answers;
    the previous TTL is the last-hop distance.

    Returns the distance, ``_OVERSHOOT`` if the very first TTL already
    reaches the destination (first_ttl must be halved, §3.4), or None if
    the destination never answers within ``max_ttl``.
    """
    for ttl in range(first_ttl, max_ttl + 1):
        got_echo = False
        for attempt in range(retries + 1):
            reply = probe(prober, dst, ttl, flow_seed + attempt)
            result.probes_used += 1
            if reply is None:
                continue
            if reply.is_echo:
                got_echo = True
            break
        if got_echo:
            if ttl == first_ttl and first_ttl > 1:
                return _OVERSHOOT
            return ttl - 1 if ttl > 1 else None
    return None


def measure_slash24(
    prober: Prober,
    slash24: Prefix,
    snapshot_active: List[int],
    policy: TerminationPolicy | ReprobePolicy,
    rng: random.Random,
    max_destinations: Optional[int] = None,
) -> Slash24Measurement:
    """Measure and classify one /24.

    ``snapshot_active`` is the ZMap-snapshot active list (possibly stale
    by probe time). Destinations that no longer answer echo probes do
    not count as probed addresses.
    """
    result = Slash24Measurement(slash24=slash24, category=Category.TOO_FEW_ACTIVE)
    if not meets_selection_criteria(snapshot_active):
        return result

    observations: Dict[int, FrozenSet[int]] = {}
    lasthop_unresponsive_dests = 0
    flow_seed = rng.randrange(1 << 30)

    for index, dst in enumerate(round_robin_order(snapshot_active, rng)):
        if max_destinations is not None and index >= max_destinations:
            break
        identification = identify_lasthops(
            prober, dst, flow_seed=flow_seed + index * 101
        )
        result.probes_used += identification.probes_used
        if not identification.host_responsive:
            continue
        result.hosts_responsive += 1
        if not identification.lasthops:
            lasthop_unresponsive_dests += 1
            continue
        observations[dst] = identification.lasthops
        result.destinations_probed = len(observations)
        reason = policy.should_stop(observations)
        if reason is not None:
            result.observations = observations
            result.stop_reason = reason
            result.category = _closing_category(observations)
            return result

    # Ran out of destinations before the policy was satisfied.
    result.observations = observations
    result.destinations_probed = len(observations)
    if result.hosts_responsive < 4:
        result.category = Category.TOO_FEW_ACTIVE
    elif not observations:
        result.category = Category.UNRESPONSIVE_LASTHOP
    elif isinstance(policy, (ReprobePolicy, ExhaustivePolicy)):
        # These strategies classify whatever they gathered.
        result.category = _closing_category(observations)
    elif (
        isinstance(policy, TerminationPolicy)
        and policy.required_probes(observations) is None
    ):
        # No populated confidence cell for this cardinality: the paper
        # probes every active address and classifies the outcome.
        result.category = _closing_category(observations)
    else:
        # Active addresses ran out below the confidence requirement.
        result.category = Category.TOO_FEW_ACTIVE
    return result


@dataclass(frozen=True)
class TracerouteHop:
    ttl: int
    address: Optional[int]
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.address is not None


@dataclass
class TracerouteResult:
    dst: int
    flow_id: int
    hops: List[TracerouteHop] = field(default_factory=list)
    reached: bool = False
    probes_used: int = 0

    @property
    def route(self) -> Route:
        """Hop addresses up to (excluding) the destination."""
        return tuple(hop.address for hop in self.hops)

    @property
    def lasthop_address(self) -> Optional[int]:
        """Address of the final router before the destination (None if
        it did not respond or the destination was not reached)."""
        if not self.reached or not self.hops:
            return None
        return self.hops[-1].address


def paris_traceroute(
    prober: Prober,
    dst: int,
    flow_id: int = 0,
    first_ttl: int = 1,
    max_ttl: int = DEFAULT_MAX_TTL,
    retries: int = 2,
) -> TracerouteResult:
    """Trace with a fixed flow id (the Paris traceroute discipline)."""
    result = TracerouteResult(dst=dst, flow_id=flow_id)
    for ttl in range(first_ttl, max_ttl + 1):
        address: Optional[int] = None
        rtt: Optional[float] = None
        for _attempt in range(retries + 1):
            reply = probe(prober, dst, ttl, flow_id)
            result.probes_used += 1
            if reply is None:
                continue
            if reply.is_echo:
                result.reached = True
                return result
            address = reply.source
            rtt = reply.rtt_ms
            break
        result.hops.append(TracerouteHop(ttl, address, rtt))
    return result


@dataclass
class MultipathResult:
    """All per-flow paths discovered towards one destination."""

    dst: int
    routes: Set[Route] = field(default_factory=set)
    traces: List[TracerouteResult] = field(default_factory=list)
    reached: bool = False
    probes_used: int = 0


def enumerate_paths(
    prober: Prober,
    dst: int,
    confidence: float = DEFAULT_CONFIDENCE,
    max_ttl: int = DEFAULT_MAX_TTL,
    flow_seed: int = 0,
    max_flows: int = 64,
) -> MultipathResult:
    """Enumerate the per-flow path set towards ``dst``. See module doc."""
    result = MultipathResult(dst=dst)
    flows_tried = 0
    while flows_tried < min(probes_required(max(len(result.routes), 1), confidence), max_flows):
        trace = paris_traceroute(
            prober, dst, flow_id=flow_seed + flows_tried, max_ttl=max_ttl
        )
        result.probes_used += trace.probes_used
        flows_tried += 1
        if not trace.reached:
            continue
        result.reached = True
        result.traces.append(trace)
        result.routes.add(trace.route)
    return result


def ping(prober: Prober, addr: int, count: int = PING_COUNT) -> PingResult:
    """:func:`repro.core.pipeline.ping`, one :func:`probe` per echo
    request, with the clock advanced by the interval between them."""
    internet = prober.internet
    result = PingResult(addr=addr)
    for index in range(count):
        if index:
            internet.advance_clock(PING_INTERVAL_SECONDS)
        reply = probe(prober, addr, ECHO_TTL, PING_FLOW)
        result.rtts_ms.append(reply.rtt_ms if reply is not None else None)
    return result


class ProberEngine:
    """Stands in for the compiled engine: measures each /24 with
    :func:`measure_slash24`, traces each destination with
    :func:`enumerate_paths` and pings with :func:`ping`, through a
    ``Prober`` of its own."""

    def __init__(self, internet: SimulatedInternet) -> None:
        self.internet = internet

    def measure(
        self,
        policy,
        slash24: Prefix,
        snapshot: ActivitySnapshot,
        rng: random.Random,
        max_destinations: Optional[int],
        source: Optional[int] = None,
    ) -> Tuple[Slash24Measurement, ProbeStats]:
        prober = Prober(self.internet, source=source)
        measurement = measure_slash24(
            prober, slash24, snapshot.active_in(slash24), policy, rng,
            max_destinations=max_destinations,
        )
        return measurement, prober.stats

    def enumerate_paths(
        self,
        dst: int,
        source: Optional[int],
        flow_seed: int,
        confidence: float,
        max_ttl: int,
        max_flows: int,
    ) -> Tuple[Set[Route], bool, ProbeStats]:
        prober = Prober(self.internet, source=source)
        result = enumerate_paths(
            prober, dst, confidence=confidence, max_ttl=max_ttl,
            flow_seed=flow_seed, max_flows=max_flows,
        )
        assert result.probes_used == prober.stats.sent
        return result.routes, result.reached, prober.stats

    def ping(
        self, dst: int, source: Optional[int], count: int
    ) -> Tuple[List[Optional[float]], ProbeStats]:
        prober = Prober(self.internet, source=source)
        return ping(prober, dst, count).rtts_ms, prober.stats


def prober_engine_for(internet) -> ProberEngine:
    """``fast_engine_for`` that hands every /24 to the object classifier
    and every destination to the object MDA."""
    return ProberEngine(internet)


def build_similarity_graph(
    blocks: Sequence[AggregatedBlock],
) -> WeightedGraph:
    """Vertices are block indices; edges connect blocks sharing at least
    one last-hop router, weighted by similarity.

    Uses an inverted index (router → blocks) so the cost is proportional
    to actual overlaps, not all block pairs.
    """
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

    edges = [
        (u, v, shared / max(
            len(blocks[u].lasthop_set), len(blocks[v].lasthop_set)
        ))
        for (u, v), shared in intersections.items()
    ]
    return graph_from_edges(len(blocks), edges)


def graph_from_edges(
    vertex_count: int, edges: Iterable[Tuple[int, int, float]]
) -> WeightedGraph:
    """A :class:`WeightedGraph` from (u, v, weight) triples."""
    edges = list(edges)
    u, v, w = zip(*edges) if edges else ((), (), ())
    return WeightedGraph.from_edge_arrays(vertex_count, u, v, w)


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


def subgraph(
    graph: WeightedGraph, vertices: Sequence[int]
) -> Tuple[WeightedGraph, List[int]]:
    """Induced subgraph; returns (graph, original-index list)."""
    selector = np.asarray(list(vertices), dtype=np.int64)
    matrix = graph.to_sparse()[selector][:, selector].tocsr()
    return (
        WeightedGraph.from_edge_arrays(len(selector), *upper_arrays(matrix)),
        [int(vertex) for vertex in selector],
    )


@dataclass
class MclRun:
    """One reference MCL run."""

    clusters: List[List[int]]
    iterations: int
    converged: bool


def mcl_from_stochastic(
    stochastic: sparse.csc_matrix,
    inflation: float = DEFAULT_INFLATION,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
) -> MclRun:
    """Iterate MCL on one prepared column-stochastic matrix.

    Expansion is the ``@`` operator, inflation ``np.power`` in place,
    pruning zeroes entries below the threshold and drops them, and
    normalisation scales each column by its reciprocal
    ``matrix.sum(axis=0)``, after giving a column that pruned to zero a
    self loop (``matrix + repair``). Counts ``mcl.runs``,
    ``mcl.iterations``, ``mcl.nnz_peak`` and ``mcl.unconverged`` and
    journals a cap hit, run by run. The input is never written.
    """
    n = stochastic.shape[0]
    if n == 0:
        return MclRun(clusters=[], iterations=0, converged=True)
    matrix = stochastic
    converged = False
    iterations = 0
    nnz_peak = matrix.nnz
    for iterations in range(1, max_iterations + 1):
        previous = matrix
        matrix = matrix @ matrix
        nnz_peak = max(nnz_peak, matrix.nnz)
        np.power(matrix.data, inflation, out=matrix.data)
        matrix.data[matrix.data < prune_threshold] = 0.0
        matrix.eliminate_zeros()
        sums = np.asarray(matrix.sum(axis=0)).ravel()
        zero_columns = np.flatnonzero(sums == 0.0)
        if zero_columns.size:
            repair = sparse.csc_matrix(
                (np.ones(zero_columns.size), (zero_columns, zero_columns)),
                shape=matrix.shape,
            )
            matrix = sparse.csc_matrix(matrix + repair)
            sums = np.asarray(matrix.sum(axis=0)).ravel()
        matrix.data *= np.repeat(1.0 / sums, np.diff(matrix.indptr))
        if _has_converged(matrix, previous, convergence_tol):
            converged = True
            break
    registry = current_metrics()
    registry.count("mcl.runs")
    registry.count("mcl.iterations", iterations)
    registry.gauge("mcl.nnz_peak", nnz_peak)
    if not converged:
        registry.count("mcl.unconverged")
        trace_warning(
            "mcl.unconverged",
            f"MCL hit the {max_iterations}-iteration cap on a "
            f"{n}-vertex graph without converging",
            vertices=n,
            inflation=inflation,
        )
    return MclRun(
        clusters=_interpret(matrix, n),
        iterations=iterations,
        converged=converged,
    )


def _has_converged(
    current: sparse.csc_matrix, previous: sparse.csc_matrix, tol: float
) -> bool:
    """Is the largest entry-wise change below ``tol``? Absent entries
    are zeros."""
    if (
        np.array_equal(current.indptr, previous.indptr)
        and np.array_equal(current.indices, previous.indices)
    ):
        if current.data.size == 0:
            return True
        return float(np.abs(current.data - previous.data).max()) < tol
    dense = current.toarray()
    dense -= previous.toarray()
    return float(np.abs(dense).max()) < tol


def _interpret(matrix: sparse.csc_matrix, n: int) -> List[List[int]]:
    """Read clusters off the converged matrix.

    Attractors are vertices with positive diagonal mass; an attractor's
    cluster is the set of vertices whose column sends flow to it.
    Overlapping attractor systems are merged; vertices attracted nowhere
    become singletons.
    """
    columns = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(matrix.indptr)
    )
    rows = matrix.indices
    on_diagonal = rows == columns
    diagonal = np.zeros(n, dtype=np.float64)
    diagonal[columns[on_diagonal]] = matrix.data[on_diagonal]
    attractors = np.flatnonzero(diagonal > 0.0)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    is_attractor = np.zeros(n, dtype=bool)
    is_attractor[attractors] = True
    in_attractor_row = is_attractor[rows]
    for row, column in zip(
        rows[in_attractor_row].tolist(),
        columns[in_attractor_row].tolist(),
    ):
        union(row, column)

    clusters_by_root: dict = {}
    for vertex in range(n):
        clusters_by_root.setdefault(find(vertex), []).append(vertex)
    return sorted(
        (sorted(members) for members in clusters_by_root.values()),
        key=lambda cluster: cluster[0],
    )


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
    lists: Dict[int, List[int]] = {}
    for slash24 in slash24s:
        active = active_addresses_in_slash24(internet, slash24, epoch)
        if active:
            lists[slash24.network] = active
    return ActivitySnapshot.from_lists(epoch, lists)


def scan_with_probes(
    prober: Prober,
    slash24s: Iterable[Prefix],
    retries: int = 2,
) -> ActivitySnapshot:
    """Probe-level scan of the given /24s at the *current* clock epoch."""
    internet = prober.internet
    epoch = internet.current_epoch
    lists: Dict[int, List[int]] = {}
    for slash24 in slash24s:
        active: List[int] = []
        # Retransmissions are adaptive (each address consumes a
        # reply-dependent number of nonces), so batching across
        # addresses would change the probe sequence.
        for addr in slash24:
            reply = echo_with_retries(prober, addr, retries=retries)
            if reply is not None and reply.is_echo:
                active.append(addr)
        if active:
            lists[slash24.network] = active
    return ActivitySnapshot.from_lists(epoch, lists)


def measurement_from_dict(data: Mapping[str, Any]) -> Slash24Measurement:
    """Decode one stored measurement mapping (the
    :func:`repro.store.codec.measurement_to_dict` form) into the object
    it was written from."""
    stop_reason: Optional[StopReason] = None
    if data["stop_reason"] is not None:
        stop_reason = StopReason(data["stop_reason"])
    return Slash24Measurement(
        slash24=Prefix.parse(data["slash24"]),
        category=Category(data["category"]),
        observations={
            int(dst): frozenset(lasthops)
            for dst, lasthops in data["observations"].items()
        },
        destinations_probed=int(data["destinations_probed"]),
        hosts_responsive=int(data["hosts_responsive"]),
        probes_used=int(data["probes_used"]),
        stop_reason=stop_reason,
    )


def decode_slash24_record(
    document: Mapping[str, Any],
) -> Tuple[Slash24Measurement, ProbeStats]:
    """A stored /24 record's measurement object and probe stats."""
    return (
        measurement_from_dict(document["measurement"]),
        ProbeStats.from_dict(document["stats"]),
    )


def score_measurements(
    internet: SimulatedInternet,
    campaign,
    blocks: Sequence[AggregatedBlock],
) -> ValidationReport:
    """:func:`repro.analysis.scoring.score_pipeline`, one materialised
    measurement at a time."""
    truth = internet.ground_truth
    report = ValidationReport()
    for slash24, measurement in campaign.measurements.items():
        if not measurement.category.analyzable:
            continue
        report.analyzable += 1
        actual = truth.is_homogeneous(slash24)
        claimed = measurement.is_homogeneous
        if claimed and actual:
            report.true_positive += 1
        elif claimed and not actual:
            report.false_positive += 1
        elif not claimed and not actual:
            report.true_negative += 1
        else:
            report.false_negative += 1
    for block in blocks:
        if block.size < 2:
            continue
        report.multi_blocks += 1
        true_sets = {
            truth.lasthop_set_of(slash24) for slash24 in block.slash24s
        }
        if len(true_sets) == 1:
            report.pure_multi_blocks += 1
    return report


def install(monkeypatch, parts: Iterable[str] = PARTS) -> None:
    """Patch the named parts (see the module docstring) into the
    production path for the rest of ``monkeypatch``'s lifetime."""
    parts = tuple(parts)
    unknown = set(parts) - set(PARTS)
    if unknown:
        raise ValueError(f"unknown oracle parts {sorted(unknown)}")
    if "allocation" in parts:
        monkeypatch.setattr(
            SimulatedInternet, "_allocation_of", allocation_of
        )
    if "campaign" in parts:
        monkeypatch.setattr(
            pipeline_module, "fast_engine_for", prober_engine_for
        )
    if "similarity" in parts:
        monkeypatch.setattr(
            aggregation_module,
            "build_similarity_graph_columnar",
            build_similarity_graph,
        )
