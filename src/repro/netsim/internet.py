"""The simulated Internet: the probe-level API every tool talks to.

:class:`SimulatedInternet` exposes exactly the observation surface a
measurement host has — send a probe with a TTL and flow id, maybe get an
ICMP reply — plus the out-of-band databases the paper consults (GeoLite,
WHOIS, reverse DNS) and, unlike the real Internet, a ground-truth
oracle for scoring.

A virtual clock advances a fixed amount per probe; host availability is
a function of the epoch the clock falls in, which is how the ZMap
snapshot (taken in an earlier epoch) goes stale by probe time.

Two probe entry points exist: :meth:`SimulatedInternet.send_probe` (one
probe) and :meth:`SimulatedInternet.send_probe_batch` (a batch sharing
one TTL). The batch vectorises every stochastic draw — loss, jitter,
spikes, default TTLs, reverse-path deltas, host availability — with
numpy while advancing the clock and nonce exactly as the serial loop
would, so the two are bit-identical probe for probe (every draw is a
pure hash of seed and nonce/address; only the sequencing is stateful).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..net.prefix import Prefix
from ..util.hashing import mix_to_unit, stable_string_hash
from . import hosts as hostmod
from .allocation import Allocation, Pod
from .build import BuiltScenario, build_scenario
from .config import ScenarioConfig
from .events import EventSchedule, build_event_schedule
from .geodb import GeoDatabase
from .groundtruth import GroundTruth
from .icmp import IcmpReply, ReplyKind, stochastic_loss, stochastic_loss_np
from .orgs import OrgRegistry
from .rdns import pattern_label, rdns_name, router_rdns_name
from .routing import Forwarder
from .hosts import promotion_delay_seconds
from .rtt import (
    HOST_LATENCY_MS,
    CellularRadioTracker,
    path_rtt_ms,
    rtt_draws_for_nonces,
)
from .topology import Topology
from .whois import WhoisService

_BITCOIN = stable_string_hash("bitcoin-node")
#: Probability that an active residential host runs a Bitcoin node.
BITCOIN_NODE_PROBABILITY = 0.004

#: Below this size the batched path's numpy setup costs more than the
#: serial loop; results are identical either way.
MIN_VECTOR_BATCH = 4

#: Addresses hashed per numpy pass of :meth:`SimulatedInternet.
#: active_addresses` (256 /24s): large enough that per-call overhead
#: vanishes, small enough that the sweep's temporaries stay a few MiB.
SWEEP_CHUNK_ADDRESSES = 1 << 16


class SimulatedInternet:
    """Runtime façade over a built scenario. See module docstring."""

    def __init__(self, built: BuiltScenario) -> None:
        self._built = built
        self.config = built.config
        self.topology: Topology = built.topology
        self.forwarder: Forwarder = built.forwarder
        self.orgs: OrgRegistry = built.orgs
        self.allocations = built.allocations
        self.geodb: GeoDatabase = built.geodb
        self.whois = WhoisService(built.allocations)
        self.pods: List[Pod] = built.pods
        self.vantage_address: int = built.vantage_address
        self.ground_truth = GroundTruth(
            built.allocations, built.universe_slash24s
        )
        self.clock_seconds: float = 0.0
        self.probe_count: int = 0
        #: Wall-clock seconds spent inside the probe primitives (scalar
        #: and batched), for bench attribution via :meth:`stats`.
        self.probe_seconds: float = 0.0
        self.probe_batches: int = 0
        self.batched_probes: int = 0
        self._radio = CellularRadioTracker()
        #: Dynamic-event schedule, or None when every event knob is at
        #: zero intensity (the probe paths then skip all event checks).
        self.events: Optional[EventSchedule] = build_event_schedule(built)
        self._nonce = 0
        #: Rate limiters that consumed tokens since the last context
        #: switch (kept small so context resets stay O(touched)).
        self._touched_limiters: set = set()
        # Compiled allocation index (flat sorted intervals) and per-path
        # propagation prefix sums; both build lazily and rebuild after
        # unpickling (see __getstate__).
        self._alloc_index: Optional[tuple] = None
        self._prop_cache: Dict[tuple, List[float]] = {}

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "SimulatedInternet":
        return cls(build_scenario(config))

    def __getstate__(self):
        # Parallel campaign workers receive pickled internets; derived
        # caches rebuild lazily, so don't ship them.
        state = self.__dict__.copy()
        state["_alloc_index"] = None
        state["_prop_cache"] = {}
        # The compiled campaign engine holds references into this
        # process's compiled forwarding plane; workers rebuild their own.
        state.pop("_fast_engine", None)
        return state

    # -- universe ---------------------------------------------------------

    @property
    def universe_slash24s(self) -> Sequence[Prefix]:
        return self.ground_truth.universe_slash24s

    # -- clock ------------------------------------------------------------

    def epoch_at(self, clock_seconds: float) -> int:
        return math.floor(clock_seconds / self.config.epoch_seconds)

    @property
    def current_epoch(self) -> int:
        return self.epoch_at(self.clock_seconds)

    def advance_clock(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        self.clock_seconds += seconds

    # -- measurement contexts ----------------------------------------------

    def begin_measurement_context(
        self, clock_seconds: float, nonce: int
    ) -> None:
        """Reposition the transient probe-side state deterministically.

        Campaign executors measure each /24 inside a context derived
        from (campaign seed, prefix), which makes the /24's measurement
        a pure function of the scenario and that context — independent
        of how many probes any *other* /24 absorbed first, and therefore
        identical whether /24s run serially, reordered, truncated, or on
        parallel workers.

        Pins the virtual clock and the probe nonce, and clears the
        reply-side state that probes accumulate: router token buckets
        and the cellular radio tracker. Unlike :meth:`advance_clock`,
        the clock may move backwards here — contexts are detached
        snapshots of campaign time, not a continuation of it.
        """
        self.clock_seconds = float(clock_seconds)
        self._nonce = int(nonce)
        self._radio.reset()
        for limiter in self._touched_limiters:
            limiter.reset()
        self._touched_limiters.clear()

    # -- allocation lookup (compiled) ----------------------------------------

    def _allocation_index(self) -> tuple:
        """Flat sorted-interval index over the allocation trie:
        ``(revision, starts_list, starts_array, values)``."""
        index = self._alloc_index
        if index is None or index[0] != self.allocations.revision:
            points = self.allocations.leaf_intervals()
            starts = [start for start, _ in points]
            values = [value for _, value in points]
            index = (
                self.allocations.revision,
                starts,
                np.array(starts, dtype=np.int64),
                values,
            )
            self._alloc_index = index
        return index

    def _allocation_of(self, addr: int) -> Optional[Allocation]:
        """Most-specific allocation for an address (bisect over the
        compiled index)."""
        _, starts, _, values = self._allocation_index()
        return values[bisect_right(starts, addr) - 1]

    # -- probe primitive ----------------------------------------------------

    def send_probe(
        self, dst: int, ttl: int, flow_id: int = 0,
        source: Optional[int] = None,
    ) -> Optional[IcmpReply]:
        """Send one ICMP probe. Returns the reply, or None on timeout.

        ``ttl`` is the probe's initial TTL; ``flow_id`` stands for the
        header fields per-flow load balancers hash (what Paris traceroute
        pins and MDA varies). ``source`` selects among the vantage
        host's addresses: per-destination balancers that hash the source
        (Section 6.1) resolve differently per vantage address, which is
        how probing from additional vantage points reveals extra
        last-hop routers.
        """
        started = time.perf_counter()
        try:
            return self._send_probe(dst, ttl, flow_id, source)
        finally:
            self.probe_seconds += time.perf_counter() - started

    def _send_probe(
        self, dst: int, ttl: int, flow_id: int, source: Optional[int]
    ) -> Optional[IcmpReply]:
        self.probe_count += 1
        self._nonce += 1
        nonce = self._nonce
        self.clock_seconds += self.config.probe_clock_step_seconds
        if ttl < 1:
            return None
        allocation = self._allocation_of(dst)
        if allocation is None:
            return None
        path = self.forwarder.resolve_path(
            source if source is not None else self.vantage_address,
            dst, flow_id, nonce,
        )
        if ttl <= len(path):
            return self._router_reply(path, ttl, nonce)
        return self._host_reply(allocation, dst, path, nonce)

    def _router_reply(
        self, path, ttl: int, nonce: int
    ) -> Optional[IcmpReply]:
        router = path[ttl - 1]
        if not router.responds_to_ttl_exceeded:
            return None
        if router.rate_limiter is not None:
            self._touched_limiters.add(router.rate_limiter)
            events = self.events
            if events is not None:
                allowed = router.rate_limiter.allow(
                    self.clock_seconds,
                    events.storm_scale(router.address, self.clock_seconds),
                )
            else:
                allowed = router.rate_limiter.allow(self.clock_seconds)
            if not allowed:
                return None
        if stochastic_loss(
            self._built.loss_seed, nonce, self.config.router_loss_probability
        ):
            return None
        rtt = path_rtt_ms(path[:ttl], self._built.rtt_seed, nonce)
        reply_ttl = max(0, 255 - ttl)
        return IcmpReply(ReplyKind.TTL_EXCEEDED, router.address, reply_ttl, rtt)

    def _host_reply(
        self, allocation: Allocation, dst: int, path, nonce: int
    ) -> Optional[IcmpReply]:
        pod = allocation.pod
        epoch = self.current_epoch
        events = self.events
        availability_key = dst
        if events is not None:
            if events.outage_active(pod, self.clock_seconds):
                return None
            availability_key = events.availability_key(pod, dst, epoch)
        if not hostmod.host_up_in_epoch(
            self._built.host_seed, availability_key, epoch, pod.host_density,
            pod.host_stability, pod.sleep_probability,
        ):
            return None
        if stochastic_loss(
            self._built.loss_seed, nonce, self.config.host_loss_probability
        ):
            return None
        default = hostmod.default_ttl(
            self._built.host_seed, dst, self.config.default_ttl_weights,
            self.config.custom_ttl_probability,
        )
        delta = hostmod.reverse_path_delta(
            self._built.host_seed, dst, self.config.reverse_delta_weights
        )
        reverse_len = max(1, len(path) + delta)
        observed_ttl = max(0, default - reverse_len)
        rtt = path_rtt_ms(path, self._built.rtt_seed, nonce)
        if pod.cellular and self._radio.promotion_applies(
            dst, self.clock_seconds
        ):
            low, high = pod.promotion_delay_range
            rtt += 1000.0 * promotion_delay_seconds(
                self._built.host_seed, dst, low, high
            )
        return IcmpReply(ReplyKind.ECHO_REPLY, dst, observed_ttl, rtt)

    # -- batched probe primitive ---------------------------------------------

    def send_probe_batch(
        self,
        dsts: Sequence[int],
        ttl: int,
        flow_ids: Union[int, Sequence[int]] = 0,
        source: Optional[int] = None,
        inter_probe_seconds: float = 0.0,
    ) -> List[Optional[IcmpReply]]:
        """Send one probe per destination, all with the same TTL.

        Equivalent — probe for probe, bitwise — to calling
        :meth:`send_probe` over ``dsts`` in order with
        :meth:`advance_clock`(``inter_probe_seconds``) between
        consecutive probes, but with the stochastic draws vectorised.
        ``flow_ids`` is one flow id for the whole batch or a sequence
        parallel to ``dsts``.
        """
        count = len(dsts)
        if isinstance(flow_ids, int):
            flows: Sequence[int] = (flow_ids,) * count
        else:
            flows = flow_ids
            if len(flows) != count:
                raise ValueError("flow_ids must match dsts in length")
        if inter_probe_seconds < 0:
            raise ValueError("the clock only moves forward")
        if count < MIN_VECTOR_BATCH:
            replies: List[Optional[IcmpReply]] = []
            for index in range(count):
                if index and inter_probe_seconds:
                    self.advance_clock(inter_probe_seconds)
                replies.append(
                    self.send_probe(dsts[index], ttl, flows[index], source)
                )
            return replies
        started = time.perf_counter()
        try:
            return self._send_probe_batch(
                dsts, ttl, flows, source, inter_probe_seconds
            )
        finally:
            self.probe_seconds += time.perf_counter() - started
            self.probe_batches += 1
            self.batched_probes += count

    def _send_probe_batch(
        self,
        dsts: Sequence[int],
        ttl: int,
        flows: Sequence[int],
        source: Optional[int],
        gap: float,
    ) -> List[Optional[IcmpReply]]:
        count = len(dsts)
        config = self.config
        built = self._built
        # Clock/nonce sequencing, replicated from the serial loop: the
        # clock accumulates per probe (float addition is not
        # associative, so no closed-form base + i*step).
        step = config.probe_clock_step_seconds
        clock = self.clock_seconds
        clocks: List[float] = []
        for index in range(count):
            if index and gap:
                clock += gap
            clock += step
            clocks.append(clock)
        base_nonce = self._nonce
        self.probe_count += count
        self._nonce += count
        self.clock_seconds = clocks[-1]
        replies: List[Optional[IcmpReply]] = [None] * count
        if ttl < 1:
            return replies

        src = source if source is not None else self.vantage_address
        _, _, alloc_starts, alloc_values = self._allocation_index()
        alloc_indexes = (
            np.searchsorted(
                alloc_starts, np.asarray(dsts, dtype=np.int64), side="right"
            )
            - 1
        ).tolist()
        resolve = self.forwarder.resolve_path
        router_probes: List[Tuple[int, tuple]] = []
        host_probes: List[Tuple[int, Allocation, tuple]] = []
        for index in range(count):
            allocation = alloc_values[alloc_indexes[index]]
            if allocation is None:
                continue
            path = resolve(
                src, dsts[index], flows[index], base_nonce + index + 1
            )
            if ttl <= len(path):
                router_probes.append((index, path))
            else:
                host_probes.append((index, allocation, path))
        if not router_probes and not host_probes:
            return replies

        # All per-nonce RTT draws for the batch, vectorised up front
        # (pure hashes — evaluating draws serial code never reaches is
        # harmless).
        nonces = np.arange(
            base_nonce + 1, base_nonce + count + 1, dtype=np.uint64
        )
        jitter, spike_flags, spike_ms = rtt_draws_for_nonces(
            built.rtt_seed, nonces
        )

        if router_probes:
            lost = stochastic_loss_np(
                built.loss_seed,
                nonces[[index for index, _ in router_probes]],
                config.router_loss_probability,
            ).tolist()
            reply_ttl = max(0, 255 - ttl)
            events = self.events
            for position, (index, path) in enumerate(router_probes):
                router = path[ttl - 1]
                if not router.responds_to_ttl_exceeded:
                    continue
                if router.rate_limiter is not None:
                    self._touched_limiters.add(router.rate_limiter)
                    if events is not None:
                        allowed = router.rate_limiter.allow(
                            clocks[index],
                            events.storm_scale(
                                router.address, clocks[index]
                            ),
                        )
                    else:
                        allowed = router.rate_limiter.allow(clocks[index])
                    if not allowed:
                        continue
                if lost[position]:
                    continue
                rtt = (
                    2.0 * self._propagation_sums(path)[ttl]
                    + HOST_LATENCY_MS
                    + jitter[index]
                )
                if spike_flags[index]:
                    rtt += spike_ms[index]
                replies[index] = IcmpReply(
                    ReplyKind.TTL_EXCEEDED, router.address, reply_ttl, rtt
                )

        if host_probes:
            self._host_replies_batch(
                replies, host_probes, dsts, clocks, nonces,
                jitter, spike_flags, spike_ms,
            )
        return replies

    def _host_replies_batch(
        self, replies, host_probes, dsts, clocks, nonces,
        jitter, spike_flags, spike_ms,
    ) -> None:
        built = self._built
        config = self.config
        epoch_seconds = config.epoch_seconds
        addrs = np.array(
            [dsts[index] for index, _, _ in host_probes], dtype=np.uint64
        )
        # Availability draws group by (pod parameters, probe epoch) —
        # a batch can straddle an epoch boundary mid-flight. With an
        # event schedule, the availability draw is keyed by the
        # subscriber's canonical address (renumbering pods) and outage
        # windows suppress the draw entirely; both replicate the scalar
        # path decision for decision.
        events = self.events
        if events is None:
            key_addrs = addrs
        else:
            keys: List[int] = []
            for position, (index, allocation, _) in enumerate(host_probes):
                pod = allocation.pod
                if events.outage_active(pod, clocks[index]):
                    keys.append(-1)
                    continue
                epoch = math.floor(clocks[index] / epoch_seconds)
                keys.append(
                    events.availability_key(pod, dsts[index], epoch)
                )
            key_addrs = np.array(
                [key if key >= 0 else 0 for key in keys], dtype=np.uint64
            )
        up = [False] * len(host_probes)
        groups: Dict[tuple, List[int]] = {}
        for position, (index, allocation, _) in enumerate(host_probes):
            if events is not None and keys[position] < 0:
                continue
            pod = allocation.pod
            epoch = math.floor(clocks[index] / epoch_seconds)
            key = (
                pod.host_density, pod.host_stability,
                pod.sleep_probability, epoch,
            )
            groups.setdefault(key, []).append(position)
        for (density, stability, sleep_p, epoch), members in groups.items():
            mask = hostmod.hosts_up_in_epoch_np(
                built.host_seed, key_addrs[members], epoch,
                density, stability, sleep_p,
            ).tolist()
            for position, is_up in zip(members, mask):
                up[position] = is_up
        lost = stochastic_loss_np(
            built.loss_seed,
            nonces[[index for index, _, _ in host_probes]],
            config.host_loss_probability,
        ).tolist()
        defaults = hostmod.default_ttls_np(
            built.host_seed, addrs, config.default_ttl_weights,
            config.custom_ttl_probability,
        ).tolist()
        deltas = hostmod.reverse_path_deltas_np(
            built.host_seed, addrs, config.reverse_delta_weights
        ).tolist()
        for position, (index, allocation, path) in enumerate(host_probes):
            if not up[position] or lost[position]:
                continue
            reverse_len = max(1, len(path) + deltas[position])
            observed_ttl = max(0, defaults[position] - reverse_len)
            rtt = (
                2.0 * self._propagation_sums(path)[len(path)]
                + HOST_LATENCY_MS
                + jitter[index]
            )
            if spike_flags[index]:
                rtt += spike_ms[index]
            pod = allocation.pod
            dst = dsts[index]
            if pod.cellular and self._radio.promotion_applies(
                dst, clocks[index]
            ):
                low, high = pod.promotion_delay_range
                rtt += 1000.0 * promotion_delay_seconds(
                    built.host_seed, dst, low, high
                )
            replies[index] = IcmpReply(
                ReplyKind.ECHO_REPLY, dst, observed_ttl, rtt
            )

    def _propagation_sums(self, path: tuple) -> List[float]:
        """Prefix sums of per-router latency along a path; entry ``k``
        is the left-to-right sum over ``path[:k]``, so doubling it
        reproduces :func:`path_rtt_ms`'s propagation term bitwise.
        Paths are signature-deduplicated tuples, so the cache stays
        small."""
        sums = self._prop_cache.get(path)
        if sums is None:
            total = 0.0
            sums = [0.0]
            for router in path:
                total = total + router.latency_ms
                sums.append(total)
            self._prop_cache[path] = sums
        return sums

    # -- fast host queries (for the ZMap scan and tests) ---------------------

    def is_host_up(self, addr: int, epoch: Optional[int] = None) -> bool:
        """Oracle form of an echo probe (no loss, no clock movement)."""
        allocation = self._allocation_of(addr)
        if allocation is None:
            return False
        if epoch is None:
            epoch = self.current_epoch
        pod = allocation.pod
        availability_key = (
            self.events.availability_key(pod, addr, epoch)
            if self.events is not None
            else addr
        )
        return hostmod.host_up_in_epoch(
            self._built.host_seed, availability_key, epoch, pod.host_density,
            pod.host_stability, pod.sleep_probability,
        )

    def active_addresses_in_slash24(
        self, slash24: Prefix, epoch: Optional[int] = None
    ) -> List[int]:
        """All addresses of one /24 that are up in ``epoch``."""
        return self.active_addresses([slash24], epoch).get(
            slash24.network, []
        )

    def active_addresses(
        self, slash24s: Iterable[Prefix], epoch: Optional[int] = None
    ) -> Dict[int, List[int]]:
        """Vectorised sweep: /24 network → addresses up in ``epoch``.

        Only /24s with an active address appear, in input order. Each
        chunk of at most :data:`SWEEP_CHUNK_ADDRESSES` addresses is
        hashed in one :func:`hosts.hosts_up_in_epoch_np` call over the
        allocation spans of its /24s, with each span's pod parameters
        repeated per address, and the kept addresses are split back per
        /24 with ``searchsorted``.
        """
        if epoch is None:
            epoch = self.current_epoch
        slash24s = list(slash24s)
        per_chunk = SWEEP_CHUNK_ADDRESSES // 256
        result: Dict[int, List[int]] = {}
        for start in range(0, len(slash24s), per_chunk):
            self._sweep_chunk(slash24s[start:start + per_chunk], epoch, result)
        return result

    def _sweep_chunk(
        self, chunk: List[Prefix], epoch: int, result: Dict[int, List[int]]
    ) -> None:
        """Sweep one chunk of :meth:`active_addresses` into ``result``."""
        firsts: List[int] = []
        sizes: List[int] = []
        owners: List[int] = []
        pods: List[Pod] = []
        unordered: set = set()
        for index, slash24 in enumerate(chunk):
            bottom, top = slash24.first, slash24.last
            previous_last = -1
            for allocation in self.allocations.allocations_within(slash24):
                first = max(allocation.prefix.first, bottom)
                last = min(allocation.prefix.last, top)
                # allocations_within walks the trie in address order,
                # so a /24's spans concatenate sorted unless they
                # overlap.
                if first <= previous_last:
                    unordered.add(index)
                previous_last = last
                firsts.append(first)
                sizes.append(last - first + 1)
                owners.append(index)
                pods.append(allocation.pod)
        if not sizes:
            return
        span_sizes = np.array(sizes, dtype=np.int64)
        ends = np.cumsum(span_sizes)
        starts = ends - span_sizes
        addrs = np.repeat(
            np.array(firsts, dtype=np.uint64) - starts.astype(np.uint64),
            span_sizes,
        ) + np.arange(int(ends[-1]), dtype=np.uint64)
        keys = addrs
        if self.events is not None:
            keys = addrs.copy()
            for span, pod in enumerate(pods):
                if self.events.renumbering(pod):
                    span_addrs = slice(int(starts[span]), int(ends[span]))
                    keys[span_addrs] = self.events.availability_keys_np(
                        pod, addrs[span_addrs], epoch
                    )

        def per_address(values: List[float]) -> np.ndarray:
            return np.repeat(np.array(values, dtype=np.float64), span_sizes)

        mask = hostmod.hosts_up_in_epoch_np(
            self._built.host_seed, keys, epoch,
            per_address([pod.host_density for pod in pods]),
            per_address([pod.host_stability for pod in pods]),
            per_address([pod.sleep_probability for pod in pods]),
        )
        kept = addrs[mask].tolist()
        owner_of = np.repeat(np.array(owners, dtype=np.int64), span_sizes)
        bounds = np.searchsorted(
            owner_of[mask], np.arange(len(chunk) + 1)
        ).tolist()
        for index, slash24 in enumerate(chunk):
            active = kept[bounds[index]:bounds[index + 1]]
            if not active:
                continue
            if index in unordered:
                active.sort()
            result[slash24.network] = active

    # -- dynamic events ------------------------------------------------------

    def apply_event_reroutes(self) -> int:
        """Apply the schedule's one-shot routing shifts (idempotent).

        Returns the number of pods whose metro routes changed. On any
        change the forwarder's compiled state, path cache and this
        internet's propagation cache are invalidated, so the object,
        batched and compiled engines all resolve through the shifted
        FIBs from the next probe on. Campaign executors call this at
        campaign entry — the shift lands between the snapshot scan and
        the probing, which is the race being modelled."""
        if self.events is None:
            return 0
        changed = self.events.apply_reroutes(self._built)
        if changed:
            self.forwarder._reset_compiled_state()
            self._prop_cache.clear()
        return changed

    # -- naming -------------------------------------------------------------

    def rdns_lookup(self, addr: int) -> Optional[str]:
        """PTR lookup for any address (host or router interface)."""
        router = self.topology.by_address(addr)
        if router is not None:
            return router_rdns_name(router.label)
        pod = self.allocations.pod_of(addr)
        if pod is None:
            return None
        pattern_id = self._pattern_id_for(pod, addr)
        return rdns_name(
            pod.rdns_scheme, pattern_id, addr, self._built.host_seed
        )

    def rdns_pattern_of(self, addr: int) -> Optional[str]:
        """The canonical pattern label the address's name matches."""
        pod = self.allocations.pod_of(addr)
        if pod is None:
            return None
        return pattern_label(pod.rdns_scheme, self._pattern_id_for(pod, addr))

    @staticmethod
    def _pattern_id_for(pod: Pod, addr: int) -> int:
        if pod.rdns_second_pattern_id is not None and (addr & 0xFF) >= 128:
            return pod.rdns_second_pattern_id
        return pod.rdns_pattern_id

    # -- bitcoin nodes (negative control for Section 7.2) --------------------

    def is_bitcoin_node(self, addr: int) -> bool:
        """True for the small subset of residential hosts that run a
        publicly-listed Bitcoin node."""
        pod = self.allocations.pod_of(addr)
        if pod is None or pod.rdns_scheme not in ("residential", "twc"):
            return False
        if not self.is_host_up(addr):
            return False
        return (
            mix_to_unit(self._built.host_seed ^ _BITCOIN, addr)
            < BITCOIN_NODE_PROBABILITY
        )

    def bitcoin_nodes_in(self, slash24s: List[Prefix]) -> List[int]:
        nodes: List[int] = []
        for slash24 in slash24s:
            for addr in self.active_addresses_in_slash24(slash24):
                if self.is_bitcoin_node(addr):
                    nodes.append(addr)
        return nodes

    # -- diagnostics ----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        forwarder = self.forwarder.cache_stats()
        if self.events is not None:
            events_stats = {
                f"events_{name}": value
                for name, value in sorted(self.events.counters.items())
            }
        else:
            events_stats = {}
        return {
            **events_stats,
            "probe_count": self.probe_count,
            "clock_seconds": self.clock_seconds,
            "routers": len(self.topology),
            "pods": len(self.pods),
            "allocations": len(self.allocations),
            "slash24s": len(self.universe_slash24s),
            "forwarder_cache": self.forwarder.cache_size,
            "forwarder_cache_hits": forwarder["hits"],
            "forwarder_cache_misses": forwarder["misses"],
            "forwarder_cache_hit_rate": forwarder["hit_rate"],
            "forwarder_shared_paths": forwarder["shared_paths"],
            "probe_seconds": self.probe_seconds,
            "probe_us_avg": (
                1e6 * self.probe_seconds / self.probe_count
                if self.probe_count else 0.0
            ),
            "probe_batches": self.probe_batches,
            "batched_probes": self.batched_probes,
        }
