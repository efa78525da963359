"""The simulated Internet: the state every probe reads and advances.

:class:`SimulatedInternet` holds what a measurement host's probes see
and change — the virtual clock, the probe nonce, router token buckets
and the cellular radio tracker — plus the out-of-band databases the
paper consults (GeoLite, WHOIS, reverse DNS) and, unlike the real
Internet, a ground-truth oracle for scoring.

A virtual clock advances a fixed amount per probe; host availability is
a function of the epoch the clock falls in, which is how the ZMap
snapshot (taken in an earlier epoch) goes stale by probe time.

Probes run on the compiled engine (:mod:`repro.core.fastengine`), which
answers them from route templates and commits here the state they
advance. ``tests/oracle.py`` keeps the probe-at-a-time reference it must
match bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from .orgs import OrgRegistry
from .rdns import rdns_name, router_rdns_name
from .routing import Forwarder
from .rtt import CellularRadioTracker
from .topology import Topology
from .whois import WhoisService

_BITCOIN = stable_string_hash("bitcoin-node")
#: Probability that an active residential host runs a Bitcoin node.
BITCOIN_NODE_PROBABILITY = 0.004

#: Addresses hashed per numpy pass of :meth:`SimulatedInternet.
#: active_addresses` (64 /24s): large enough that per-call overhead
#: vanishes, small enough that the pass's temporaries stay about 1 MiB.
#: At scale 0.25 the sweep ran faster in chunks of 16,384 addresses
#: than of 65,536, and at paper-smoke scale it took 4 MiB less memory.
SWEEP_CHUNK_ADDRESSES = 1 << 14

#: The most active addresses the sweep reserves room for up front: just
#: over 32 MiB, so that glibc maps the buffer on its own (mmap), and it
#: grows and shrinks in place (mremap) without its data being copied.
SWEEP_RESERVE_ADDRESSES = (1 << 23) + 1

#: How the sweep stores an active address: four bytes, little-endian.
ADDRESS_DTYPE = np.dtype("<u4")


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
        #: Wall-clock seconds the compiled engine spent probing, for
        #: time attribution via :meth:`stats`.
        self.probe_seconds: float = 0.0
        #: Route-template lookups the compiled engine made, and how many
        #: of them had to build a template; kept here so that they
        #: outlive the engine, which is rebuilt when routing changes.
        self.template_lookups: int = 0
        self.template_builds: int = 0
        self._radio = CellularRadioTracker()
        #: Dynamic-event schedule, or None when every event knob is at
        #: zero intensity (the probe paths then skip all event checks).
        self.events: Optional[EventSchedule] = build_event_schedule(built)
        self._nonce = 0
        #: Rate limiters that consumed tokens since the last context
        #: switch (kept small so context resets stay O(touched)).
        self._touched_limiters: set = set()
        # Compiled allocation index (flat sorted intervals); builds
        # lazily.
        self._alloc_index: Optional[tuple] = None
        #: (snapshot weakref, allocation revision, table): the compiled
        #: engine's host table of the snapshot it last measured
        #: (:func:`repro.core.fastengine.host_table_for`).
        self._host_table: Optional[tuple] = None

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "SimulatedInternet":
        return cls(build_scenario(config))

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

    def _allocation_of(self, addr: int) -> Optional[Allocation]:
        """Most-specific allocation for an address: one bisect over the
        allocation trie flattened into sorted intervals
        ``(revision, starts, values)``, rebuilt when it changes."""
        index = self._alloc_index
        if index is None or index[0] != self.allocations.revision:
            points = self.allocations.leaf_intervals()
            index = (
                self.allocations.revision,
                [start for start, _ in points],
                [value for _, value in points],
            )
            self._alloc_index = index
        return index[2][bisect_right(index[1], addr) - 1]

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
        """All addresses of one /24 that are up in ``epoch``, sorted."""
        return self.active_addresses([slash24], epoch)[2].tolist()

    def active_addresses(
        self, slash24s: Iterable[Prefix], epoch: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised sweep of the addresses up in ``epoch``, columnar.

        Returns ``(networks, offsets, addresses)``: the networks
        (uint32) of the /24s with an active address, in network order
        and each once, however often ``slash24s`` names it; and
        ``addresses[offsets[i]:offsets[i + 1]]`` (:data:`ADDRESS_DTYPE`),
        the sorted active addresses of ``networks[i]``.

        Each chunk of at most :data:`SWEEP_CHUNK_ADDRESSES` addresses is
        hashed in one :func:`hosts.hosts_up_in_epoch_np` call over the
        allocation spans of its /24s, with each span's pod parameters
        repeated per address. The kept addresses go straight into one
        buffer, so the sweep builds no per-/24 list and never copies
        the address array whole. The buffer has room for every address
        of the /24s, up to :data:`SWEEP_RESERVE_ADDRESSES`; the pages it
        never writes cost no memory, and it is cut to size at the end.
        """
        if epoch is None:
            epoch = self.current_epoch
        networks = np.unique(np.fromiter(
            (slash24.network for slash24 in slash24s), dtype=np.uint32
        ))
        counts = np.zeros(len(networks), dtype=np.int64)
        addresses = np.empty(
            min(256 * len(networks), SWEEP_RESERVE_ADDRESSES),
            dtype=ADDRESS_DTYPE,
        )
        used = 0
        per_chunk = SWEEP_CHUNK_ADDRESSES // 256
        for start in range(0, len(networks), per_chunk):
            chunk = [
                Prefix(network, 24)
                for network in networks[start:start + per_chunk].tolist()
            ]
            active, chunk_counts = self._sweep_chunk(chunk, epoch)
            counts[start:start + len(chunk)] = chunk_counts
            if used + len(active) > len(addresses):
                # Growing zero-fills the new room, so grow by an eighth.
                addresses.resize(
                    max(used + len(active), len(addresses) * 9 // 8),
                    refcheck=False,
                )
            addresses[used:used + len(active)] = active
            used += len(active)
        addresses.resize(used, refcheck=False)
        present = counts > 0
        offsets = np.zeros(int(np.count_nonzero(present)) + 1, dtype=np.int64)
        np.cumsum(counts[present], out=offsets[1:])
        return networks[present], offsets, addresses

    def _sweep_chunk(
        self, chunk: List[Prefix], epoch: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sweep one chunk of :meth:`active_addresses`: its active
        addresses, /24 by /24 and sorted within each, and how many each
        of its /24s has."""
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
            return (
                np.empty(0, dtype=np.uint64),
                np.zeros(len(chunk), dtype=np.int64),
            )
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
        active = addrs[mask]
        owner_of = np.repeat(np.array(owners, dtype=np.int64), span_sizes)
        counts = np.bincount(owner_of[mask], minlength=len(chunk))
        if unordered:
            ends = np.cumsum(counts)
            for index in unordered:
                active[ends[index] - counts[index]:ends[index]].sort()
        return active, counts

    # -- dynamic events ------------------------------------------------------

    def apply_event_reroutes(self) -> int:
        """Apply the schedule's one-shot routing shifts (idempotent).

        Returns the number of pods whose metro routes changed. On any
        change the forwarder's compiled state is dropped, so the
        compiled engine rebuilds its route templates from the shifted
        FIBs before the next probe. Campaign executors call this at
        campaign entry — the shift lands between the snapshot scan and
        the probing, which is the race being modelled."""
        if self.events is None:
            return 0
        changed = self.events.apply_reroutes(self._built)
        if changed:
            self.forwarder._reset_compiled_state()
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
        if self.events is not None:
            events_stats = {
                f"events_{name}": value
                for name, value in sorted(self.events.counters.items())
            }
        else:
            events_stats = {}
        lookups = self.template_lookups
        return {
            **events_stats,
            "probe_count": self.probe_count,
            "clock_seconds": self.clock_seconds,
            "routers": len(self.topology),
            "pods": len(self.pods),
            "allocations": len(self.allocations),
            "slash24s": len(self.universe_slash24s),
            # The share of route-template lookups served by a template
            # already built (the compiled forwarding plane's reuse).
            "forwarder_cache_hit_rate": (
                (lookups - self.template_builds) / lookups
                if lookups else 0.0
            ),
            "probe_seconds": self.probe_seconds,
            "probe_us_avg": (
                1e6 * self.probe_seconds / self.probe_count
                if self.probe_count else 0.0
            ),
        }
