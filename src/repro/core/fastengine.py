"""Compiled measurement engine: route templates + incremental rules.

Every per-/24 measurement — destination selection (Section 3.3),
last-hop identification by echo-TTL inference with halving (3.4) and
the termination rules (3.5) — is a long serial probe sequence (echo,
locate ladder, last-hop enumeration), and so is the path dataset's
Paris-traceroute MDA (Sections 3.1 and 7.1): one trace per flow, up to
three attempts per TTL. Their *replies* depend on only a handful of
facts per probe: which router sits at the probed TTL (or that the TTL
overshoots the path), whether that router responds and has rate-limiter
tokens, one stochastic-loss draw, and — for host probes — the
destination's availability in the current epoch plus two per-address
constants (default TTL, reverse-path delta). RTT values never influence
what either observes, so the engine skips them; only ping (Section 5.2's
RTT series, :meth:`FastCampaignEngine.ping`) computes them, for its echo
replies alone.

This module exploits that: it flattens the compiled forwarding plane
into a **route template** — one slot per path position, each slot
either a fixed router or a load-balancer choice — under the invariant
that every branch of a choice has an identical continuation (true of
the builder's diamond topologies). One template serves every
destination in the address range over which each FIB interval its walk
consulted is the same; it is specialised once per source (the source
hashed into the balancer slots that read it) and then per destination,
at one or two splitmix64 evaluations per balancer slot, when a probe
first reads that slot's position (most positions are never read). A
probe at TTL *t* then needs at most one splitmix64 evaluation (the slot
at position ``t-1``) instead of a walk through every FIB on the path
plus reply-object construction.

A destination's host constants (default TTL, reverse-path delta) and
its epoch-free availability draws come from the snapshot's
:class:`HostTable` when a /24 of the snapshot is measured; it is hashed
with numpy once per snapshot, the first time a measurement needs it.
Destinations traced or pinged on their own, and availability keys that
renumbering remaps, are drawn by the scalar :mod:`repro.netsim.hosts`
functions, which stay the definition the table matches bit for bit.
A destination whose template cannot be built (a forwarding loop, a
router with no FIB or no route, divergent branch continuations, a
balancer type the engine does not know, a path of
:data:`~repro.probing.session.ECHO_TTL` or more hops) raises
:class:`RouteTemplateError` naming it; nothing measures it another way.

Parity contract: for every policy type the engine accepts, its
measurement (observations, category, stop reason, ``probes_used``), its
:class:`~repro.probing.session.ProbeStats`, the RNG it draws from and
the simulator end state (``probe_count``, clock, nonce, rate-limiter
buckets, the cellular radio tracker, event counters) are bit-identical
to the object classifier kept as the reference in ``tests/oracle.py``,
which probes through a :class:`~repro.probing.session.Prober`; its
traced routes, ``probes_used``, stats and end state are likewise
bit-identical to the object MDA, which traces Paris-traceroute style
through a ``Prober``, kept there, and its ping RTTs (compared by their
bits), stats and end state to the object ping kept there. The engine
continues whatever measurement context the simulator is in: the
campaign pins a fresh one per /24, while the confidence dataset,
strict-het re-probing, cluster-validation reprobing, the path dataset
and the cellular RTT study run a sequence of /24s or destinations in
one context. ``tests/core/test_columnar_campaign.py`` enforces the
contract on whole campaigns and ``tests/core/test_phase_parity.py`` on
shared-context sequences, with the reference installed by the
``tests/oracle.py`` switch.

Simulator state that probes mutate — the clock, the nonce, rate-limiter
buckets (seeded from their live state) and the radio tracker — is
mirrored locally by one probe mirror
(:meth:`FastCampaignEngine._probe_mirror`) and committed when the /24,
the destination's trace or the ping train completes.
"""

from __future__ import annotations

import math
import random
import time
import weakref
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..net.addr import format_address
from ..netsim import hosts as hostmod
from ..netsim.internet import SWEEP_CHUNK_ADDRESSES
from ..netsim.icmp import infer_hop_count
from ..netsim.loadbalance import (
    HybridBalancer,
    PerDestinationBalancer,
    PerFlowBalancer,
    PerPacketBalancer,
)
from ..netsim.rtt import path_rtt_ms
from ..obs.metrics import current_metrics
from ..probing.session import ECHO_TTL, ProbeStats
from ..probing.stopping import DEFAULT_CONFIDENCE, probes_required
from ..probing.traceroute import DEFAULT_MAX_TTL, Route
from ..probing.zmap import ActivitySnapshot
from ..util.hashing import MASK64, splitmix64
from .classifier import (
    Category,
    Slash24Measurement,
    closing_category_from_state,
)
from .confidence import ConfidenceTable
from .selection import meets_selection_criteria, round_robin_order
from .termination import (
    ExhaustivePolicy,
    ReprobePolicy,
    TerminationPolicy,
    TerminationState,
)

_TWO64 = float(1 << 64)

#: Seconds between consecutive echo requests of a ping train.
PING_INTERVAL_SECONDS = 0.5
#: The flow id every echo request of a ping carries.
PING_FLOW = 0

#: Registry counters each probe mirror commits when it finishes: the
#: balancer slots its probes specialised to a destination, and the
#: destinations whose programs took their host constants from a host
#: table or from the scalar host functions.
ENGINE_COUNTERS = (
    "engine.slots_specialised",
    "engine.destinations.table",
    "engine.destinations.scalar",
)

# Slot kinds a probe evaluates. A template holds _FIXED and _BY_NONCE
# slots as they are; the kinds below them become one of these per
# destination.
_FIXED = 0     # (0, (responds, limiter, address))
_BY_FLOW = 1   # (1, pre, n, members) — index = splitmix64(pre ^ flow) % n
_BY_NONCE = 2  # (2, pre, n, members) — index = splitmix64(pre ^ nonce) % n

# Template-slot kinds that depend on the destination. Each stores its
# balancer's salt hashed, h = splitmix64(salt) (a hybrid also
# h2 = splitmix64(salt ^ 0x5A5A)). Specialised to a source, a slot
# becomes a pending slot below, with the source hashed in where the
# balancer reads it. Below, sm is splitmix64.
_T_PER_FLOW = 3  # (3, h, n, members) → (6, sm(h ^ src), n, members)
_T_PER_DEST = 4  # (4, h, include_source, n, members)
#                  → (7, sm(h ^ src) if include_source else h, n, members)
_T_HYBRID = 5    # (5, h, h2, n, members) → (8, h, sm(h2 ^ src), n, members)

# Pending slot kinds: a program holds them until a probe first reads
# their position, which specialises them to the destination in place,
# at one splitmix64 per per-flow or per-destination slot and two per
# hybrid slot.
_S_PER_FLOW = 6  # (6, a, n, members) → (_BY_FLOW, sm(a ^ dst), n, members)
_S_PER_DEST = 7  # (7, a, n, members) → (_FIXED, members[sm(a ^ dst) % n])
_S_HYBRID = 8    # (8, a, b, n, members) → (_BY_FLOW, sm(b ^ dst), 2, the
#                  pair from members[sm(a ^ dst) % n])


class RouteTemplateError(RuntimeError):
    """The route towards a destination cannot be flattened into a route
    template, so neither its /24 can be measured nor it traced."""


def check_policy(policy) -> None:
    """Refuse a policy the engine does not replicate.

    Only the exact policy and confidence-table types the engine
    replicates are accepted: a subclass may override hooks the engine
    inlines, so it raises :class:`TypeError` rather than being measured
    by rules it does not define.
    """
    kind = type(policy)
    if kind is TerminationPolicy:
        table = policy.confidence_table
        if table is not None and type(table) is not ConfidenceTable:
            raise TypeError(
                "the campaign engine measures with ConfidenceTable, not "
                f"{type(table).__name__}"
            )
    elif kind not in (ReprobePolicy, ExhaustivePolicy):
        raise TypeError(
            "the campaign engine measures TerminationPolicy, ReprobePolicy "
            f"or ExhaustivePolicy, not {kind.__name__}"
        )


def fast_engine_for(internet) -> "FastCampaignEngine":
    """The engine that measures /24s and traces paths on ``internet``."""
    engine = getattr(internet, "_fast_engine", None)
    if engine is None or not engine.valid():
        engine = FastCampaignEngine(internet)
        internet._fast_engine = engine
    return engine


def _specialise(slots: list, position: int, dst: int) -> tuple:
    """Specialise the pending slot at ``position`` to ``dst``, in
    place, and return it."""
    slot = slots[position]
    kind = slot[0]
    if kind == _S_PER_FLOW:
        _, a, n, members = slot
        slot = (_BY_FLOW, splitmix64(a ^ dst), n, members)
    elif kind == _S_PER_DEST:
        _, a, n, members = slot
        slot = (_FIXED, members[splitmix64(a ^ dst) % n])
    else:  # _S_HYBRID
        _, a, b, n, members = slot
        first = splitmix64(a ^ dst) % n
        slot = (
            _BY_FLOW, splitmix64(b ^ dst), 2,
            (members[first], members[(first + 1) % n]),
        )
    slots[position] = slot
    return slot


class _DstProgram:
    """A route template specialised to one source and destination.

    ``slots`` is the template's tuple when no slot depends on the
    destination, else a list of the program's own whose pending slots
    are specialised when a probe first reads them.
    """

    __slots__ = (
        "dst", "slots", "length", "observed_ttl", "pod", "flags",
        "up_epoch", "allocated", "cellular_dst",
    )

    def __init__(self, dst, slots, length, observed_ttl, pod, flags,
                 allocated, cellular_dst=None):
        self.dst = dst
        self.slots = slots
        self.length = length
        self.observed_ttl = observed_ttl
        #: The destination's pod (its availability parameters, and with
        #: a dynamic-event schedule its outage windows and renumbering
        #: keys).
        self.pod = pod
        #: The destination's host-table flags
        #: (:func:`repro.netsim.hosts.host_flags_np`), or None when its
        #: availability is drawn by the scalar functions.
        self.flags = flags
        #: Memoized (epoch, up, renumbered) availability of this
        #: destination; ``renumbered`` is whether its availability key
        #: differed from the address (each such lookup counts once in
        #: ``events.renumber``).
        self.up_epoch: Optional[Tuple[int, bool, bool]] = None
        self.allocated = allocated
        #: The destination when its pod is cellular (its echo replies
        #: wake the radio the tracker follows), else None.
        self.cellular_dst = cellular_dst

    def specialise_all(self) -> int:
        """Specialise every pending slot; returns how many were."""
        count = 0
        for position, slot in enumerate(self.slots):
            if slot[0] > _BY_NONCE:
                _specialise(self.slots, position, self.dst)
                count += 1
        return count


class HostTable:
    """The host constants of an activity snapshot's addresses, row for
    row with ``snapshot.addresses``.

    Per address: the default TTL, the reverse-path delta, and the
    epoch-free availability draws as flags
    (:func:`repro.netsim.hosts.host_flags_np`), each drawn with the
    pod of the address's leaf allocation. Every column takes the
    narrowest integer type that holds its values: one byte each, three
    per address, with the shipped weights.
    """

    __slots__ = ("ttls", "deltas", "flags", "views")

    def __init__(
        self, ttls: np.ndarray, deltas: np.ndarray, flags: np.ndarray
    ) -> None:
        self.ttls = ttls
        self.deltas = deltas
        self.flags = flags
        #: The columns as memoryviews, whose items are Python ints: the
        #: engine reads one row per destination, and a numpy scalar
        #: costs several times as much.
        self.views = (
            memoryview(ttls), memoryview(deltas), memoryview(flags)
        )

    @property
    def nbytes(self) -> int:
        return self.ttls.nbytes + self.deltas.nbytes + self.flags.nbytes

    @classmethod
    def build(cls, internet, snapshot: ActivitySnapshot) -> "HostTable":
        """Hash the table of ``snapshot``'s addresses on ``internet``,
        :data:`~repro.netsim.internet.SWEEP_CHUNK_ADDRESSES` addresses
        per numpy pass."""
        config = internet.config
        seed = internet._built.host_seed
        points = internet.allocations.leaf_intervals()
        starts = np.array([start for start, _ in points], dtype=np.uint64)
        density = np.array([
            allocation.pod.host_density if allocation is not None else 0.0
            for _, allocation in points
        ])
        stability = np.array([
            allocation.pod.host_stability if allocation is not None else 0.0
            for _, allocation in points
        ])
        ttl_weights = config.default_ttl_weights
        delta_weights = config.reverse_delta_weights
        count = snapshot.total_active
        ttls = np.empty(count, dtype=_narrowest_int(
            [value for value, _ in ttl_weights] + list(hostmod.CUSTOM_TTLS)
        ))
        deltas = np.empty(count, dtype=_narrowest_int(
            [value for value, _ in delta_weights]
        ))
        flags = np.empty(count, dtype=np.uint8)
        for start in range(0, count, SWEEP_CHUNK_ADDRESSES):
            stop = start + SWEEP_CHUNK_ADDRESSES
            addrs = snapshot.addresses[start:stop].astype(np.uint64)
            leaf = np.searchsorted(starts, addrs, side="right") - 1
            ttls[start:stop] = hostmod.default_ttls_np(
                seed, addrs, ttl_weights, config.custom_ttl_probability
            )
            deltas[start:stop] = hostmod.reverse_path_deltas_np(
                seed, addrs, delta_weights
            )
            flags[start:stop] = hostmod.host_flags_np(
                seed, addrs, density[leaf], stability[leaf]
            )
        return cls(ttls, deltas, flags)


def _narrowest_int(values: Sequence[int]) -> np.dtype:
    """The narrowest integer dtype that holds every one of ``values``."""
    low, high = min(values), max(values)
    for dtype in (np.int8, np.uint8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def host_table_for(internet, snapshot: ActivitySnapshot) -> HostTable:
    """``snapshot``'s :class:`HostTable` on ``internet``.

    Built the first time it is asked for and kept on the simulator, so
    it outlives an engine rebuilt after a routing change, until another
    snapshot's table or an allocation change replaces it. A forked
    campaign worker inherits it.
    """
    cached = internet._host_table
    revision = internet.allocations.revision
    if cached is None or cached[0]() is not snapshot or cached[1] != revision:
        cached = (
            weakref.ref(snapshot), revision,
            HostTable.build(internet, snapshot),
        )
        internet._host_table = cached
    return cached[2]


class FastCampaignEngine:
    """Per-simulator compiled campaign executor. See module docstring."""

    def __init__(self, internet) -> None:
        self.internet = internet
        forwarder = internet.forwarder
        # Staleness anchors: _reset_compiled_state replaces the dict
        # object wholesale, and allocation changes bump the revision.
        self._compiled_ref = forwarder._compiled
        self._alloc_revision = internet.allocations.revision
        #: Sorted starts of the disjoint address ranges whose route
        #: template is built, and per range ``(end, template, by_source)``
        #: with ``by_source`` mapping a source to its specialised slots.
        self._range_starts: List[int] = []
        self._ranges: List[Tuple[int, tuple, Dict[int, tuple]]] = []
        built = internet._built
        self._host_seed = built.host_seed
        self._loss_base = splitmix64(built.loss_seed & MASK64)
        #: Programs made with host constants from a host table, and
        #: with scalar ones; each probe mirror commits its share.
        self.table_destinations = 0
        self.scalar_destinations = 0

    def valid(self) -> bool:
        forwarder = self.internet.forwarder
        return (
            self._compiled_ref is forwarder._compiled
            and self._alloc_revision == self.internet.allocations.revision
        )

    # -- route templates --------------------------------------------------

    @staticmethod
    def _member(router) -> tuple:
        return (
            router.responds_to_ttl_exceeded, router.rate_limiter,
            router.address,
        )

    def _choice_slot(self, selector, members: tuple) -> tuple:
        data = tuple(self._member(m) for m in members)
        kind = type(selector)
        salt = selector.salt
        if kind is PerFlowBalancer:
            return (_T_PER_FLOW, splitmix64(salt & MASK64), len(data), data)
        if kind is PerDestinationBalancer:
            return (
                _T_PER_DEST, splitmix64(salt & MASK64),
                selector.include_source, len(data), data,
            )
        if kind is HybridBalancer:
            return (
                _T_HYBRID, splitmix64(salt & MASK64),
                splitmix64((salt ^ 0x5A5A) & MASK64), len(data), data,
            )
        if kind is PerPacketBalancer:
            return (_BY_NONCE, splitmix64(salt & MASK64), len(data), data)
        raise RouteTemplateError(f"selector {kind.__name__}")

    def _build_template(self, dst: int) -> Tuple[tuple, int, int]:
        """Flatten the forwarding DAG towards ``dst`` into slots.

        Returns ``(slots, start, end)``: ``[start, end)`` is the
        intersection of every FIB interval the walk consulted, so each
        destination in it consults the same entries and gets the same
        slots. Two such ranges are therefore equal or disjoint.
        """
        forwarder = self.internet.forwarder
        by_id = forwarder.topology.by_id
        fibs = forwarder.fibs
        compiled_fib = forwarder._compiled_fib
        memo: Dict[int, tuple] = {}
        building: set = set()
        start, end = 0, 1 << 32

        def chain(router) -> tuple:
            nonlocal start, end
            rid = router.router_id
            cached = memo.get(rid)
            if cached is not None:
                return cached
            if rid in building:
                raise RouteTemplateError("forwarding loop")
            building.add(rid)
            fib = fibs.get(rid)
            if fib is None:
                raise RouteTemplateError("router has no FIB")
            cfib = compiled_fib(rid, fib)
            starts = cfib.starts
            index = bisect_right(starts, dst) - 1
            if starts[index] > start:
                start = starts[index]
            if index + 1 < len(starts) and starts[index + 1] < end:
                end = starts[index + 1]
            entry = cfib.values[index]
            if entry is None:
                raise RouteTemplateError("no route")
            if entry.delivers:
                out: tuple = ((_FIXED, self._member(router)),)
            else:
                selector = entry.selector
                hops = selector.next_hops
                if len(hops) == 1:
                    out = ((_FIXED, self._member(router)),) + chain(
                        by_id(hops[0])
                    )
                else:
                    members = tuple(by_id(hop) for hop in hops)
                    tails = [chain(member) for member in members]
                    rest = tails[0][1:]
                    for tail in tails[1:]:
                        if tail[1:] != rest:
                            # A branch changes the downstream path: the
                            # slot-per-position model cannot represent
                            # it, and the builder never produces it.
                            raise RouteTemplateError(
                                "divergent branch continuations"
                            )
                    out = (
                        (_FIXED, self._member(router)),
                        self._choice_slot(selector, members),
                    ) + rest
            building.discard(rid)
            memo[rid] = out
            return out

        slots = chain(forwarder.source_router)
        if len(slots) >= ECHO_TTL:
            # Echo probes would land on a router, which the echo step
            # does not model; built scenarios never come close.
            raise RouteTemplateError("path reaches echo TTL")
        return slots, start, end

    @staticmethod
    def _source_slots(template: tuple, src: int) -> Tuple[tuple, bool]:
        """The template specialised to ``src``: each destination-dependent
        slot becomes a pending slot with the source hashed in where its
        balancer reads it. Returns the slots and whether any is
        pending (the template itself when none is)."""
        slots = []
        for slot in template:
            kind = slot[0]
            if kind == _T_PER_FLOW:
                _, h, n, members = slot
                slot = (_S_PER_FLOW, splitmix64(h ^ src), n, members)
            elif kind == _T_PER_DEST:
                _, h, include_source, n, members = slot
                if include_source:
                    h = splitmix64(h ^ src)
                slot = (_S_PER_DEST, h, n, members)
            elif kind == _T_HYBRID:
                _, h, h2, n, members = slot
                slot = (_S_HYBRID, h, splitmix64(h2 ^ src), n, members)
            slots.append(slot)
        pending = any(slot[0] > _BY_NONCE for slot in slots)
        return (tuple(slots), True) if pending else (template, False)

    # -- per-destination specialization -----------------------------------

    def _program_for(
        self, dst: int, src: int,
        host: Optional[Tuple[int, int, int]] = None,
    ) -> _DstProgram:
        """``dst``'s program from ``src``. ``host`` is the destination's
        (default TTL, reverse-path delta, flags) row of a
        :class:`HostTable`; without one, the scalar host functions draw
        them."""
        internet = self.internet
        allocation = internet._allocation_of(dst)
        if allocation is None:
            # The object path's probes to unallocated space consume
            # clock/nonce and time out; no routing needed.
            return _DstProgram(dst, (), 0, 0, None, None, False)
        internet.template_lookups += 1
        starts = self._range_starts
        index = bisect_right(starts, dst) - 1
        if index >= 0 and dst < self._ranges[index][0]:
            _, template, by_source = self._ranges[index]
        else:
            # A build that raises caches nothing, so the error recurs
            # whenever a destination in this range is probed.
            internet.template_builds += 1
            template, start, end = self._build_template(dst)
            by_source = {}
            # Ranges are disjoint: the new one sorts right after the
            # last range starting at or below ``dst``.
            starts.insert(index + 1, start)
            self._ranges.insert(index + 1, (end, template, by_source))
        source_slots = by_source.get(src)
        if source_slots is None:
            source_slots = by_source[src] = self._source_slots(template, src)
        slots, pending = source_slots
        if pending:
            slots = list(slots)
        length = len(slots)
        pod = allocation.pod
        if host is None:
            self.scalar_destinations += 1
            config = internet.config
            default = hostmod.default_ttl(
                self._host_seed, dst, config.default_ttl_weights,
                config.custom_ttl_probability,
            )
            delta = hostmod.reverse_path_delta(
                self._host_seed, dst, config.reverse_delta_weights
            )
            flags = None
        else:
            self.table_destinations += 1
            default, delta, flags = host
        observed_ttl = max(0, default - max(1, length + delta))
        return _DstProgram(
            dst, slots, length, observed_ttl, pod, flags, True,
            dst if pod.cellular else None,
        )

    # -- the probe mirror -------------------------------------------------

    def _probe_mirror(self):
        """Mirror the simulator's probe primitive over route templates.

        Returns ``(send, ping, finish)``. ``send(prog, ttl, flow)``
        sends one probe towards ``prog.dst`` and returns None (timeout),
        -1 (echo reply) or the responding router's address
        (TTL-exceeded). ``ping(prog, gap)`` lets ``gap`` seconds pass,
        sends one echo request on :data:`PING_FLOW` and returns its RTT
        in ms, or None on timeout. Simulator state that probes mutate —
        the clock, the nonce, rate-limiter buckets (seeded from their
        live state) and the radio tracker — is mirrored locally;
        ``finish()`` commits it with the probe count and the engine's
        wall-clock, adds the mirror's share of :data:`ENGINE_COUNTERS`
        to the ambient registry, and returns the probes'
        :class:`ProbeStats`.

        A probe that reads a pending slot specialises it to the
        destination. A destination with host-table flags is drawn up or
        down by :func:`repro.netsim.hosts.host_up_from_flags`, with each
        /24's block-sleep draw made once per epoch in the mirror, unless
        renumbering remaps its availability key.
        """
        started = time.perf_counter()
        internet = self.internet
        config = internet.config
        step = config.probe_clock_step_seconds
        epoch_seconds = config.epoch_seconds
        host_seed = self._host_seed
        loss_base = self._loss_base
        p_router = config.router_loss_probability
        p_host = config.host_loss_probability
        host_up = hostmod.host_up_in_epoch
        host_up_from_flags = hostmod.host_up_from_flags
        floor = math.floor
        sm = splitmix64
        mask = MASK64
        #: Dynamic-event schedule (None in the common, event-free case).
        events = internet.events

        clock = internet.clock_seconds
        nonce = internet._nonce
        sent = 0
        answered = 0
        echo_replies = 0
        ttl_exceeded = 0
        # Local token-bucket mirrors, each seeded from its limiter's live
        # state on first use and written back by finish(): they
        # reproduce `allow` bit for bit without mutating the shared
        # buckets mid-measurement.
        limiters: Dict[object, List[float]] = {}
        # Cellular destination → clock of its latest echo reply (the
        # radio tracker's record, committed with the buckets).
        radio: Dict[int, float] = {}
        # (/24, epoch) → its block-sleep draw, for host-table flags.
        sleep_draws: Dict[Tuple[int, int], float] = {}
        specialised = 0
        table_base = self.table_destinations
        scalar_base = self.scalar_destinations

        def send(prog: _DstProgram, ttl: int, flow: int):
            nonlocal clock, nonce, sent, answered, echo_replies, ttl_exceeded
            nonlocal specialised
            sent += 1
            nonce += 1
            clock += step
            if not prog.allocated:
                return None
            if ttl <= prog.length:
                slot = prog.slots[ttl - 1]
                kind = slot[0]
                if kind > _BY_NONCE:
                    slot = _specialise(prog.slots, ttl - 1, prog.dst)
                    kind = slot[0]
                    specialised += 1
                if kind == _FIXED:
                    responds, limiter, address = slot[1]
                elif kind == _BY_FLOW:
                    responds, limiter, address = slot[3][
                        sm(slot[1] ^ flow) % slot[2]
                    ]
                else:
                    responds, limiter, address = slot[3][
                        sm(slot[1] ^ (nonce & mask)) % slot[2]
                    ]
                if not responds:
                    return None
                if limiter is not None:
                    state = limiters.get(limiter)
                    if state is None:
                        state = [limiter._tokens, limiter._last_time]
                        limiters[limiter] = state
                    tokens = state[0]
                    # Mirror RateLimiter.allow arithmetic-for-arithmetic,
                    # including the storm-scaled capacity/rate and clamp.
                    capacity = limiter.capacity
                    rate = limiter.rate_per_second
                    if events is not None:
                        scale = events.storm_scale(address, clock)
                        if scale != 1.0:
                            capacity = capacity * scale
                            rate = rate * scale
                            if tokens > capacity:
                                tokens = capacity
                    if clock > state[1]:
                        tokens = min(
                            capacity,
                            tokens + (clock - state[1]) * rate,
                        )
                        state[1] = clock
                    if tokens >= 1.0:
                        state[0] = tokens - 1.0
                    else:
                        state[0] = tokens
                        return None
                if (
                    p_router > 0.0
                    and sm(loss_base ^ (nonce & mask)) / _TWO64 < p_router
                ):
                    return None
                answered += 1
                ttl_exceeded += 1
                return address
            if events is not None and events.outage_active(prog.pod, clock):
                return None
            epoch = floor(clock / epoch_seconds)
            memo = prog.up_epoch
            if memo is not None and memo[0] == epoch:
                up = memo[1]
                if memo[2]:
                    # The object path looks the key up on every host
                    # probe, and each remapped lookup counts.
                    events.counters["renumber"] += 1
            else:
                # Renumbering keys availability on the subscriber identity
                # (canonical address), so the memo stays valid per epoch:
                # the key depends only on (pod, dst, epoch).
                key = prog.dst
                pod = prog.pod
                if events is not None:
                    key = events.availability_key(pod, key, epoch)
                if prog.flags is None or key != prog.dst:
                    up = host_up(
                        host_seed, key, epoch, pod.host_density,
                        pod.host_stability, pod.sleep_probability,
                    )
                else:
                    up = host_up_from_flags(
                        host_seed, key, epoch, prog.flags,
                        pod.sleep_probability, sleep_draws,
                    )
                prog.up_epoch = (epoch, up, key != prog.dst)
            if not up:
                return None
            if (
                p_host > 0.0
                and sm(loss_base ^ (nonce & mask)) / _TWO64 < p_host
            ):
                return None
            answered += 1
            echo_replies += 1
            if prog.cellular_dst is not None:
                radio[prog.cellular_dst] = clock
            return -1

        def ping(prog: _DstProgram, gap: float) -> Optional[float]:
            nonlocal clock, specialised
            if gap:
                clock += gap
            cellular = prog.cellular_dst
            if cellular is not None:
                # The radio's latest record before this echo: this
                # mirror's, else the one the simulator holds.
                last = radio.get(cellular)
                if last is None:
                    last = internet._radio._last_probe.get(cellular)
            if send(prog, ECHO_TTL, PING_FLOW) != -1:
                return None
            # The echo's path: the member each slot picks for this flow
            # and this probe's nonce.
            specialised += prog.specialise_all()
            by_address = internet.topology.by_address
            path = []
            for slot in prog.slots:
                kind = slot[0]
                if kind == _FIXED:
                    member = slot[1]
                elif kind == _BY_FLOW:
                    member = slot[3][sm(slot[1] ^ PING_FLOW) % slot[2]]
                else:
                    member = slot[3][sm(slot[1] ^ (nonce & mask)) % slot[2]]
                path.append(by_address(member[2]))
            rtt = path_rtt_ms(path, internet._built.rtt_seed, nonce)
            if cellular is not None and (
                last is None
                or clock - last > internet._radio.idle_timeout_seconds
            ):
                low, high = prog.pod.promotion_delay_range
                rtt += 1000.0 * hostmod.promotion_delay_seconds(
                    host_seed, cellular, low, high
                )
            return rtt

        def finish() -> ProbeStats:
            # The object path mutated this state probe by probe; the
            # totals are identical.
            internet.probe_count += sent
            internet.clock_seconds = clock
            internet._nonce = nonce
            touched = internet._touched_limiters
            for limiter, (tokens, last_time) in limiters.items():
                limiter._tokens = tokens
                limiter._last_time = last_time
                touched.add(limiter)
            if radio:
                internet._radio.record(radio)
            internet.probe_seconds += time.perf_counter() - started
            registry = current_metrics()
            for name, amount in zip(ENGINE_COUNTERS, (
                specialised,
                self.table_destinations - table_base,
                self.scalar_destinations - scalar_base,
            )):
                if amount:
                    registry.count(name, amount)
            return ProbeStats(sent, answered, echo_replies, ttl_exceeded)

        return send, ping, finish

    # -- measurement ------------------------------------------------------

    def measure(
        self,
        policy,
        slash24,
        snapshot: ActivitySnapshot,
        rng: random.Random,
        max_destinations: Optional[int],
        source: Optional[int] = None,
    ) -> Tuple[Slash24Measurement, ProbeStats]:
        """Measure one /24 of ``snapshot`` from ``source`` (None: the
        default vantage) — bit-identical to the object classifier over
        the /24's active list.

        Its destinations take their host constants from the snapshot's
        :class:`HostTable`, which the first /24 that meets the
        selection criteria builds. Continues the simulator's running
        measurement context and draws from ``rng`` exactly as the
        object classifier does, so neither needs to be fresh. Raises
        :class:`RouteTemplateError`, naming the /24, the destination
        and the reason, when a destination's route template cannot be
        built.
        """
        internet = self.internet
        result = Slash24Measurement(
            slash24=slash24, category=Category.TOO_FEW_ACTIVE
        )
        first_row, end_row = snapshot.bounds(slash24)
        snapshot_active = snapshot.addresses[first_row:end_row].tolist()
        if not meets_selection_criteria(snapshot_active):
            return result, ProbeStats()
        ttls, deltas, flags = host_table_for(internet, snapshot).views

        flow_seed = rng.randrange(1 << 30)
        send, _, finish = self._probe_mirror()
        observations: Dict[int, frozenset] = {}
        state = TerminationState()
        policy_kind = type(policy)
        is_termination = policy_kind is TerminationPolicy
        is_closing_policy = policy_kind in (ReprobePolicy, ExhaustivePolicy)
        src = source if source is not None else internet.vantage_address
        stopped = False

        # The order stays lazy: the object path draws each round's
        # shuffle only when it asks for the round's first destination,
        # and a caller that keeps using ``rng`` sees every draw.
        for index, dst in enumerate(round_robin_order(snapshot_active, rng)):
            if max_destinations is not None and index >= max_destinations:
                break
            row = first_row + bisect_left(snapshot_active, dst)
            try:
                prog = self._program_for(
                    dst, src, (ttls[row], deltas[row], flags[row])
                )
            except RouteTemplateError as error:
                raise RouteTemplateError(
                    f"cannot measure {slash24}: no route template towards "
                    f"{format_address(dst)} ({error})"
                ) from None
            fs = flow_seed + index * 101

            # Step 1 (mda): echo with retries — 3 attempts, flows 0..2;
            # counts once in probes_used, each attempt in stats.sent.
            reply = None
            for attempt in range(3):
                reply = send(prog, ECHO_TTL, attempt)
                if reply is not None:
                    break
            result.probes_used += 1
            if reply is None:
                continue
            result.hosts_responsive += 1
            # The template is shorter than ECHO_TTL, so the echo reached
            # the host: ``reply`` is an echo reply.
            estimate = max(1, infer_hop_count(prog.observed_ttl))

            # Step 2: locate the last-hop TTL, halving on overshoot.
            first_ttl = min(estimate, DEFAULT_MAX_TTL)
            distance = None
            while first_ttl >= 1:
                overshoot = False
                found = None
                for ttl in range(first_ttl, DEFAULT_MAX_TTL + 1):
                    got_echo = False
                    for attempt in range(2):
                        reply = send(prog, ttl, fs + attempt)
                        result.probes_used += 1
                        if reply is None:
                            continue
                        if reply == -1:
                            got_echo = True
                        break
                    if got_echo:
                        if ttl == first_ttl and first_ttl > 1:
                            overshoot = True
                        else:
                            found = ttl - 1 if ttl > 1 else None
                        break
                if overshoot:
                    first_ttl //= 2
                    continue
                distance = found
                break
            if distance is None:
                continue

            # Step 3: enumerate last-hop routers with the stopping rule.
            seen: set = set()
            probes_sent = 0
            while True:
                required = probes_required(
                    max(len(seen), 1), DEFAULT_CONFIDENCE
                )
                if probes_sent >= required:
                    break
                for flow in range(fs + probes_sent, fs + required):
                    reply = send(prog, distance, flow)
                    if reply is None or reply == -1:
                        continue
                    seen.add(reply)
                result.probes_used += required - probes_sent
                probes_sent = required
            if not seen:
                continue
            lasthops = frozenset(seen)
            observations[dst] = lasthops
            state.observe(dst, lasthops)
            result.destinations_probed = len(observations)
            reason = policy.should_stop_state(state)
            if reason is not None:
                stopped = True
                result.observations = observations
                result.stop_reason = reason
                result.category = closing_category_from_state(state)
                break
        if not stopped:
            # Ran out of destinations (or hit the destination cap)
            # before the policy was satisfied — the object path's tail
            # classification, on incremental aggregates.
            result.observations = observations
            result.destinations_probed = len(observations)
            if result.hosts_responsive < 4:
                result.category = Category.TOO_FEW_ACTIVE
            elif not observations:
                result.category = Category.UNRESPONSIVE_LASTHOP
            elif is_closing_policy:
                result.category = closing_category_from_state(state)
            elif (
                is_termination
                and policy.required_probes_state(state) is None
            ):
                result.category = closing_category_from_state(state)
            else:
                result.category = Category.TOO_FEW_ACTIVE
        return result, finish()

    # -- Paris-traceroute MDA ---------------------------------------------

    def enumerate_paths(
        self,
        dst: int,
        source: Optional[int],
        flow_seed: int,
        confidence: float,
        max_ttl: int,
        max_flows: int,
    ) -> Tuple[Set[Route], bool, ProbeStats]:
        """Enumerate the per-flow route set towards ``dst`` from
        ``source`` (None: the default vantage) — bit-identical to the
        object MDA over Paris traceroute kept in ``tests/oracle.py``.

        Traces flows ``flow_seed``, ``flow_seed + 1``, … while fewer
        flows have been tried than the stopping rule requires for the
        routes seen (at most ``max_flows``). Each trace keeps its flow
        and walks TTL 1..``max_ttl`` with up to 3 attempts per TTL: a
        TTL-exceeded reply gives the hop's address, 3 timeouts give
        None, and an echo reply ends the trace as reached; only reached
        traces contribute their route.

        Returns ``(routes, reached, stats)``; every probe counts in
        ``stats.sent``. Continues the simulator's running measurement
        context. Raises :class:`RouteTemplateError`, naming the
        destination and the reason, when its route template cannot be
        built.
        """
        internet = self.internet
        src = source if source is not None else internet.vantage_address
        # The mirror first, so that it counts the program built below.
        send, _, finish = self._probe_mirror()
        try:
            prog = self._program_for(dst, src)
        except RouteTemplateError as error:
            raise RouteTemplateError(
                f"cannot trace {format_address(dst)}: no route template "
                f"({error})"
            ) from None
        routes: Set[Route] = set()
        reached = False
        flows_tried = 0
        while flows_tried < min(
            probes_required(max(len(routes), 1), confidence), max_flows
        ):
            flow = flow_seed + flows_tried
            flows_tried += 1
            hops: List[Optional[int]] = []
            for ttl in range(1, max_ttl + 1):
                address = None
                for _attempt in range(3):
                    reply = send(prog, ttl, flow)
                    if reply is not None:
                        address = reply
                        break
                if address == -1:
                    reached = True
                    routes.add(tuple(hops))
                    break
                hops.append(address)
        return routes, reached, finish()

    # -- ping -------------------------------------------------------------

    def ping(
        self, dst: int, source: Optional[int], count: int
    ) -> Tuple[List[Optional[float]], ProbeStats]:
        """Send ``count`` echo requests towards ``dst`` from ``source``
        (None: the default vantage), :data:`PING_INTERVAL_SECONDS` apart
        on :data:`PING_FLOW` — bit-identical to the object ping kept in
        ``tests/oracle.py``.

        Returns each echo's RTT in ms (None: timeout) and the probes'
        stats. An echo reply's RTT is twice the left-to-right sum of
        the one-way latencies of the routers its slots pick, plus the
        host latency and the probe's jitter and spike, plus the
        promotion delay when the destination is cellular and its radio
        was idle. Continues the simulator's running measurement
        context. Raises :class:`RouteTemplateError`, naming the
        destination and the reason, when its route template cannot be
        built.
        """
        internet = self.internet
        src = source if source is not None else internet.vantage_address
        # The mirror first, so that it counts the program built below.
        _, ping, finish = self._probe_mirror()
        try:
            prog = self._program_for(dst, src)
        except RouteTemplateError as error:
            raise RouteTemplateError(
                f"cannot ping {format_address(dst)}: no route template "
                f"({error})"
            ) from None
        rtts = [
            ping(prog, PING_INTERVAL_SECONDS if index else 0.0)
            for index in range(count)
        ]
        return rtts, finish()
