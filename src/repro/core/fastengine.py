"""Compiled per-/24 campaign engine: route templates + incremental rules.

The campaign hot path measures each /24 with a long serial probe
sequence (echo, locate ladder, last-hop enumeration) whose *replies*
depend on only a handful of facts per probe: which router sits at the
probed TTL (or that the TTL overshoots the path), whether that router
responds and has rate-limiter tokens, one stochastic-loss draw, and —
for host probes — the destination's availability in the current epoch
plus two per-address constants (default TTL, reverse-path delta). RTT
values and the cellular radio tracker never influence what the
classifier observes, so the engine skips them entirely.

This module exploits that: for each /24 it flattens the compiled
forwarding plane into a **route template** — one slot per path position,
each slot either a fixed router or a load-balancer choice — under the
invariant that every branch of a choice has an identical continuation
(true of the builder's diamond topologies; violations fall back to the
object path). A probe at TTL *t* then needs at most one splitmix64
evaluation (the slot at position ``t-1``) instead of a full
``resolve_path`` walk plus reply-object construction.

Parity contract: for every supported policy the engine's measurement
(observations, category, stop reason, ``probes_used``), its
:class:`~repro.probing.session.ProbeStats`, and the simulator end state
(``probe_count``, clock, nonce) are bit-identical to the object path
(:func:`repro.core.classifier.measure_slash24` through a
:class:`~repro.probing.session.Prober`). The golden suite in
``tests/core/test_columnar_campaign.py`` enforces this on whole
campaigns, with the object path installed by the ``tests/oracle.py``
switch.

Engine state that probes would normally mutate on the simulator — rate
limiter buckets, the clock, the nonce — is mirrored locally and only
committed to the simulator when the /24 completes, which keeps a
fallback mid-/24 side-effect free.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..netsim import hosts as hostmod
from ..netsim.loadbalance import (
    HybridBalancer,
    PerDestinationBalancer,
    PerFlowBalancer,
    PerPacketBalancer,
)
from ..probing.session import ProbeStats
from ..probing.stopping import DEFAULT_CONFIDENCE, probes_required
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

#: Echo probes use this TTL (mirrors ``repro.probing.session.ECHO_TTL``;
#: duplicated to avoid importing the Prober module on the hot path).
_ECHO_TTL = 64
#: The locate ladder's TTL ceiling (``repro.probing.mda.DEFAULT_MAX_TTL``).
_MAX_TTL = 32

_TWO64 = float(1 << 64)

# Slot kinds after per-destination specialization.
_FIXED = 0     # (0, (responds, limiter, address))
_BY_FLOW = 1   # (1, pre, n, members) — index = splitmix64(pre ^ flow) % n
_BY_NONCE = 2  # (2, pre, n, members) — index = splitmix64(pre ^ nonce) % n

# Template-slot kinds before specialization (destination unknown).
_T_FIXED = 0
_T_PER_FLOW = 1
_T_PER_DEST = 2
_T_HYBRID = 3
_T_PER_PACKET = 4


class FastPathUnsupported(Exception):
    """The compiled campaign engine cannot measure this /24; the caller
    must fall back to the object path (no simulator state was touched)."""


def fast_engine_for(internet, policy, max_probes) -> Optional["FastCampaignEngine"]:
    """The engine for this (internet, policy) if eligible, else None.

    Eligibility is deliberately narrow: the exact policy types the
    engine replicates (subclasses may override hooks the engine inlines)
    and no probe budget (budget accounting must raise mid-/24 at the
    exact probe, which only the Prober path does).
    """
    if max_probes is not None:
        return None
    kind = type(policy)
    if kind is TerminationPolicy:
        table = policy.confidence_table
        if table is not None and type(table) is not ConfidenceTable:
            return None
    elif kind not in (ReprobePolicy, ExhaustivePolicy):
        return None
    engine = getattr(internet, "_fast_engine", None)
    if engine is None or not engine.valid():
        engine = FastCampaignEngine(internet)
        internet._fast_engine = engine
    return engine


class _DstProgram:
    """A route template specialized to one destination."""

    __slots__ = (
        "slots", "length", "observed_ttl",
        "density", "stability", "sleep_p", "up_epoch", "allocated", "pod",
    )

    def __init__(self, slots, length, observed_ttl,
                 density, stability, sleep_p, allocated, pod=None):
        self.slots = slots
        self.length = length
        self.observed_ttl = observed_ttl
        self.density = density
        self.stability = stability
        self.sleep_p = sleep_p
        #: Memoized (epoch, up) availability of this destination.
        self.up_epoch: Optional[Tuple[int, bool]] = None
        self.allocated = allocated
        #: The destination's pod — only consulted when a dynamic-event
        #: schedule is active (outage windows, renumbering keys).
        self.pod = pod


class FastCampaignEngine:
    """Per-simulator compiled campaign executor. See module docstring."""

    def __init__(self, internet) -> None:
        self.internet = internet
        forwarder = internet.forwarder
        # Staleness anchors: _reset_compiled_state replaces the dict
        # object wholesale, and allocation changes bump the revision.
        self._compiled_ref = forwarder._compiled
        self._alloc_revision = internet.allocations.revision
        #: key24 → (template slots, uniform-for-/24) or None (build failed).
        self._templates: Dict[int, Optional[Tuple[tuple, bool]]] = {}
        built = internet._built
        self._host_seed = built.host_seed
        self._loss_base = splitmix64(built.loss_seed & MASK64)

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
        if kind is PerFlowBalancer:
            return (_T_PER_FLOW, selector.salt, len(data), data)
        if kind is PerDestinationBalancer:
            return (
                _T_PER_DEST, selector.salt, selector.include_source,
                len(data), data,
            )
        if kind is HybridBalancer:
            return (_T_HYBRID, selector.salt, len(data), data)
        if kind is PerPacketBalancer:
            return (
                _T_PER_PACKET, splitmix64(selector.salt & MASK64),
                len(data), data,
            )
        raise FastPathUnsupported(f"selector {kind.__name__}")

    def _build_template(self, dst: int) -> Tuple[tuple, bool]:
        """Flatten the forwarding DAG towards ``dst`` into slots.

        Returns (slots, uniform) where ``uniform`` is True when every
        FIB interval consulted covers ``dst``'s whole /24 — then the
        template is valid for every destination in the /24 and is cached
        under the /24 key.
        """
        forwarder = self.internet.forwarder
        by_id = forwarder.topology.by_id
        fibs = forwarder.fibs
        compiled_fib = forwarder._compiled_fib
        memo: Dict[int, tuple] = {}
        building: set = set()
        uniform = [True]

        def chain(router) -> tuple:
            rid = router.router_id
            cached = memo.get(rid)
            if cached is not None:
                return cached
            if rid in building:
                raise FastPathUnsupported("forwarding loop")
            building.add(rid)
            fib = fibs.get(rid)
            if fib is None:
                raise FastPathUnsupported("router has no FIB")
            cfib = compiled_fib(rid, fib)
            index = bisect_right(cfib.starts, dst) - 1
            if not cfib.covers24[index]:
                uniform[0] = False
            entry = cfib.values[index]
            if entry is None:
                raise FastPathUnsupported("no route")
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
                            raise FastPathUnsupported(
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
        if len(slots) >= _ECHO_TTL:
            # Echo probes would land on a router; possible in theory,
            # never in built scenarios — leave it to the object path.
            raise FastPathUnsupported("path reaches echo TTL")
        return slots, uniform[0]

    def _template_for(
        self, dst: int, local: Dict[int, tuple]
    ) -> tuple:
        key24 = dst >> 8
        cached = self._templates.get(key24, False)
        if cached is False:
            try:
                slots, uniform = self._build_template(dst)
            except FastPathUnsupported:
                self._templates[key24] = None
                raise
            self._templates[key24] = (slots, uniform) if uniform else None
            if not uniform:
                local[dst] = slots
            return slots
        if cached is not None:
            return cached[0]
        # Non-uniform /24 (split-/24 FIB intervals): per-destination
        # templates, memoized for this measurement only.
        slots = local.get(dst)
        if slots is None:
            slots, _ = self._build_template(dst)
            local[dst] = slots
        return slots

    # -- per-destination specialization -----------------------------------

    def _program_for(
        self, dst: int, src: int, local: Dict[int, tuple]
    ) -> _DstProgram:
        internet = self.internet
        allocation = internet._allocation_of(dst)
        if allocation is None:
            # The object path's probes to unallocated space consume
            # clock/nonce and time out; no routing needed.
            return _DstProgram((), 0, 0, 0.0, 0.0, 0.0, False)
        template = self._template_for(dst, local)
        slots: List[tuple] = []
        for slot in template:
            kind = slot[0]
            if kind == _T_FIXED:
                slots.append(slot)
            elif kind == _T_PER_FLOW:
                _, salt, n, members = slot
                pre = splitmix64(
                    splitmix64(splitmix64(salt & MASK64) ^ src) ^ dst
                )
                slots.append((_BY_FLOW, pre, n, members))
            elif kind == _T_PER_DEST:
                _, salt, include_source, n, members = slot
                if include_source:
                    index = splitmix64(
                        splitmix64(splitmix64(salt & MASK64) ^ src) ^ dst
                    ) % n
                else:
                    index = splitmix64(splitmix64(salt & MASK64) ^ dst) % n
                slots.append((_FIXED, members[index]))
            elif kind == _T_HYBRID:
                _, salt, n, members = slot
                first = splitmix64(splitmix64(salt & MASK64) ^ dst) % n
                pair = (members[first], members[(first + 1) % n])
                pre = splitmix64(
                    splitmix64(
                        splitmix64((salt ^ 0x5A5A) & MASK64) ^ src
                    ) ^ dst
                )
                slots.append((_BY_FLOW, pre, 2, pair))
            else:  # _T_PER_PACKET
                _, pre, n, members = slot
                slots.append((_BY_NONCE, pre, n, members))
        length = len(slots)
        config = internet.config
        pod = allocation.pod
        host_seed = self._host_seed
        default = hostmod.default_ttl(
            host_seed, dst, config.default_ttl_weights,
            config.custom_ttl_probability,
        )
        delta = hostmod.reverse_path_delta(
            host_seed, dst, config.reverse_delta_weights
        )
        observed_ttl = max(0, default - max(1, length + delta))
        return _DstProgram(
            tuple(slots), length, observed_ttl,
            pod.host_density, pod.host_stability, pod.sleep_probability,
            True, pod,
        )

    # -- measurement ------------------------------------------------------

    def measure(
        self,
        policy,
        slash24,
        snapshot_active: List[int],
        rng: random.Random,
        max_destinations: Optional[int],
    ) -> Tuple[Slash24Measurement, ProbeStats]:
        """Measure one /24 — bit-identical to the object path.

        The caller must have entered the /24's measurement context
        (``begin_measurement_context``) and pass the /24's fresh RNG.
        Raises :class:`FastPathUnsupported` (before mutating any
        simulator state) when a route template cannot be built.
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
        floor = math.floor
        sm = splitmix64
        mask = MASK64
        #: Dynamic-event schedule (None in the common, event-free case).
        events = internet.events

        result = Slash24Measurement(
            slash24=slash24, category=Category.TOO_FEW_ACTIVE
        )
        stats = ProbeStats()
        if not meets_selection_criteria(snapshot_active):
            return result, stats

        flow_seed = rng.randrange(1 << 30)
        # The RNG is unused after round_robin_order, so materializing
        # the (lazy) order up front cannot shift any later draw.
        order = list(round_robin_order(snapshot_active, rng))

        clock = internet.clock_seconds
        nonce = internet._nonce
        sent = 0
        answered = 0
        echo_replies = 0
        ttl_exceeded = 0
        # Local token-bucket mirrors: at context start every simulator
        # limiter is at its reset state (contexts reset all touched
        # limiters), so fresh mirrors reproduce `allow` bit for bit
        # without mutating the shared buckets.
        limiters: Dict[int, List[float]] = {}
        local_templates: Dict[int, tuple] = {}

        def send(prog: _DstProgram, ttl: int, flow: int):
            """One probe. Returns None (timeout), -1 (echo reply) or the
            responding router's address (TTL-exceeded)."""
            nonlocal clock, nonce, sent, answered, echo_replies, ttl_exceeded
            sent += 1
            nonce += 1
            clock += step
            if not prog.allocated:
                return None
            if ttl <= prog.length:
                slot = prog.slots[ttl - 1]
                kind = slot[0]
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
                    state = limiters.get(id(limiter))
                    if state is None:
                        state = [limiter.capacity, 0.0]
                        limiters[id(limiter)] = state
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
            else:
                # Renumbering keys availability on the subscriber identity
                # (canonical address), so the memo stays valid per epoch:
                # the key depends only on (pod, dst, epoch).
                key = dst
                if events is not None:
                    key = events.availability_key(prog.pod, dst, epoch)
                up = host_up(
                    host_seed, key, epoch,
                    prog.density, prog.stability, prog.sleep_p,
                )
                prog.up_epoch = (epoch, up)
            if not up:
                return None
            if (
                p_host > 0.0
                and sm(loss_base ^ (nonce & mask)) / _TWO64 < p_host
            ):
                return None
            answered += 1
            echo_replies += 1
            return -1

        observations: Dict[int, frozenset] = {}
        state = TerminationState()
        policy_kind = type(policy)
        is_termination = policy_kind is TerminationPolicy
        is_closing_policy = policy_kind in (ReprobePolicy, ExhaustivePolicy)
        src = internet.vantage_address
        stopped = False

        for index, dst in enumerate(order):
            if max_destinations is not None and index >= max_destinations:
                break
            prog = self._program_for(dst, src, local_templates)
            fs = flow_seed + index * 101

            # Step 1 (mda): echo with retries — 3 attempts, flows 0..2;
            # counts once in probes_used, each attempt in stats.sent.
            reply = None
            for attempt in range(3):
                reply = send(prog, _ECHO_TTL, attempt)
                if reply is not None:
                    break
            result.probes_used += 1
            if reply is None:
                continue
            result.hosts_responsive += 1
            observed = prog.observed_ttl if reply == -1 else 255 - _ECHO_TTL
            if observed < 64:
                assumed = 64
            elif observed < 128:
                assumed = 128
            elif observed < 192:
                assumed = 192
            else:
                assumed = 255
            estimate = max(1, assumed - observed)

            # Step 2: locate the last-hop TTL, halving on overshoot.
            first_ttl = min(estimate, _MAX_TTL)
            distance = None
            while first_ttl >= 1:
                overshoot = False
                found = None
                for ttl in range(first_ttl, _MAX_TTL + 1):
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

        # Commit the mirrored simulator state (the object path mutated
        # it probe by probe; end-of-/24 totals are identical).
        internet.probe_count += sent
        internet.clock_seconds = clock
        internet._nonce = nonce
        internet.probe_seconds += time.perf_counter() - started
        stats.sent = sent
        stats.answered = answered
        stats.echo_replies = echo_replies
        stats.ttl_exceeded = ttl_exceeded
        return result, stats
