"""Dynamic-internet event engine: the internet refuses to hold still.

The paper's pipeline implicitly assumes the internet is frozen between
the ZMap snapshot and the probing campaign. Real campaigns race DHCP
churn, routing changes, regional outages and ICMP rate-limit storms.
This module injects those dynamics into the simulator as a
deterministic, seed-derived :class:`EventSchedule`:

* **Renumbering waves** — for a selected fraction of pods, host
  availability follows the subscriber *identity* (via
  :class:`repro.netsim.dhcp.PodLeaseMap`) instead of the address, so a
  lease roll between the snapshot epoch and the campaign epoch moves
  the active addresses around inside the pod.
* **Routing shifts** — a selected fraction of pods get their metro
  route entry re-pointed to a different last-hop router set before the
  campaign starts (ground truth keeps the snapshot-era truth, so the
  shift is measurable as aggregation degradation).
* **Regional outages** — selected pods stop answering echo probes
  during periodic windows of virtual time (routers still answer).
* **Rate-limit storms** — during periodic global windows, every
  router token bucket runs at ``storm_factor`` of its configured
  capacity and refill rate.

Determinism: every decision is a pure function of the scenario's
``"events"`` seed stream, pod ids and the virtual clock. No wall-clock,
no mutable draw state — so serial, parallel and kill/resumed campaigns
observe bit-identical dynamics, and the compiled engine agrees probe
for probe with the reference probe path kept in ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..util.hashing import mix, mix_to_unit, stable_string_hash
from .allocation import Pod
from .build import BuiltScenario
from .config import EventConfig
from .dhcp import PodLeaseMap, lease_of_epoch
from .loadbalance import (
    HybridBalancer,
    NextHopSelector,
    PerDestinationBalancer,
    PerFlowBalancer,
    SingleNextHop,
)
from .routing import RouteEntry
from .topology import RouterRole

_RENUMBER = stable_string_hash("events-renumber")
_REROUTE = stable_string_hash("events-reroute")
_OUTAGE = stable_string_hash("events-outage")
_STORM = stable_string_hash("events-storm")


def _renumber_eligible(pod: Pod) -> bool:
    """Renumbering permutes the pod's whole-/24 identity space, so the
    pod must be fully covered by it (no sub-/24 allocations)."""
    return bool(pod.allocations) and all(
        allocation.prefix.length <= 24 for allocation in pod.allocations
    )


class EventSchedule:
    """Deterministic mid-campaign dynamics for one built scenario.

    Build via :func:`build_event_schedule`; a schedule only exists when
    some stressor has nonzero intensity, so a ``None`` schedule is the
    (free) common case on every probe path.
    """

    def __init__(self, built: BuiltScenario) -> None:
        config = built.config.events
        self.config: EventConfig = config
        self.seed: int = built.event_seed
        #: Plain int event counters; folded into metrics registries as
        #: ``events.{renumber,reroute,outage,storm}`` at reporting
        #: points (never read on the hot path).
        self.counters: Dict[str, int] = {
            "renumber": 0, "reroute": 0, "outage": 0, "storm": 0,
        }
        self._renumber_pods: frozenset = frozenset()
        self._outage_phase: Dict[int, float] = {}
        self._reroute_pods: List[Pod] = []
        self._reroutes_applied = False
        #: pod_id → (old last-hop ids, new last-hop ids) once applied.
        self.rerouted: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        # Storm windows are periodic with a per-router phase (keyed on
        # the responding interface address). Measurement contexts re-pin
        # the clock to the campaign's clock base, so every /24 samples
        # the same narrow clock band — a single global phase could alias
        # entirely outside that band. Per-router phases are uniform, so
        # ~storm_duty of the routers are mid-storm in any band.
        self._storm_period = float(config.storm_period_seconds)
        self._storm_on = float(config.storm_duty * self._storm_period)
        self._storm_factor = float(config.storm_factor)
        self._outage_period = float(config.outage_period_seconds)
        self._outage_on = float(config.outage_duty * self._outage_period)
        seed = self.seed
        renumber_ids = set()
        for pod in built.pods:
            pod_id = pod.pod_id
            if (
                config.renumber_fraction > 0.0
                and _renumber_eligible(pod)
                and mix_to_unit(seed, _RENUMBER, pod_id)
                < config.renumber_fraction
            ):
                renumber_ids.add(pod_id)
            if (
                config.outage_fraction > 0.0
                and mix_to_unit(seed, _OUTAGE, pod_id)
                < config.outage_fraction
            ):
                self._outage_phase[pod_id] = (
                    mix_to_unit(seed, _OUTAGE, pod_id, 1)
                    * self._outage_period
                )
            if (
                config.reroute_fraction > 0.0
                and not pod.unresponsive_lasthop
                and pod.allocations
                and mix_to_unit(seed, _REROUTE, pod_id)
                < config.reroute_fraction
            ):
                self._reroute_pods.append(pod)
        self._renumber_pods = frozenset(renumber_ids)
        # Pure-function caches, filled lazily.
        self._lease_maps: Dict[Tuple[int, int], PodLeaseMap] = {}
        self._vector_maps: Dict[Tuple[int, int], tuple] = {}
        self._storm_phases: Dict[int, float] = {}

    # -- renumbering waves -------------------------------------------------

    def renumbering(self, pod: Pod) -> bool:
        return pod.pod_id in self._renumber_pods

    def _lease_map(self, pod: Pod, lease: int) -> PodLeaseMap:
        key = (pod.pod_id, lease)
        lease_map = self._lease_maps.get(key)
        if lease_map is None:
            lease_map = PodLeaseMap(pod, lease)
            self._lease_maps[key] = lease_map
        return lease_map

    def availability_key(self, pod: Pod, addr: int, epoch: int) -> int:
        """The address whose availability draw governs ``addr`` at
        ``epoch`` — the subscriber's canonical (lease-0-layout) address
        for renumbering pods, ``addr`` itself otherwise."""
        if pod.pod_id not in self._renumber_pods:
            return addr
        key = self._lease_map(pod, lease_of_epoch(epoch)).canonical_address(
            addr
        )
        if key is None:
            return addr
        if key != addr:
            self.counters["renumber"] += 1
        return key

    def availability_keys_np(
        self, pod: Pod, addrs: np.ndarray, epoch: int
    ) -> np.ndarray:
        """Vectorised :meth:`availability_key` (bit-identical keys)."""
        if pod.pod_id not in self._renumber_pods:
            return addrs
        lease = lease_of_epoch(epoch)
        cache_key = (pod.pod_id, lease)
        vector = self._vector_maps.get(cache_key)
        if vector is None:
            lease_map = self._lease_map(pod, lease)
            networks = np.array(
                [prefix.network for prefix in lease_map._slash24s],
                dtype=np.uint64,
            )
            vector = (
                networks,
                int(lease_map._rotation),
                int(lease_map._offset_mask),
            )
            self._vector_maps[cache_key] = vector
        networks, rotation, offset_mask = vector
        addrs = np.asarray(addrs, dtype=np.uint64)
        nets = addrs & np.uint64(0xFFFFFF00)
        rotated = np.searchsorted(networks, nets)
        clipped = np.minimum(rotated, len(networks) - 1)
        valid = networks[clipped] == nets
        index = (clipped - rotation) % len(networks)
        keys = networks[index] | (
            (addrs & np.uint64(0xFF)) ^ np.uint64(offset_mask)
        )
        keys = np.where(valid, keys, addrs)
        self.counters["renumber"] += int(
            np.count_nonzero(valid & (keys != addrs))
        )
        return keys

    # -- regional outages --------------------------------------------------

    def outage_active(self, pod: Pod, clock_seconds: float) -> bool:
        """True when ``pod``'s hosts are dark at this instant."""
        phase = self._outage_phase.get(pod.pod_id)
        if phase is None or self._outage_on <= 0.0:
            return False
        position = (clock_seconds + phase) % self._outage_period
        if position < self._outage_on:
            self.counters["outage"] += 1
            return True
        return False

    # -- rate-limit storms -------------------------------------------------

    def storm_scale(self, router_address: int, clock_seconds: float) -> float:
        """Token-bucket capacity/rate multiplier for the router replying
        from ``router_address`` at this instant (1.0 outside its storm
        windows)."""
        if self._storm_on <= 0.0:
            return 1.0
        phase = self._storm_phases.get(router_address)
        if phase is None:
            phase = (
                mix_to_unit(self.seed, _STORM, router_address)
                * self._storm_period
            )
            self._storm_phases[router_address] = phase
        position = (clock_seconds + phase) % self._storm_period
        if position < self._storm_on:
            self.counters["storm"] += 1
            return self._storm_factor
        return 1.0

    # -- routing shifts ----------------------------------------------------

    def apply_reroutes(self, built: BuiltScenario) -> int:
        """Re-point selected pods' metro route entries to a shifted
        last-hop router set. Idempotent; returns the number of pods
        whose routes changed this call.

        The ground truth (``pod.lasthop_router_ids``) is deliberately
        left at the snapshot-era truth: the campaign then measures a
        world that drifted after the truth was recorded, which is
        exactly the error mode being studied. Callers must invalidate
        the forwarder's compiled state afterwards
        (:meth:`repro.netsim.internet.SimulatedInternet.apply_event_reroutes`
        does).
        """
        if self._reroutes_applied:
            return 0
        self._reroutes_applied = True
        if not self._reroute_pods:
            return 0
        # Neighbour pools: responsive last-hop routers of *other* pods
        # in the same (org, metro) — the routers an operator would
        # realistically shift a route onto.
        neighbours: Dict[Tuple[int, int], set] = {}
        for pod in built.pods:
            if pod.unresponsive_lasthop:
                continue
            neighbours.setdefault(
                (pod.org.asn, pod.metro_id), set()
            ).update(pod.lasthop_router_ids)
        metro_by_label = {
            router.label: router
            for router in built.topology
            if router.role is RouterRole.METRO
        }
        changed = 0
        for pod in self._reroute_pods:
            old_members = tuple(pod.lasthop_router_ids)
            pool = sorted(
                neighbours.get((pod.org.asn, pod.metro_id), ())
                - set(old_members)
            )
            if not pool:
                continue
            metro = metro_by_label.get(
                f"metro-as{pod.org.asn}-{pod.metro_id}"
            )
            if metro is None:
                continue
            metro_fib = built.fibs.get(metro.router_id)
            if metro_fib is None:
                continue
            victim = old_members[
                mix(self.seed, _REROUTE, pod.pod_id, 1) % len(old_members)
            ]
            replacement = pool[
                mix(self.seed, _REROUTE, pod.pod_id, 2) % len(pool)
            ]
            new_members = tuple(
                sorted((set(old_members) - {victim}) | {replacement})
            )
            salt = mix(self.seed, _REROUTE, pod.pod_id, 3)
            selector = self._shifted_selector(pod, new_members, salt)
            prefixes = [
                allocation.prefix
                for allocation in pod.allocations
                if metro_fib.entry_for(allocation.prefix) is not None
            ]
            if not prefixes:
                continue
            for prefix in prefixes:
                metro_fib.install(RouteEntry(prefix, selector))
                delivery_fib = built.fibs.get(replacement)
                if delivery_fib is not None:
                    delivery_fib.install(RouteEntry(prefix, delivers=True))
            self.rerouted[pod.pod_id] = (old_members, new_members)
            changed += 1
        self.counters["reroute"] += changed
        return changed

    @staticmethod
    def _shifted_selector(
        pod: Pod, members: Tuple[int, ...], salt: int
    ) -> NextHopSelector:
        """The same balancing mode the builder would install for this
        pod, over the shifted member set with a fresh salt."""
        if len(members) == 1:
            return SingleNextHop(members[0])
        if pod.lasthop_mode == "per-flow":
            return PerFlowBalancer(members, salt)
        if pod.lasthop_mode == "hybrid":
            return HybridBalancer(members, salt)
        return PerDestinationBalancer(
            members, salt, include_source=pod.lasthop_source_hash
        )

    # -- reporting ---------------------------------------------------------

    def counter_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def counter_deltas(self, base: Dict[str, int]) -> Dict[str, int]:
        return {
            name: value - base.get(name, 0)
            for name, value in self.counters.items()
        }

    def add_counter_deltas(self, deltas: Dict[str, int]) -> None:
        """Fold a worker's counter deltas back into this schedule."""
        for name, value in deltas.items():
            if value:
                self.counters[name] = self.counters.get(name, 0) + int(value)

    def summary(self) -> Dict[str, object]:
        return {
            "renumber_pods": len(self._renumber_pods),
            "outage_pods": len(self._outage_phase),
            "reroute_pods": len(self._reroute_pods),
            "reroutes_applied": self._reroutes_applied,
            "storm_duty": self.config.storm_duty,
            "counters": self.counter_snapshot(),
        }


def build_event_schedule(
    built: BuiltScenario,
) -> Optional[EventSchedule]:
    """An :class:`EventSchedule` for the scenario, or None when every
    event knob is at zero intensity (the engine then costs nothing)."""
    events = getattr(built.config, "events", None)
    if events is None or not events.enabled:
        return None
    return EventSchedule(built)
