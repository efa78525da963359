"""Unit tests for the dynamic-internet event engine."""

import dataclasses

import numpy as np
import pytest

from repro.core.fastengine import fast_engine_for
from repro.netsim import EventConfig, SimulatedInternet, tiny_scenario
from repro.netsim.build import build_scenario
from repro.netsim.dhcp import EPOCHS_PER_LEASE, PodLeaseMap, renumbered_address
from repro.netsim.events import (
    EventSchedule,
    _renumber_eligible,
    build_event_schedule,
)

SEED = 13


def _built(events: EventConfig):
    return build_scenario(
        dataclasses.replace(tiny_scenario(seed=SEED), events=events)
    )


@pytest.fixture(scope="module")
def schedule():
    return EventSchedule(_built(EventConfig.at_intensity(0.6)))


@pytest.fixture(scope="module")
def built():
    return _built(EventConfig.at_intensity(0.6))


class TestEventConfig:
    def test_default_is_disabled(self):
        assert not EventConfig().enabled

    def test_any_nonzero_knob_enables(self):
        assert EventConfig(renumber_fraction=0.1).enabled
        assert EventConfig(reroute_fraction=0.1).enabled
        assert EventConfig(outage_fraction=0.1).enabled
        assert EventConfig(storm_duty=0.1).enabled

    def test_at_intensity_zero_is_disabled(self):
        assert not EventConfig.at_intensity(0.0).enabled


class TestBuildEventSchedule:
    def test_zero_intensity_builds_no_schedule(self):
        assert build_event_schedule(_built(EventConfig())) is None

    def test_zero_intensity_internet_has_no_events(self):
        internet = SimulatedInternet.from_config(tiny_scenario(seed=SEED))
        assert internet.events is None

    def test_enabled_config_builds_schedule(self, schedule):
        assert schedule.summary()["renumber_pods"] > 0
        assert schedule.summary()["outage_pods"] > 0


class TestRenumberEligibility:
    def test_split_pods_are_ineligible(self, built):
        for pod in built.pods:
            eligible = _renumber_eligible(pod)
            if eligible:
                assert all(
                    a.prefix.length <= 24 for a in pod.allocations
                )

    def test_only_eligible_pods_selected(self, built, schedule):
        for pod in built.pods:
            if schedule.renumbering(pod):
                assert _renumber_eligible(pod)


class TestAvailabilityKey:
    def _renumbering_pod(self, built, schedule):
        for pod in built.pods:
            if schedule.renumbering(pod) and len(pod.slash24s()) >= 2:
                return pod
        pytest.skip("no multi-/24 renumbering pod in this scenario")

    def test_non_renumbering_pod_keys_are_identity(self, built, schedule):
        for pod in built.pods:
            if not schedule.renumbering(pod) and pod.allocations:
                addr = pod.allocations[0].prefix.network | 7
                assert schedule.availability_key(pod, addr, 5) == addr
                return

    def test_key_is_canonical_address(self, built, schedule):
        pod = self._renumbering_pod(built, schedule)
        epoch = 3 * EPOCHS_PER_LEASE  # lease 3
        lease_map = PodLeaseMap(pod, 3)
        addr = pod.slash24s()[0].network | 42
        assert (
            schedule.availability_key(pod, addr, epoch)
            == lease_map.canonical_address(addr)
        )

    def test_key_stable_for_one_subscriber_across_leases(
        self, built, schedule
    ):
        """The availability key follows the subscriber: the old and new
        addresses of one identity map to the same key."""
        pod = self._renumbering_pod(built, schedule)
        old_epoch, new_epoch = 0, EPOCHS_PER_LEASE  # lease 0 → lease 1
        addr = pod.slash24s()[0].network | 42
        moved = renumbered_address(pod, addr, old_epoch, new_epoch)
        assert moved is not None
        assert (
            schedule.availability_key(pod, addr, old_epoch)
            == schedule.availability_key(pod, moved, new_epoch)
        )

    def test_vectorised_keys_match_scalar(self, built, schedule):
        pod = self._renumbering_pod(built, schedule)
        epoch = EPOCHS_PER_LEASE + 2
        addrs = np.array(
            [s24.network | off for s24 in pod.slash24s() for off in
             (0, 1, 42, 255)],
            dtype=np.uint64,
        )
        keys = schedule.availability_keys_np(pod, addrs, epoch)
        for addr, key in zip(addrs.tolist(), keys.tolist()):
            assert schedule.availability_key(pod, addr, epoch) == key

    def test_vectorised_keys_pass_foreign_addresses_through(
        self, built, schedule
    ):
        pod = self._renumbering_pod(built, schedule)
        foreign = np.array([1, 0xFFFFFFFF], dtype=np.uint64)
        keys = schedule.availability_keys_np(pod, foreign, 0)
        assert keys.tolist() == foreign.tolist()


class TestOutages:
    def test_outage_is_periodic_with_duty(self, built, schedule):
        config = schedule.config
        period = config.outage_period_seconds
        pod = next(
            p for p in built.pods
            if p.pod_id in schedule._outage_phase
        )
        samples = [
            schedule.outage_active(pod, t * period / 200.0)
            for t in range(200)
        ]
        share = sum(samples) / len(samples)
        assert 0.15 < share < 0.35  # duty 0.25 ± sampling grain
        # And periodic: one full period later, same answers.
        for t in (0.0, 1.0, 3.5, 7.9):
            assert schedule.outage_active(pod, t) == schedule.outage_active(
                pod, t + period
            )

    def test_unselected_pod_never_dark(self, built, schedule):
        pod = next(
            p for p in built.pods
            if p.pod_id not in schedule._outage_phase
        )
        assert not any(
            schedule.outage_active(pod, t / 10.0) for t in range(100)
        )


class TestStorms:
    def test_storm_scale_is_periodic_per_router(self, schedule):
        period = schedule._storm_period
        for address in (0x0A000001, 0x0A000002):
            for t in (0.0, 1.3, 2.9):
                assert schedule.storm_scale(address, t) == (
                    schedule.storm_scale(address, t + period)
                )

    def test_storm_duty_share_across_routers(self, schedule):
        """With per-router phases, ~duty of routers are mid-storm at any
        single instant."""
        duty = schedule._storm_on / schedule._storm_period
        addresses = range(0x0A000000, 0x0A000000 + 400)
        stormed = sum(
            schedule.storm_scale(address, 0.5) != 1.0
            for address in addresses
        )
        assert abs(stormed / 400 - duty) < 0.1

    def test_zero_duty_always_scale_one(self, built):
        quiet = EventSchedule(_built(EventConfig(renumber_fraction=0.5)))
        assert quiet.storm_scale(0x0A000001, 1.0) == 1.0
        assert quiet.counters["storm"] == 0


class TestReroutes:
    def test_apply_is_idempotent(self):
        built = _built(EventConfig(reroute_fraction=0.8))
        schedule = EventSchedule(built)
        first = schedule.apply_reroutes(built)
        assert first > 0
        assert schedule.apply_reroutes(built) == 0
        assert len(schedule.rerouted) == first

    def test_ground_truth_unchanged(self):
        built = _built(EventConfig(reroute_fraction=0.8))
        truth_before = {
            pod.pod_id: tuple(pod.lasthop_router_ids) for pod in built.pods
        }
        schedule = EventSchedule(built)
        schedule.apply_reroutes(built)
        assert truth_before == {
            pod.pod_id: tuple(pod.lasthop_router_ids) for pod in built.pods
        }

    def test_shift_swaps_exactly_one_member(self):
        built = _built(EventConfig(reroute_fraction=0.8))
        schedule = EventSchedule(built)
        schedule.apply_reroutes(built)
        assert schedule.rerouted
        for old, new in schedule.rerouted.values():
            assert len(new) == len(old)
            assert len(set(old) ^ set(new)) == 2  # one out, one in

    def test_internet_wrapper_invalidates_compiled_state(self):
        config = dataclasses.replace(
            tiny_scenario(seed=SEED),
            events=EventConfig(reroute_fraction=0.8),
        )
        internet = SimulatedInternet.from_config(config)
        # Build some route templates first, then shift routes under them.
        dst = internet.universe_slash24s[0].network | 1
        engine = fast_engine_for(internet)
        engine._program_for(dst, internet.vantage_address)
        changed = internet.apply_event_reroutes()
        assert changed > 0
        assert internet.apply_event_reroutes() == 0
        assert not engine.valid()
        # A new engine builds templates against the shifted FIBs.
        rebuilt = fast_engine_for(internet)
        assert rebuilt is not engine
        assert rebuilt._program_for(dst, internet.vantage_address).length


class TestScheduleState:
    def test_counter_delta_round_trip(self, schedule):
        base = schedule.counter_snapshot()
        schedule.storm_scale(0x0A000009, 0.01)
        deltas = schedule.counter_deltas(base)
        assert sum(deltas.values()) >= 0
        other = EventSchedule(_built(EventConfig.at_intensity(0.6)))
        before = dict(other.counters)
        other.add_counter_deltas(deltas)
        for name, value in deltas.items():
            assert other.counters[name] == before[name] + value
