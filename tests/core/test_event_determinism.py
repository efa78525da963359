"""Determinism of events-enabled campaigns.

The dynamic-event engine (``netsim.events``) must not cost any of the
campaign executor's replay guarantees: with renumbering waves, routing
shifts, outages and storms all active, a campaign must stay
bit-identical across serial vs parallel execution, across a SIGKILLed
worker recovered through the store, and across the object vs columnar
measurement engines. Every stressor draws from the virtual clock and
seed-derived hashes only, so there is nothing wall-clock-shaped to
leak in.

The columnar (compiled) engine is the default; ``TestProberPath``
reruns every campaign case with each /24 on the object Prober
(installed by ``tests/oracle.py``).
"""

import dataclasses

import pytest

from repro.core import TerminationPolicy, run_campaign
from repro.netsim import EventConfig, SimulatedInternet, tiny_scenario
from repro.probing import scan
from repro.store import MeasurementStore
from repro.store.codec import canonical_json_bytes, measurement_to_dict
from tests import oracle

SEED = 77
MAX_DESTINATIONS = 32
INTENSITY = 0.6


def _config():
    return dataclasses.replace(
        tiny_scenario(seed=13), events=EventConfig.at_intensity(INTENSITY)
    )


def _fresh_internet():
    internet = SimulatedInternet.from_config(_config())
    snapshot = scan(internet)
    return internet, snapshot


def _run(internet, snapshot, slash24s, workers=1, store=None):
    return run_campaign(
        internet,
        TerminationPolicy(),
        slash24s=slash24s,
        snapshot=snapshot,
        seed=SEED,
        max_destinations_per_slash24=MAX_DESTINATIONS,
        workers=workers,
        store=store,
    )


def _canonical(result):
    return {
        str(slash24): canonical_json_bytes(
            measurement_to_dict(result.measurements[slash24])
        )
        for slash24 in result.measurements
    }


@pytest.fixture(scope="module")
def selection():
    internet, snapshot = _fresh_internet()
    return snapshot.eligible_slash24s()[:24]


def _serial_state(selection):
    internet, snapshot = _fresh_internet()
    result = _run(internet, snapshot, selection)
    return (
        result,
        internet.clock_seconds,
        internet.probe_count,
        dict(internet.events.counters),
    )


@pytest.fixture(scope="module")
def serial_state(selection):
    """(result, clock, probes, event counters) of the serial run."""
    return _serial_state(selection)


class TestEventsFire:
    def test_serial_run_exercises_every_stressor(self, serial_state):
        _, _, _, counters = serial_state
        for name in ("renumber", "outage", "storm"):
            assert counters[name] > 0, name
        # Reroutes are applied once per campaign, before probing.
        assert counters["reroute"] >= 0


class TestSerialVsParallel:
    def test_workers2_bit_identical(self, selection, serial_state):
        serial_result, serial_clock, serial_probes, serial_counters = (
            serial_state
        )
        internet, snapshot = _fresh_internet()
        result = _run(internet, snapshot, selection, workers=2)
        assert list(result.measurements) == list(serial_result.measurements)
        assert _canonical(result) == _canonical(serial_result)
        assert result.probes_used == serial_result.probes_used
        assert internet.clock_seconds == serial_clock
        assert internet.probe_count == serial_probes
        # Worker event deltas were shipped home over the pipes, so the
        # parent's counters agree with the serial run's.
        assert dict(internet.events.counters) == serial_counters


class TestKillResume:
    def test_killed_worker_recovery_bit_identical(
        self, selection, serial_state, tmp_path, monkeypatch
    ):
        """Worker 0 is SIGKILLed after its second chunk while events are
        active: a survivor measures the chunk again, and the result is
        still bit-identical to the serial events-enabled run. The event
        counters of the chunk it did report are kept, so they match
        too."""
        serial_result, serial_clock, serial_probes, serial_counters = (
            serial_state
        )
        monkeypatch.setenv("REPRO_WORKER_KILL", "0:3")
        internet, snapshot = _fresh_internet()
        with MeasurementStore(str(tmp_path / "store")) as store:
            result = _run(
                internet, snapshot, selection, workers=3, store=store
            )
        assert _canonical(result) == _canonical(serial_result)
        assert result.probes_used == serial_result.probes_used
        assert internet.clock_seconds == serial_clock
        assert internet.probe_count == serial_probes
        assert dict(internet.events.counters) == serial_counters

    def test_resume_from_store_replays_without_probes(
        self, selection, serial_state, tmp_path, monkeypatch
    ):
        """A warm resume over the killed run's store replays every /24
        without sending a probe — reroutes are reapplied idempotently
        and change nothing the store does not already reflect."""
        serial_result, _, _, _ = serial_state
        monkeypatch.setenv("REPRO_WORKER_KILL", "0:1")
        with MeasurementStore(str(tmp_path / "store")) as store:
            internet, snapshot = _fresh_internet()
            _run(internet, snapshot, selection, workers=3, store=store)
        monkeypatch.delenv("REPRO_WORKER_KILL")
        with MeasurementStore(str(tmp_path / "store")) as store:
            internet, snapshot = _fresh_internet()
            base_probes = internet.probe_count
            warm = _run(
                internet, snapshot, selection, workers=3, store=store
            )
            assert internet.probe_count == base_probes  # pure replay
        assert _canonical(warm) == _canonical(serial_result)


class TestEngineParity:
    def _run_with_engine(self, engine, selection):
        with pytest.MonkeyPatch.context() as patch:
            if engine == "object":
                oracle.install(patch, oracle.PROBER_CAMPAIGN)
            internet, snapshot = _fresh_internet()
            result = _run(internet, snapshot, selection)
            return (
                result, internet.clock_seconds, internet.probe_count,
                dict(internet.events.counters),
            )

    def test_object_vs_columnar_bit_identical(self, selection):
        object_result, object_clock, object_probes, object_counters = (
            self._run_with_engine("object", selection)
        )
        fast_result, fast_clock, fast_probes, fast_counters = (
            self._run_with_engine("columnar", selection)
        )
        assert list(fast_result.measurements) == list(
            object_result.measurements
        )
        assert _canonical(fast_result) == _canonical(object_result)
        assert fast_result.probes_used == object_result.probes_used
        assert fast_clock == object_clock
        assert fast_probes == object_probes
        # The engine memoises a destination's availability per epoch
        # but counts every remapped lookup, as the object path does.
        assert fast_counters == object_counters


class TestZeroIntensityIsInert:
    def test_zero_events_config_matches_plain_scenario(self, selection):
        """``EventConfig.at_intensity(0)`` must be byte-identical to no
        events config at all — pay for what you use."""
        plain = SimulatedInternet.from_config(tiny_scenario(seed=13))
        plain_snapshot = scan(plain)
        zeroed = SimulatedInternet.from_config(
            dataclasses.replace(
                tiny_scenario(seed=13), events=EventConfig.at_intensity(0.0)
            )
        )
        zero_snapshot = scan(zeroed)
        assert zeroed.events is None
        assert plain_snapshot.total_active == zero_snapshot.total_active
        plain_run = _run(plain, plain_snapshot, selection)
        zero_run = _run(zeroed, zero_snapshot, selection)
        assert _canonical(plain_run) == _canonical(zero_run)
        assert plain.clock_seconds == zeroed.clock_seconds


class TestProberPath(
    TestEventsFire, TestSerialVsParallel, TestKillResume,
    TestZeroIntensityIsInert,
):
    """Every campaign case above with each /24 — in the parent and in
    each forked worker — measured on the object Prober, compared with a
    serial Prober run. (The two paths' event counters are equal too:
    ``TestEngineParity`` checks that.)"""

    @pytest.fixture(scope="class")
    def serial_state(self, selection):
        with pytest.MonkeyPatch.context() as patch:
            oracle.install(patch, oracle.PROBER_CAMPAIGN)
            return _serial_state(selection)

    @pytest.fixture(autouse=True)
    def _prober_campaign(self, monkeypatch):
        oracle.install(monkeypatch, oracle.PROBER_CAMPAIGN)
