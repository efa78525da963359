"""Timing-attribution semantics of the probe paths.

``probe_us_avg`` (``stats()``) divides ``probe_seconds`` by
``probe_count``, so the two must be charged consistently: the reference
path (``tests/oracle.py``) times each probe individually, while the
compiled engine times each probe mirror — a whole ping train, trace or
/24 — **once** when it commits, never per probe on top of per mirror. A
fixed-step fake ``perf_counter`` makes the attribution countable: every
timed section costs exactly one step.
"""

import types

import pytest

from repro.core.pipeline import ping
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.probing import Prober, scan
from tests import oracle

STEP = 0.5


class FakeClock:
    """perf_counter advancing STEP per call: a timed section spanning
    one start/stop pair reads as exactly STEP seconds."""

    def __init__(self):
        self.now = 0.0
        self.calls = 0

    def perf_counter(self):
        self.calls += 1
        self.now += STEP
        return self.now


@pytest.fixture()
def fake_clock(monkeypatch):
    clock = FakeClock()
    fake_time = types.SimpleNamespace(perf_counter=clock.perf_counter)
    monkeypatch.setattr("repro.core.fastengine.time", fake_time)
    monkeypatch.setattr("tests.oracle.time", fake_time)
    return clock


def _internet():
    return SimulatedInternet.from_config(tiny_scenario(seed=7))


def _reference_internet(monkeypatch):
    """An internet whose pings go through the oracle's object ping
    (installed for every simulator, until the test ends)."""
    oracle.install(monkeypatch, oracle.PROBER_CAMPAIGN)
    return _internet()


def _probe_target(internet):
    snapshot = scan(internet)
    return snapshot.active_in(snapshot.eligible_slash24s()[0])[0]


class TestSerialAttribution:
    def test_each_probe_charged_once(self, fake_clock):
        internet = _internet()
        dst = _probe_target(internet)
        for _ in range(6):
            oracle.send_probe(internet, dst, 32)
        assert internet.probe_count == 6
        assert internet.probe_seconds == pytest.approx(6 * STEP)


class TestBatchedAttribution:
    def test_batch_charged_once_not_per_probe(self, fake_clock):
        internet = _internet()
        ping(Prober(internet), _probe_target(internet), 8)
        assert internet.probe_count == 8
        # One timed section for the whole train: a per-probe *and*
        # per-train double charge would read 8*STEP + STEP here.
        assert internet.probe_seconds == pytest.approx(STEP)

    def test_reference_engine_times_per_probe(self, fake_clock, monkeypatch):
        internet = _reference_internet(monkeypatch)
        ping(Prober(internet), _probe_target(internet), 8)
        assert internet.probe_count == 8
        assert internet.probe_seconds == pytest.approx(8 * STEP)


class TestEngineTimingParity:
    def test_compiled_vs_reference_counter_semantics(
        self, fake_clock, monkeypatch
    ):
        """Regression for the probe_us_avg attribution contract: both
        paths count the same probes and produce the same RTTs; the
        compiled engine attributes wall-clock per *mirror* while the
        reference attributes it per *probe*."""
        compiled = _internet()
        target = _probe_target(compiled)
        compiled_rtts = ping(Prober(compiled), target, 8).rtts_ms

        reference = _reference_internet(monkeypatch)
        reference_rtts = ping(Prober(reference), target, 8).rtts_ms

        assert compiled_rtts == reference_rtts
        assert compiled.probe_count == reference.probe_count == 8
        assert compiled.probe_seconds == pytest.approx(STEP)
        assert reference.probe_seconds == pytest.approx(8 * STEP)

    def test_probe_us_avg_consistent_with_counters(self, fake_clock):
        internet = _internet()
        target = _probe_target(internet)
        ping(Prober(internet), target, 8)
        for _ in range(2):
            oracle.send_probe(internet, target, 32)
        stats = internet.stats()
        assert stats["probe_us_avg"] == pytest.approx(
            1e6 * internet.probe_seconds / internet.probe_count
        )
        assert stats["probe_count"] == 10
        assert stats["probe_seconds"] == pytest.approx(3 * STEP)
