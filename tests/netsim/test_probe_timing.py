"""Timing-attribution semantics of the probe engine.

``probe_us_avg`` (``stats()``) divides ``probe_seconds`` by
``probe_count``, so the two must be charged consistently: the serial
path times each probe individually, while the vectorised batch path
times the whole batch **once** in its ``finally`` — never per probe on
top of per batch. A fixed-step fake ``perf_counter`` makes the
attribution countable: every timed section costs exactly one step.
"""

import types

import pytest

from repro.netsim import SimulatedInternet, tiny_scenario
from repro.netsim.internet import MIN_VECTOR_BATCH
from repro.probing import scan
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
    monkeypatch.setattr(
        "repro.netsim.internet.time",
        types.SimpleNamespace(perf_counter=clock.perf_counter),
    )
    return clock


def _internet():
    return SimulatedInternet.from_config(tiny_scenario(seed=7))


def _reference_internet(monkeypatch):
    """An internet probing through the oracle's serial reference path
    (installed for every simulator, until the test ends)."""
    oracle.install(monkeypatch, oracle.PROBING)
    return _internet()


def _probe_targets(internet, count):
    snapshot = scan(internet)
    slash24 = snapshot.eligible_slash24s()[0]
    actives = snapshot.active_in(slash24)
    assert len(actives) >= count
    return actives[:count]


class TestSerialAttribution:
    def test_each_probe_charged_once(self, fake_clock):
        internet = _internet()
        targets = _probe_targets(internet, 6)
        for dst in targets:
            internet.send_probe(dst, 32)
        assert internet.probe_count == 6
        assert internet.probe_seconds == pytest.approx(6 * STEP)
        assert internet.probe_batches == 0
        assert internet.batched_probes == 0


class TestBatchedAttribution:
    def test_batch_charged_once_not_per_probe(self, fake_clock):
        internet = _internet()
        targets = _probe_targets(internet, 8)
        internet.send_probe_batch(targets, 32)
        assert internet.probe_count == 8
        # One timed section for the whole batch: a per-probe *and*
        # per-batch double charge would read 8*STEP + STEP here.
        assert internet.probe_seconds == pytest.approx(STEP)
        assert internet.probe_batches == 1
        assert internet.batched_probes == 8

    def test_small_batch_falls_back_to_per_probe_timing(self, fake_clock):
        internet = _internet()
        count = MIN_VECTOR_BATCH - 1
        targets = _probe_targets(internet, count)
        internet.send_probe_batch(targets, 32)
        assert internet.probe_count == count
        assert internet.probe_seconds == pytest.approx(count * STEP)
        assert internet.probe_batches == 0
        assert internet.batched_probes == 0

    def test_reference_engine_times_per_probe(self, fake_clock, monkeypatch):
        internet = _reference_internet(monkeypatch)
        targets = _probe_targets(internet, 8)
        internet.send_probe_batch(targets, 32)
        assert internet.probe_count == 8
        assert internet.probe_seconds == pytest.approx(8 * STEP)
        assert internet.probe_batches == 0
        assert internet.batched_probes == 0


class TestEngineTimingParity:
    def test_compiled_vs_reference_counter_semantics(
        self, fake_clock, monkeypatch
    ):
        """Regression for the probe_us_avg attribution contract: both
        engines count the same probes and produce the same replies; the
        compiled engine attributes wall-clock per *batch* while the
        reference engine attributes it per *probe*."""
        compiled = _internet()
        targets = _probe_targets(compiled, 8)
        compiled_replies = compiled.send_probe_batch(targets, 32)

        reference = _reference_internet(monkeypatch)
        reference_replies = reference.send_probe_batch(targets, 32)

        assert compiled_replies == reference_replies
        assert compiled.probe_count == reference.probe_count == 8
        assert compiled.probe_batches == 1
        assert reference.probe_batches == 0
        assert compiled.probe_seconds == pytest.approx(STEP)
        assert reference.probe_seconds == pytest.approx(8 * STEP)

    def test_probe_us_avg_consistent_with_counters(self, fake_clock):
        internet = _internet()
        targets = _probe_targets(internet, 8)
        internet.send_probe_batch(targets, 32)
        for dst in targets[:2]:
            internet.send_probe(dst, 32)
        stats = internet.stats()
        assert stats["probe_us_avg"] == pytest.approx(
            1e6 * internet.probe_seconds / internet.probe_count
        )
        assert stats["probe_count"] == 10
        assert stats["probe_batches"] == 1
        assert stats["batched_probes"] == 8
