"""Tests for the metrics registry: recording, its plain-data state
and ``run.json`` form, and the ambient scope."""

import pickle
import types

import pytest

from repro.obs.metrics import MetricsRegistry, current_metrics, metrics_scope


def _calls(registry, name):
    """A timer's call count, as ``run.json`` reports it."""
    return registry.to_dict()["timers"][name]["calls"]


class TestRecording:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.count("campaign.slash24s")
        registry.count("campaign.slash24s", 4)
        assert registry.counter_value("campaign.slash24s") == 5

    def test_counter_default(self):
        assert MetricsRegistry().counter_value("missing") == 0
        assert MetricsRegistry().counter_value("missing", default=-1) == -1

    def test_gauge_keeps_latest(self):
        registry = MetricsRegistry()
        registry.gauge("campaign.workers", 2)
        registry.gauge("campaign.workers", 8)
        assert registry.gauge_value("campaign.workers") == 8

    def test_timer_accumulates_seconds_and_calls(self):
        registry = MetricsRegistry()
        registry.add_seconds("phase.campaign", 1.5)
        registry.add_seconds("phase.campaign", 0.5, calls=3)
        assert registry.timer_seconds("phase.campaign") == 2.0
        assert _calls(registry, "phase.campaign") == 4

    def test_timer_defaults(self):
        registry = MetricsRegistry()
        assert registry.timer_seconds("missing") == 0.0
        assert "missing" not in registry.to_dict()["timers"]

    def test_time_context_manager(self, monkeypatch):
        ticks = iter([10.0, 12.5])
        monkeypatch.setattr(
            "repro.obs.metrics.time",
            types.SimpleNamespace(perf_counter=lambda: next(ticks)),
        )
        registry = MetricsRegistry()
        with registry.time("phase.scenario"):
            pass
        assert registry.timer_seconds("phase.scenario") == 2.5
        assert _calls(registry, "phase.scenario") == 1

    def test_time_records_on_exception(self, monkeypatch):
        ticks = iter([0.0, 1.0])
        monkeypatch.setattr(
            "repro.obs.metrics.time",
            types.SimpleNamespace(perf_counter=lambda: next(ticks)),
        )
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.time("phase.broken"):
                raise RuntimeError("boom")
        assert registry.timer_seconds("phase.broken") == 1.0


class TestSerialization:
    def _populated(self):
        registry = MetricsRegistry()
        registry.count("campaign.slash24s", 24)
        registry.gauge("campaign.workers", 4)
        registry.add_seconds("phase.campaign", 1.75, calls=2)
        return registry

    def test_pickle_round_trip(self):
        registry = self._populated()
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counters == registry.counters
        assert clone.gauges == registry.gauges
        assert clone.timers == registry.timers

    def test_to_dict_shape(self):
        document = self._populated().to_dict()
        assert document["counters"] == {"campaign.slash24s": 24}
        assert document["gauges"] == {"campaign.workers": 4}
        assert document["timers"]["phase.campaign"] == {
            "seconds": 1.75,
            "calls": 2,
        }


class TestAmbientScope:
    def test_scope_installs_and_restores(self):
        root = current_metrics()
        with metrics_scope() as scoped:
            assert current_metrics() is scoped
            assert scoped is not root
            with metrics_scope() as inner:
                assert current_metrics() is inner
            assert current_metrics() is scoped
        assert current_metrics() is root

    def test_scope_accepts_registry(self):
        mine = MetricsRegistry()
        with metrics_scope(mine) as scoped:
            assert scoped is mine
            current_metrics().count("hit")
        assert mine.counter_value("hit") == 1
