"""Observability suite for the campaign executor.

Three contracts from the structured-observability work:

* serial and parallel campaigns fold **bit-identical** counters (only
  the execution-path markers differ);
* a degraded parallel run is *loud* — a Python warning, fallback
  counters, and a journal entry — instead of a silent serial fallback;
* tracing costs nothing when off and round-trips through
  ``summarize_trace`` when on.
"""

import contextlib
import multiprocessing
import warnings

import pytest

from repro.core import (
    ParallelFallbackWarning,
    TerminationPolicy,
    run_campaign,
)
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.obs.metrics import MetricsRegistry, current_metrics, metrics_scope
from repro.obs.trace import configure_tracing, span, summarize_trace
from repro.probing import scan

SEED = 5
MAX_DESTINATIONS = 48


@pytest.fixture(autouse=True)
def _reset_tracing():
    yield
    configure_tracing(None)


def _fresh_internet():
    internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
    snapshot = scan(internet)
    return internet, snapshot


def _run(internet, snapshot, slash24s, workers=1, registry=None):
    return run_campaign(
        internet,
        TerminationPolicy(),
        slash24s=slash24s,
        snapshot=snapshot,
        seed=SEED,
        max_destinations_per_slash24=MAX_DESTINATIONS,
        workers=workers,
        metrics=registry,
    )


@pytest.fixture(scope="module")
def selection():
    _, snapshot = _fresh_internet()
    return snapshot.eligible_slash24s()[:16]


@contextlib.contextmanager
def _no_fallback_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParallelFallbackWarning)
        yield


def _path_independent(counters):
    """Counters minus the execution-path markers (which legitimately
    differ between the serial and parallel runs)."""
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("campaign.parallel")
    }


class TestSerialParallelParity:
    def test_counters_bit_identical(self, selection):
        serial_internet, serial_snapshot = _fresh_internet()
        serial_registry = MetricsRegistry()
        _run(
            serial_internet, serial_snapshot, selection,
            registry=serial_registry,
        )
        parallel_internet, parallel_snapshot = _fresh_internet()
        parallel_registry = MetricsRegistry()
        _run(
            parallel_internet, parallel_snapshot, selection,
            workers=2, registry=parallel_registry,
        )
        assert parallel_registry.counter_value("campaign.parallel") == 1
        assert _path_independent(parallel_registry.counters) == (
            _path_independent(serial_registry.counters)
        )

    def test_campaign_counters_match_result(self, selection):
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        result = _run(internet, snapshot, selection, registry=registry)
        assert registry.counter_value("campaign.slash24s") == len(selection)
        # Without a store attached, every campaign probe was physically
        # sent, so the two accounting layers must agree exactly.
        assert registry.counter_value("campaign.probes.sent") == (
            registry.counter_value("netsim.probes")
        )
        assert result.total == len(selection)
        category_total = sum(
            value
            for name, value in registry.counters.items()
            if name.startswith("campaign.categories.")
        )
        assert category_total == len(selection)

    def test_netsim_counters_track_engine(self, selection):
        """``netsim.*`` is what the simulator physically did this run —
        after a parallel campaign it includes the workers' engines."""
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        _run(internet, snapshot, selection, workers=2, registry=registry)
        assert registry.counter_value("netsim.probes") == (
            internet.probe_count
        )
        assert registry.timer_seconds("netsim.probe_seconds") == (
            pytest.approx(internet.probe_seconds)
        )

    def test_workers_gauge_records_request(self, selection):
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        _run(internet, snapshot, selection[:4], workers=2, registry=registry)
        assert registry.gauge_value("campaign.workers") == 2

    def test_ambient_registry_is_the_default(self, selection):
        internet, snapshot = _fresh_internet()
        with metrics_scope() as scoped:
            _run(internet, snapshot, selection[:2])
            assert scoped is current_metrics()
        assert scoped.counter_value("campaign.slash24s") == 2


def _refuse_process_start(monkeypatch):
    def start(self):
        raise OSError("process start refused")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)


def _remove_fork(monkeypatch):
    """The platform has no fork start method, as on Windows."""

    def get_context(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)


class TestParallelFallbackVisibility:
    """A ``workers=N`` campaign whose workers cannot start runs serially,
    and says so on every channel."""

    def _assert_loud_fallback(self, selection):
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        with pytest.warns(ParallelFallbackWarning, match="pool_failure"):
            result = _run(
                internet, snapshot, selection,
                workers=4, registry=registry,
            )
        assert registry.counter_value("campaign.parallel_fallback") == 1
        assert registry.counter_value(
            "campaign.parallel_fallback.pool_failure"
        ) == 1
        assert registry.counter_value("campaign.parallel") == 0
        assert result.total == len(selection)

    def test_start_failure_warns_and_counts(self, selection, monkeypatch):
        _refuse_process_start(monkeypatch)
        self._assert_loud_fallback(selection)

    def test_missing_fork_warns_and_counts(self, selection, monkeypatch):
        _remove_fork(monkeypatch)
        self._assert_loud_fallback(selection)

    def test_fallback_lands_in_trace_journal(
        self, selection, tmp_path, monkeypatch
    ):
        for trigger in (_refuse_process_start, _remove_fork):
            journal = tmp_path / f"{trigger.__name__}.jsonl"
            with monkeypatch.context() as patch:
                trigger(patch)
                configure_tracing(str(journal))
                internet, snapshot = _fresh_internet()
                with pytest.warns(ParallelFallbackWarning):
                    _run(internet, snapshot, selection[:4], workers=2)
                configure_tracing(None)
            summary = summarize_trace(str(journal))
            assert not summary.clean
            assert any(
                warning["name"] == "campaign.parallel_fallback"
                and warning["reason"] == "pool_failure"
                for warning in summary.warnings
            )

    def test_healthy_parallel_run_does_not_warn(self, selection):
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        with _no_fallback_warnings():
            _run(
                internet, snapshot, selection[:8],
                workers=2, registry=registry,
            )
        assert registry.counter_value("campaign.parallel_fallback") == 0


class TestCampaignTracing:
    def test_serial_campaign_round_trips_through_summarize(
        self, selection, tmp_path
    ):
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        internet, snapshot = _fresh_internet()
        _run(internet, snapshot, selection[:4])
        configure_tracing(None)
        summary = summarize_trace(str(journal))
        assert summary.clean
        assert summary.spans["campaign.run"].count == 1
        assert summary.spans["campaign.slash24"].count == 4
        assert summary.unclosed_spans == 0

    def test_parallel_campaign_traces_only_in_parent(
        self, selection, tmp_path
    ):
        """Workers never append to the parent's journal (interleaved
        writes); the parent still records the campaign.run span."""
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        internet, snapshot = _fresh_internet()
        _run(internet, snapshot, selection[:8], workers=2)
        configure_tracing(None)
        summary = summarize_trace(str(journal))
        assert summary.clean
        assert summary.spans["campaign.run"].count == 1
        assert "campaign.slash24" not in summary.spans

    def test_campaign_without_tracing_touches_no_files(
        self, selection, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        internet, snapshot = _fresh_internet()
        _run(internet, snapshot, selection[:2])
        assert list(tmp_path.iterdir()) == []

    def test_disabled_span_is_shared_null_context(self):
        assert span("campaign.run") is span("campaign.slash24")
