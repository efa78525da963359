"""Determinism suite for the sharded campaign executor.

The campaign's contract after the per-/24 context change: a /24's
measurement is a pure function of (scenario, campaign seed, prefix), so
results are invariant under reordering, truncation, and the worker
count, and bit-identical between runs with the same seed.
"""

import warnings

import pytest

from repro.core import (
    CampaignResult,
    Category,
    ParallelFallbackWarning,
    TerminationPolicy,
    run_campaign,
    slash24_seed,
)
from repro.core.classifier import Slash24Measurement
from repro.net.prefix import Prefix
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.obs.metrics import MetricsRegistry
from repro.probing import scan
from repro.probing.session import ProbeStats

SEED = 5
MAX_DESTINATIONS = 48


def _fresh_internet():
    internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
    snapshot = scan(internet)
    return internet, snapshot


def _run(internet, snapshot, slash24s, workers=1):
    return run_campaign(
        internet,
        TerminationPolicy(),
        slash24s=slash24s,
        snapshot=snapshot,
        seed=SEED,
        max_destinations_per_slash24=MAX_DESTINATIONS,
        workers=workers,
    )


@pytest.fixture(scope="module")
def selection():
    internet, snapshot = _fresh_internet()
    return snapshot.eligible_slash24s()[:24]


@pytest.fixture(scope="module")
def serial_result(selection):
    internet, snapshot = _fresh_internet()
    return _run(internet, snapshot, selection)


class TestOrderIndependence:
    def test_reversed_selection_identical(self, selection, serial_result):
        internet, snapshot = _fresh_internet()
        reordered = _run(internet, snapshot, list(reversed(selection)))
        assert reordered.measurements == serial_result.measurements
        assert reordered.probes_used == serial_result.probes_used

    def test_truncated_selection_identical(self, selection, serial_result):
        """Measuring a /24 alone gives the same verdict as measuring it
        within the full campaign (the shared-RNG regression)."""
        internet, snapshot = _fresh_internet()
        solo = _run(internet, snapshot, selection[:1])
        assert (
            solo.measurements[selection[0]]
            == serial_result.measurements[selection[0]]
        )

    def test_same_seed_reproducible(self, selection, serial_result):
        internet, snapshot = _fresh_internet()
        again = _run(internet, snapshot, selection)
        assert again.measurements == serial_result.measurements
        assert again.probes_used == serial_result.probes_used

    def test_slash24_seed_stable(self):
        prefix = Prefix.parse("10.1.2.0/24")
        assert slash24_seed(1, prefix) == slash24_seed(1, prefix)
        assert slash24_seed(1, prefix) != slash24_seed(2, prefix)
        assert slash24_seed(1, prefix) != slash24_seed(
            1, Prefix.parse("10.1.3.0/24")
        )


class TestParallelEquivalence:
    @pytest.fixture(scope="class")
    def parallel_result(self, selection):
        internet, snapshot = _fresh_internet()
        return _run(internet, snapshot, selection, workers=4)

    def test_measurements_identical(self, serial_result, parallel_result):
        assert parallel_result.measurements == serial_result.measurements

    def test_insertion_order_identical(self, serial_result, parallel_result):
        assert list(parallel_result.measurements) == list(
            serial_result.measurements
        )

    def test_category_counts_identical(self, serial_result, parallel_result):
        assert (
            parallel_result.category_counts()
            == serial_result.category_counts()
        )

    def test_lasthop_sets_identical(self, serial_result, parallel_result):
        assert (
            parallel_result.lasthop_sets() == serial_result.lasthop_sets()
        )

    def test_probes_used_identical(self, serial_result, parallel_result):
        assert parallel_result.probes_used == serial_result.probes_used

    def test_simulator_end_state_identical(self, selection):
        serial_internet, serial_snapshot = _fresh_internet()
        _run(serial_internet, serial_snapshot, selection)
        parallel_internet, parallel_snapshot = _fresh_internet()
        _run(parallel_internet, parallel_snapshot, selection, workers=2)
        assert (
            parallel_internet.clock_seconds == serial_internet.clock_seconds
        )
        assert parallel_internet.probe_count == serial_internet.probe_count
        # The workers' route-template lookups are folded in too; each
        # worker builds its own templates, so only the lookups match.
        assert (
            parallel_internet.template_lookups
            == serial_internet.template_lookups
        )
        assert 0 < parallel_internet.stats()["forwarder_cache_hit_rate"] <= 1

    def test_parallel_entry_point(self, selection, serial_result):
        internet, snapshot = _fresh_internet()
        result = run_campaign(
            internet,
            TerminationPolicy(),
            slash24s=selection,
            snapshot=snapshot,
            seed=SEED,
            max_destinations_per_slash24=MAX_DESTINATIONS,
            workers=2,
        )
        assert result.measurements == serial_result.measurements

    def test_workers_must_be_positive(self, selection):
        internet, snapshot = _fresh_internet()
        with pytest.raises(ValueError):
            _run(internet, snapshot, selection, workers=0)

    def test_unpicklable_policy_runs_on_workers(
        self, selection, serial_result
    ):
        """Forked workers inherit the policy: one that cannot be
        pickled still runs on them, with no fallback to serial."""
        internet, snapshot = _fresh_internet()
        policy = TerminationPolicy()
        policy.unpicklable_probe = lambda: None  # defeats pickle
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            result = run_campaign(
                internet,
                policy,
                slash24s=selection,
                snapshot=snapshot,
                seed=SEED,
                max_destinations_per_slash24=MAX_DESTINATIONS,
                workers=4,
                metrics=registry,
            )
        assert registry.counter_value("campaign.parallel") == 1
        assert result.measurements == serial_result.measurements


class TestCampaignResultAccounting:
    def _measurement(self, network="10.0.0.0", probes=7):
        return Slash24Measurement(
            slash24=Prefix.parse(f"{network}/24"),
            category=Category.TOO_FEW_ACTIVE,
            probes_used=probes,
        )

    def test_duplicate_add_raises(self):
        result = CampaignResult()
        result.add(self._measurement())
        with pytest.raises(ValueError, match="duplicate"):
            result.add(self._measurement(probes=3))
        assert result.probes_used == 7  # the duplicate never counted

    def test_probe_stats_merge(self):
        total = ProbeStats(sent=5, answered=4, echo_replies=3, ttl_exceeded=1)
        assert total.merge(
            ProbeStats(sent=2, answered=1, echo_replies=0, ttl_exceeded=1)
        ) is total
        assert total == ProbeStats(
            sent=7, answered=5, echo_replies=3, ttl_exceeded=2
        )
        assert total.timeouts == 2
