"""Crash consistency of the parallel campaign executor.

The contract under attack: a ``workers=N`` campaign in which a worker
is SIGKILLed after measuring a chunk, before sending it back, must
still complete — the parent hands the chunk to a live worker, or
measures it itself once none is left — and the result must be
bit-identical to the serial run: measurements, their insertion order,
probe accounting, store records, and the simulator's end-of-campaign
clock.
"""

import multiprocessing
import os

import pytest

import repro.core.pipeline as pipeline_module
from repro.core import TerminationPolicy, run_campaign
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.obs.metrics import MetricsRegistry
from repro.probing import scan
from repro.store import CampaignCache, MeasurementStore
from repro.store import campaign as campaign_module

SEED = 5
MAX_DESTINATIONS = 48


def _fresh_internet():
    internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
    snapshot = scan(internet)
    return internet, snapshot


def _run(internet, snapshot, slash24s, workers=1, store=None, registry=None):
    return run_campaign(
        internet,
        TerminationPolicy(),
        slash24s=slash24s,
        snapshot=snapshot,
        seed=SEED,
        max_destinations_per_slash24=MAX_DESTINATIONS,
        workers=workers,
        store=store,
        metrics=registry,
    )


@pytest.fixture(scope="module")
def selection():
    internet, snapshot = _fresh_internet()
    return snapshot.eligible_slash24s()[:24]


@pytest.fixture(scope="module")
def serial_state(selection):
    """(result, clock, probe_count, route-template lookups) of the
    uninterrupted serial run."""
    internet, snapshot = _fresh_internet()
    result = _run(internet, snapshot, selection)
    return (
        result, internet.clock_seconds, internet.probe_count,
        internet.template_lookups,
    )


def _bound_cache(store, internet, clock_base):
    return CampaignCache.bind(
        store, internet, TerminationPolicy(), SEED, clock_base,
        MAX_DESTINATIONS,
    )


class TestWorkerDeathRecovery:
    def test_killed_worker_mid_batch_bit_identical(
        self, selection, serial_state, tmp_path, monkeypatch
    ):
        """Kill worker 0 after its first chunk: a surviving worker
        measures that chunk again, and everything the serial run would
        have produced is reproduced exactly."""
        serial_result, serial_clock, serial_probes, serial_lookups = (
            serial_state
        )
        monkeypatch.setenv("REPRO_WORKER_KILL", "0:1")
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        with MeasurementStore(str(tmp_path / "store")) as store:
            result = _run(
                internet, snapshot, selection,
                workers=3, store=store, registry=registry,
            )
        assert result.measurements == serial_result.measurements
        assert list(result.measurements) == list(serial_result.measurements)
        assert result.probes_used == serial_result.probes_used
        assert internet.clock_seconds == serial_clock
        assert internet.probe_count == serial_probes
        # The lost chunk's route-template lookups went with it.
        assert internet.template_lookups == serial_lookups
        # The death was not silent: the worker is reported lost, and a
        # live worker, not the parent, measured its chunk again.
        assert registry.counter_value(
            "campaign.parallel.workers_lost"
        ) == 1
        assert registry.counter_value("campaign.parallel.takeover") == 0

    def test_store_records_bit_identical_to_serial(
        self, selection, tmp_path, monkeypatch
    ):
        """Byte-for-byte: the record documents a kill-recovery campaign
        leaves in its store equal the serial campaign's."""
        serial_internet, serial_snapshot = _fresh_internet()
        serial_clock_base = serial_internet.clock_seconds
        with MeasurementStore(str(tmp_path / "serial")) as serial_store:
            _run(serial_internet, serial_snapshot, selection,
                 store=serial_store)
            serial_cache = _bound_cache(
                serial_store, serial_internet, serial_clock_base
            )
            serial_docs = {
                str(slash24): serial_store.get(
                    serial_cache.key_for(
                        slash24, serial_snapshot.active_in(slash24)
                    )
                )
                for slash24 in selection
            }

        monkeypatch.setenv("REPRO_WORKER_KILL", "0:1")
        internet, snapshot = _fresh_internet()
        clock_base = internet.clock_seconds
        with MeasurementStore(str(tmp_path / "killed")) as store:
            _run(internet, snapshot, selection, workers=3, store=store)
            cache = _bound_cache(store, internet, clock_base)
            docs = {
                str(slash24): store.get(
                    cache.key_for(slash24, snapshot.active_in(slash24))
                )
                for slash24 in selection
            }
        assert docs == serial_docs

    def test_all_workers_dead_parent_takes_over(
        self, selection, serial_state, tmp_path, monkeypatch
    ):
        """Every worker dies: nobody is left to take the chunks, so the
        parent measures the rest itself and the campaign still
        completes, bit-identical."""
        serial_result, serial_clock, serial_probes, serial_lookups = (
            serial_state
        )
        monkeypatch.setenv("REPRO_WORKER_KILL", "0:1,1:1")
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        with MeasurementStore(str(tmp_path / "store")) as store:
            result = _run(
                internet, snapshot, selection,
                workers=2, store=store, registry=registry,
            )
        assert registry.counter_value("campaign.parallel.takeover") == 1
        assert registry.counter_value(
            "campaign.parallel.workers_lost"
        ) == 2
        assert result.measurements == serial_result.measurements
        assert result.probes_used == serial_result.probes_used
        assert internet.clock_seconds == serial_clock
        assert internet.probe_count == serial_probes
        assert internet.template_lookups == serial_lookups
        assert 0 < internet.stats()["forwarder_cache_hit_rate"] <= 1

    def test_sole_survivor_finishes_everything(
        self, selection, serial_state, monkeypatch
    ):
        """workers=2 where worker 0 dies after its first chunk, and no
        store is attached: worker 1 finishes the whole campaign."""
        serial_result, serial_clock, serial_probes, _ = serial_state
        monkeypatch.setenv("REPRO_WORKER_KILL", "0:1")
        internet, snapshot = _fresh_internet()
        result = _run(internet, snapshot, selection, workers=2)
        assert result.measurements == serial_result.measurements
        assert result.probes_used == serial_result.probes_used
        assert internet.clock_seconds == serial_clock
        assert internet.probe_count == serial_probes


class TestChunkLostBeforeReport:
    def test_lost_chunk_stored_once(
        self, selection, serial_state, tmp_path, monkeypatch
    ):
        """With one-/24 chunks and commit groups, worker 0 dies after
        measuring its first chunk, before reporting it: a live worker
        measures that chunk again, and the parent stores every /24
        exactly once, bit-identical to serial."""
        serial_result, serial_clock, serial_probes, _ = serial_state
        monkeypatch.setattr(campaign_module, "COMMIT_EVERY", 1)
        monkeypatch.setenv("REPRO_WORKER_KILL", "0:1")
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        with MeasurementStore(str(tmp_path / "store")) as store:
            result = _run(
                internet, snapshot, selection,
                workers=3, store=store, registry=registry,
            )
            # Every /24 went down once: the lost chunk was measured
            # twice but recorded once.
            assert store.verify().records_ok == len(selection)
        assert result.measurements == serial_result.measurements
        assert list(result.measurements) == list(serial_result.measurements)
        assert result.probes_used == serial_result.probes_used
        assert internet.clock_seconds == serial_clock
        assert internet.probe_count == serial_probes
        assert registry.counter_value(
            "campaign.parallel.workers_lost"
        ) == 1
        assert registry.counter_value(
            "campaign.parallel.chunks"
        ) == len(selection)


class TestResumability:
    def test_second_run_replays_from_store(
        self, selection, serial_state, tmp_path, monkeypatch
    ):
        """A campaign resumed over the store a killed run left behind
        replays every stored /24 and re-measures nothing."""
        serial_result = serial_state[0]
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
        assert warm.measurements == serial_result.measurements


def _concurrent_appender(root, start, count):
    """Child-process body for the two-writer locking test."""
    from repro.store import MeasurementStore, artifact_record

    with MeasurementStore(root) as store:
        for index in range(start, start + count):
            store.put(artifact_record(f"sc::k{index}", index))


class TestConcurrentStoreWriters:
    def test_two_processes_appending_same_store(self, tmp_path):
        """Two unrelated processes appending to the same store must not
        interleave frames: advisory locking serializes every append, so
        afterwards the store verifies clean and holds every record."""
        root = str(tmp_path / "shared")
        MeasurementStore(root).close()  # create layout up front
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("this platform has no fork start method")
        writers = [
            context.Process(
                target=_concurrent_appender, args=(root, base, 50)
            )
            for base in (0, 50)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join()
        assert all(proc.exitcode == 0 for proc in writers)
        with MeasurementStore(root) as store:
            report = store.verify()
            assert report.clean
            assert len(store) == 100
            for index in range(100):
                document = store.get(f"sc::k{index}")
                assert document is not None
                assert document["value"] == index


class _OverridingPolicy(TerminationPolicy):
    """Overrides a hook the campaign engine inlines."""

    def should_stop_state(self, state):
        return None


class TestPolicyTypeAtBoundary:
    """A policy type the engine does not replicate is refused once, as
    the campaign starts: before a store hit could return the base
    policy's results as its own, and before a worker is forked."""

    def _refused(self, store, slash24s, workers, monkeypatch):
        def past_the_boundary(*args, **kwargs):
            raise AssertionError("the store was bound or a worker forked")

        monkeypatch.setattr(CampaignCache, "bind", past_the_boundary)
        monkeypatch.setattr(
            pipeline_module, "_run_parallel", past_the_boundary
        )
        internet, snapshot = _fresh_internet()
        registry = MetricsRegistry()
        records = len(store)
        with pytest.raises(TypeError, match="_OverridingPolicy"):
            run_campaign(
                internet, _OverridingPolicy(), slash24s=slash24s,
                snapshot=snapshot, seed=SEED,
                max_destinations_per_slash24=MAX_DESTINATIONS,
                workers=workers, store=store, metrics=registry,
            )
        assert internet.probe_count == 0
        assert len(store) == records
        assert not [
            name for name in registry.counters
            if name.startswith("campaign.parallel")
        ]

    def test_warm_store(self, selection, tmp_path, monkeypatch):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(str(tmp_path / "store")) as store:
            _run(internet, snapshot, selection[:8], store=store)
            assert len(store) == 8
            self._refused(store, selection[:8], 1, monkeypatch)

    def test_parallel_run(self, selection, tmp_path, monkeypatch):
        with MeasurementStore(str(tmp_path / "store")) as store:
            self._refused(store, selection[:8], 2, monkeypatch)
