"""Workspace persistent mode: artifact caching and the store property.

Full tiny-profile warm-rerun coverage (zero probes across every stage)
lives in the CI store smoke; here each probe-built artifact, and the
confidence table trained on the first, is replayed on its own, on the
tiny profile."""

import dataclasses
import shutil

import pytest

from repro.core import ConfidenceTable
from repro.experiments import PROFILES, Workspace
from repro.experiments.common import active_store_path
from repro.obs.metrics import metrics_scope
from repro.store import (
    KIND_ARTIFACT,
    MeasurementStore,
    confidence_table_fingerprint,
)
from repro.store.codec import HEADER_SIZE
from repro.store.segment import scan


class TestStoreProperty:
    def test_no_store_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        workspace = Workspace(PROFILES["tiny"])
        assert workspace.store_path is None
        assert workspace.store is None

    def test_env_var_attaches_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        assert active_store_path() == str(tmp_path / "env-store")
        workspace = Workspace(PROFILES["tiny"])
        assert workspace.store_path == str(tmp_path / "env-store")
        assert isinstance(workspace.store, MeasurementStore)

    def test_explicit_path_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        workspace = Workspace(
            PROFILES["tiny"], store_path=str(tmp_path / "explicit")
        )
        assert workspace.store_path == str(tmp_path / "explicit")


#: Workspace artifacts built by probing and replayed from the store.
PROBE_ARTIFACTS = ["confidence_dataset", "path_dataset", "strict_het_analyses"]


def _order(value):
    """Keys in iteration order, with the inner order of dict values."""
    return [
        (key, list(inner) if isinstance(inner, dict) else None)
        for key, inner in value.items()
    ]


class TestConfidenceDatasetCaching:
    """Replay of every probe artifact, the confidence dataset first."""

    @pytest.fixture(scope="class", params=PROBE_ARTIFACTS)
    def artifact(self, request, tmp_path_factory):
        """(artifact name, a store of its own)."""
        return request.param, tmp_path_factory.mktemp("ws-store") / "s"

    def test_warm_dataset_is_bit_identical_and_probe_free(self, artifact):
        name, store_root = artifact
        cold = Workspace(PROFILES["tiny"], store_path=str(store_root))
        cold_value = getattr(cold, name)
        cold_probes = cold.internet.probe_count
        cold_clock = cold.internet.clock_seconds
        assert cold_probes > 0
        assert cold_value

        warm = Workspace(PROFILES["tiny"], store_path=str(store_root))
        warm_value = getattr(warm, name)
        assert warm.internet.probe_count == 0
        assert warm_value == cold_value
        assert _order(warm_value) == _order(cold_value)  # canonical order
        # The virtual clock is restored too, so later stages line up.
        assert warm.internet.clock_seconds == cold_clock

    def test_storeless_build_matches_stored_build(self, artifact):
        name, store_root = artifact
        stored = Workspace(PROFILES["tiny"], store_path=str(store_root))
        plain = Workspace(PROFILES["tiny"])
        assert getattr(plain, name) == getattr(stored, name)
        assert plain.internet.clock_seconds == stored.internet.clock_seconds


def _cells(table):
    """Cells with their counts, in insertion order."""
    return [
        (key, cell.successes, cell.trials)
        for key, cell in table.cells().items()
    ]


def _refuse_build(*args, **kwargs):
    raise AssertionError("ConfidenceTable.build ran")


def test_table_build_is_pinned_to_the_artifact_name():
    """The stored table's key names the build's inputs, not the
    builder. If this fingerprint moves, ``ConfidenceTable.build`` now
    returns another table for the same inputs: rename the workspace's
    ``confidence-table`` artifact in the same change, or a warm store
    keeps serving the old table."""
    datasets = {
        "flat": {address: frozenset({7}) for address in range(12)},
        "banded": {
            address: frozenset({1 + (address * 7 // 40) % 3})
            for address in range(40)
        },
    }
    table = ConfidenceTable.build(
        datasets, seed=3, samples_per_block=20, min_trials=1
    )
    assert confidence_table_fingerprint(table) == (
        "79f1b78a17ca963bbc671f8d7dbf4a1c"
    )


class TestConfidenceTableReplay:
    """The trained table is stored beside its dataset and comes back
    without a draw; a change to what it was built from misses."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """(a store filled by a cold tiny campaign, the cold workspace)."""
        root = tmp_path_factory.mktemp("table-store") / "s"
        with Workspace(PROFILES["tiny"], store_path=str(root)) as workspace:
            assert workspace.campaign.measurements
        return root, workspace

    @pytest.fixture()
    def store_copy(self, cold, tmp_path):
        """A copy of the cold store that a test may damage or extend."""
        shutil.copytree(cold[0], tmp_path / "s")
        return tmp_path / "s"

    @pytest.fixture()
    def builds(self, monkeypatch):
        """Every ``ConfidenceTable.build`` call's keyword arguments."""
        calls = []
        build = ConfidenceTable.build.__func__

        def counted(cls, *args, **kwargs):
            calls.append(kwargs)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(ConfidenceTable, "build", classmethod(counted))
        return calls

    def test_warm_table_replays_without_a_draw(self, cold, monkeypatch):
        root, workspace = cold
        expected = workspace.confidence_table
        monkeypatch.setattr(ConfidenceTable, "build", _refuse_build)
        with metrics_scope() as registry, Workspace(
            PROFILES["tiny"], store_path=str(root)
        ) as warm:
            table = warm.confidence_table
        assert _cells(table) == _cells(expected)
        assert table.min_trials == expected.min_trials == 40
        assert table.required_probes_map(0.95) == (
            expected.required_probes_map(0.95)
        )
        assert confidence_table_fingerprint(table) == (
            confidence_table_fingerprint(expected)
        )
        # The dataset and the table, both replayed.
        assert registry.counter_value("store.artifact.hits") == 2
        assert registry.counter_value("store.artifact.misses") == 0

    def test_storeless_build_matches_stored_table(self, cold, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with metrics_scope() as registry:
            plain = Workspace(PROFILES["tiny"])
            assert _cells(plain.confidence_table) == (
                _cells(cold[1].confidence_table)
            )
        assert not [
            name for name in registry.counters if name.startswith("store.")
        ]

    @pytest.mark.parametrize("change", ["samples_per_block", "last_hop"])
    def test_changed_input_misses_and_rebuilds(
        self, cold, store_copy, builds, change
    ):
        profile = PROFILES["tiny"]
        if change == "samples_per_block":
            profile = dataclasses.replace(
                profile, confidence_samples_per_block=12
            )
        with metrics_scope() as registry, Workspace(
            profile, store_path=str(store_copy)
        ) as warm:
            if change == "last_hop":
                dataset = dict(warm.confidence_dataset)
                slash24, observations = next(iter(dataset.items()))
                address = next(iter(observations))
                dataset[slash24] = {
                    **observations, address: frozenset({0xDEAD})
                }
                warm._confidence_dataset = dataset
            table = warm.confidence_table
        assert len(builds) == 1
        assert registry.counter_value("store.artifact.hits") == 1  # dataset
        assert registry.counter_value("store.artifact.misses") == 1
        assert _cells(table) != _cells(cold[1].confidence_table)

    def test_corrupt_table_record_is_rebuilt(self, cold, store_copy, builds):
        """A flipped byte in the table's record is skipped as corrupt:
        the table is built again, equal, so every /24 still replays."""
        (path, offset), = [
            (path, offset)
            for path in sorted((store_copy / "segments").iterdir())
            for offset, document in scan(str(path)).records
            if document["kind"] == KIND_ARTIFACT
            and "cells" in document["value"]
        ]
        data = bytearray(path.read_bytes())
        data[offset + HEADER_SIZE] ^= 0xFF
        path.write_bytes(bytes(data))
        with metrics_scope() as registry, Workspace(
            PROFILES["tiny"], store_path=str(store_copy)
        ) as warm:
            assert len(warm.store.corrupt_records) == 1
            table = warm.confidence_table
            measured = len(warm.campaign.measurements)
        assert len(builds) == 1
        assert _cells(table) == _cells(cold[1].confidence_table)
        assert registry.counter_value("store.artifact.misses") == 1
        assert registry.counter_value("campaign.store.hits") == measured
        assert registry.counter_value("campaign.store.misses") == 0
        assert warm.internet.probe_count == 0
