"""Workspace persistent mode: artifact caching and the store property.

Full tiny-profile warm-rerun coverage (zero probes across every stage)
lives in the CI store smoke; here each probe-built artifact is replayed
on its own, on the tiny profile."""

import pytest

from repro.experiments import PROFILES, Workspace
from repro.experiments.common import active_store_path
from repro.store import MeasurementStore


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
