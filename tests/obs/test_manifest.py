"""Tests for the per-run ``run.json`` manifest."""

import json
import os

from repro.obs.manifest import (
    MANIFEST_NAME,
    build_manifest,
    manifest_path_for,
    phase_wall_clocks,
    write_run_manifest,
)
from repro.obs.metrics import MetricsRegistry


def _registry():
    registry = MetricsRegistry()
    registry.add_seconds("phase.scenario", 0.5)
    registry.add_seconds("phase.campaign", 2.0)
    registry.add_seconds("experiment.table1", 0.1)  # not a phase
    registry.count("netsim.probes", 5000)
    registry.gauge("campaign.workers", 2)
    return registry


class TestPhaseWallClocks:
    def test_strips_prefix_and_keeps_only_phases(self):
        assert phase_wall_clocks(_registry()) == {
            "scenario": 0.5,
            "campaign": 2.0,
        }


class TestBuildManifest:
    def test_core_fields(self):
        document = build_manifest(
            command="run",
            profile="tiny",
            scenario_seed=7,
            workers=2,
            store_path=None,
            trace_path="/tmp/t.jsonl",
            registry=_registry(),
            internet_stats={"probe_count": 5000},
            extra={"experiments": ["table1"]},
        )
        assert document["command"] == "run"
        assert document["profile"] == "tiny"
        assert document["scenario_seed"] == 7
        assert document["workers"] == 2
        assert document["trace"] == "/tmp/t.jsonl"
        assert document["phases"] == {"scenario": 0.5, "campaign": 2.0}
        assert document["internet_stats"] == {"probe_count": 5000}
        assert document["experiments"] == ["table1"]
        assert document["metrics"]["counters"]["netsim.probes"] == 5000

    def test_probes_per_second_from_campaign_phase(self):
        document = build_manifest(command="run", registry=_registry())
        assert document["campaign_probes_per_second"] == 2500.0

    def test_rate_omitted_without_probes(self):
        document = build_manifest(command="run", registry=MetricsRegistry())
        assert "campaign_probes_per_second" not in document

    def test_registry_optional(self):
        document = build_manifest(command="validate")
        assert "phases" not in document
        assert document["profile"] is None


class TestWriting:
    def test_manifest_lives_next_to_trace(self, tmp_path):
        trace = tmp_path / "results" / "t.jsonl"
        assert manifest_path_for(str(trace)) == str(
            tmp_path / "results" / MANIFEST_NAME
        )

    def test_written_atomically_and_json_readable(self, tmp_path):
        path = str(tmp_path / "run.json")
        document = build_manifest(command="run", registry=_registry())
        assert write_run_manifest(path, document) == path
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["command"] == "run"
        # atomic_writer leaves no temp files behind
        assert os.listdir(tmp_path) == ["run.json"]
