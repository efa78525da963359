"""The one-shot ``hobbit-repro campaign`` command on the tiny profile.

Each command runs the way a fresh process would: with an empty
workspace cache, because a campaign advances the cached internet's
virtual clock and a second campaign in the same process would start
from a different clock base.
"""

import json

import pytest

import repro.cli as cli
from repro.core import Category
from repro.experiments import common
from repro.obs.metrics import metrics_scope
from repro.obs.trace import configure_tracing
from repro.store import KIND_SLASH24, MeasurementStore

SMALL = ["--limit", "8", "--no-confidence"]


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in (
        "REPRO_PROFILE", "REPRO_WORKERS", "REPRO_STORE", "REPRO_EVENTS",
        "REPRO_TRACE",
    ):
        monkeypatch.delenv(name, raising=False)
    yield
    configure_tracing(None)


@pytest.fixture
def campaign(tmp_path, monkeypatch, capsys):
    """Run ``campaign`` with the given flags; returns its --json
    document."""
    runs = []

    def run(*flags, profile=("--profile", "tiny")):
        monkeypatch.setattr(common, "_WORKSPACES", {})
        path = tmp_path / f"campaign-{len(runs)}.json"
        runs.append(path)
        assert cli.main(
            ["campaign", *profile, "--json", str(path), *flags]
        ) == 0
        capsys.readouterr()
        return json.loads(path.read_text())

    return run


def deterministic(document):
    return {key: value for key, value in document.items() if key != "io"}


def slash24_records(store_root):
    with MeasurementStore(str(store_root)) as store:
        return [
            document for document in store.documents()
            if document.get("kind") == KIND_SLASH24
        ]


class TestOneShotCampaign:
    def test_warm_rerun_replays_without_probing(self, campaign, tmp_path):
        store = str(tmp_path / "store")
        cold = campaign(*SMALL, "--store", store)
        warm = campaign(*SMALL, "--store", store)
        assert cold["profile"] == "tiny"
        assert cold["slash24s"] == 8
        assert cold["io"]["probes_sent"] > 0
        assert warm["io"]["probes_sent"] == 0
        assert deterministic(warm) == deterministic(cold)
        assert len(slash24_records(store)) == 8

    def test_parallel_matches_serial(self, campaign, tmp_path):
        serial = campaign(*SMALL, "--store", str(tmp_path / "serial"))
        with metrics_scope() as registry:
            parallel = campaign(
                *SMALL, "--workers", "2",
                "--store", str(tmp_path / "parallel"),
            )
        assert registry.counter_value("campaign.parallel") == 1
        assert deterministic(parallel) == deterministic(serial)
        assert parallel["io"] == {
            "probes_sent": serial["io"]["probes_sent"], "workers": 2,
        }

    def test_homogeneous_and_analyzable_sum_category_counts(self, campaign):
        document = campaign("--limit", "32", "--no-confidence")
        counts = {
            category: document["category_counts"][category.name.lower()]
            for category in Category
        }
        assert sum(counts.values()) == document["slash24s"]
        assert document["homogeneous"] == sum(
            count for category, count in counts.items()
            if category.homogeneous
        )
        assert document["analyzable"] == sum(
            count for category, count in counts.items()
            if category.analyzable
        )
        # Each field excludes some /24s, so neither check is vacuous.
        assert 0 < document["homogeneous"] < document["analyzable"]
        assert document["analyzable"] < document["slash24s"]

    def test_trace_writes_run_manifest(self, campaign, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        campaign("--limit", "4", "--no-confidence",
                 "--trace", str(trace_path))
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["command"] == "campaign"
        assert manifest["profile"] == "tiny"
        assert trace_path.exists()

    def test_profile_and_store_default_to_environment(
        self, campaign, tmp_path, monkeypatch
    ):
        store = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        monkeypatch.setenv("REPRO_STORE", str(store))
        document = campaign("--limit", "4", "--no-confidence", profile=())
        assert document["profile"] == "tiny"
        assert len(slash24_records(store)) == 4
