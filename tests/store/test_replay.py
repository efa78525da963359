"""Warm replay: a stored /24 goes from its stored mapping straight into
the campaign's columns, and scoring and last-hop sets read the columns.

The references are in ``tests/oracle.py``: the store's decoder
(``measurement_from_dict``), whose measurement ``CampaignResult.add``
must turn into the same columns, and the per-measurement score.
"""

import shutil

import numpy as np
import pytest

from repro.analysis.scoring import score_pipeline
from repro.core import CampaignResult, TerminationPolicy, run_campaign
from repro.core.classifier import Slash24Measurement
from repro.experiments import PROFILES, Workspace
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.obs.metrics import metrics_scope
from repro.probing import scan
from repro.store import KIND_SLASH24, CampaignCache, MeasurementStore
from tests import oracle

SEED = 3


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A tiny workspace's store after a cold campaign, and that
    workspace."""
    root = tmp_path_factory.mktemp("replay") / "s"
    with Workspace(PROFILES["tiny"], store_path=str(root)) as workspace:
        workspace.campaign
        workspace.aggregation
    return root, workspace


def _slash24_documents(root):
    with MeasurementStore(str(root)) as store:
        return [
            document for document in store.documents()
            if document.get("kind") == KIND_SLASH24
        ]


def _assert_same_columns(replayed, decoded):
    assert replayed.probes_used == decoded.probes_used
    ours, theirs = replayed.columns(), decoded.columns()
    assert ours.keys() == theirs.keys()
    for name, column in ours.items():
        assert column.dtype == theirs[name].dtype, name
        np.testing.assert_array_equal(column, theirs[name], err_msg=name)


class TestColumnsMatchDecoder:
    def test_every_stored_record(self, filled):
        """Each record of a filled store, appended from its mapping and
        added as the reference decoder's measurement, in store order."""
        root, _ = filled
        documents = _slash24_documents(root)
        assert len(documents) > 50
        replayed, decoded = CampaignResult(), CampaignResult()
        for document in documents:
            measurement = oracle.measurement_from_dict(document["measurement"])
            category = replayed.add_stored(
                measurement.slash24.network, document["measurement"],
                document["key"],
            )
            assert category is measurement.category
            decoded.add(measurement)
        _assert_same_columns(replayed, decoded)

    def test_unsorted_repeated_last_hops(self):
        """A hand-written mapping: last hops become sorted unique values,
        destinations keep their stored order, no stop reason is coded."""
        data = {
            "slash24": "10.0.3.0/24",
            "category": "non-hierarchical",
            "observations": {
                "167772933": [9, 3, 9, 1],
                "167772930": [],
                "167772937": [5],
            },
            "destinations_probed": 5,
            "hosts_responsive": 3,
            "probes_used": 40,
            "stop_reason": None,
        }
        replayed, decoded = CampaignResult(), CampaignResult()
        replayed.add_stored(167772928, data, "k")
        decoded.add(oracle.measurement_from_dict(data))
        _assert_same_columns(replayed, decoded)
        assert replayed.columns()["lh_pool"].tolist() == [1, 3, 9, 5]

    @pytest.mark.parametrize("field, value", [
        ("category", "bogus"),
        ("category", ["same-last-hop"]),
        ("stop_reason", "bogus"),
    ])
    def test_unknown_enum_string_names_the_key(self, filled, field, value):
        root, _ = filled
        document = _slash24_documents(root)[0]
        data = dict(document["measurement"], **{field: value})
        result = CampaignResult()
        with pytest.raises(ValueError, match=document["key"]):
            result.add_stored(0, data, document["key"])
        assert result.total == 0

    def test_duplicate_prefix_refused(self, filled):
        root, _ = filled
        document = _slash24_documents(root)[0]
        result = CampaignResult()
        result.add_stored(0, document["measurement"], document["key"])
        with pytest.raises(ValueError, match="duplicate measurement"):
            result.add_stored(0, document["measurement"], document["key"])


class TestWarmWorkspace:
    @pytest.fixture()
    def warm(self, filled, tmp_path):
        root, _ = filled
        shutil.copytree(root, tmp_path / "s")
        with Workspace(
            PROFILES["tiny"], store_path=str(tmp_path / "s")
        ) as workspace:
            yield workspace

    @pytest.fixture()
    def constructed(self, monkeypatch):
        """Counts every ``Slash24Measurement`` built from here on."""
        built = []
        real = Slash24Measurement.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Slash24Measurement, "__init__", counting)
        return built

    def test_replay_and_score_build_no_measurement(
        self, filled, warm, constructed
    ):
        _, cold = filled
        campaign = warm.campaign
        assert warm.internet.probe_count == 0
        assert campaign.total == cold.campaign.total
        report = score_pipeline(
            warm.internet, campaign, cold.aggregation.final_blocks
        )
        assert report.analyzable > 0
        assert constructed == []

    def test_replayed_campaign_equals_cold(self, filled, warm):
        """The replay holds the cold run's rows and measurements. Stored
        observations come back in the canonical JSON's key order, so
        only the destination order within a /24 may differ."""
        _, cold = filled
        replayed, measured = warm.campaign.columns(), cold.campaign.columns()
        for name in (
            "nets", "cats", "stops", "dests", "hosts", "probes", "obs_lo",
            "obs_hi",
        ):
            np.testing.assert_array_equal(
                replayed[name], measured[name], err_msg=name
            )
        assert dict(warm.campaign.measurements) == dict(
            cold.campaign.measurements
        )
        assert warm.campaign.lasthop_sets() == cold.campaign.lasthop_sets()

    def test_score_matches_per_measurement_reference(self, filled):
        _, workspace = filled
        blocks = workspace.aggregation.final_blocks
        report = score_pipeline(workspace.internet, workspace.campaign, blocks)
        assert report == oracle.score_measurements(
            workspace.internet, workspace.campaign, blocks
        )
        assert report.analyzable > 0 and report.multi_blocks > 0


class TestLasthopSets:
    def test_match_per_measurement_union(self, filled):
        """Each homogeneous row's one pool slice equals the union of its
        measurement's last-hop sets, on the result and on a subset view
        that shares its pools."""
        _, workspace = filled
        campaign = workspace.campaign
        prefixes = list(campaign.measurements)
        for result in (campaign, campaign.subset(prefixes[1::3])):
            reference = {
                measurement.slash24: measurement.lasthop_set
                for measurement in result
                if measurement.is_homogeneous and measurement.lasthop_set
            }
            sets = result.lasthop_sets()
            assert sets == reference
            assert list(sets) == list(reference)


def _campaign(store, internet, snapshot, selection):
    return run_campaign(
        internet, TerminationPolicy(), slash24s=selection,
        snapshot=snapshot, seed=SEED, max_destinations_per_slash24=48,
        store=store,
    )


class TestStoredIdentity:
    @pytest.fixture()
    def stored(self, tmp_path):
        """A store holding a campaign over the first four eligible /24s
        of a tiny scenario, the campaign, and its cache keys."""
        internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
        snapshot = scan(internet)
        selection = snapshot.eligible_slash24s()[:4]
        clock_base = internet.clock_seconds
        with MeasurementStore(str(tmp_path / "s")) as store:
            baseline = _campaign(store, internet, snapshot, selection)
            cache = CampaignCache.bind(
                store, internet, TerminationPolicy(), SEED, clock_base, 48,
            )
            keys = [
                cache.key_for(slash24, snapshot.addresses_in(slash24))
                for slash24 in selection
            ]
        return tmp_path / "s", selection, baseline, keys

    def _rewrite(self, root, key, measurement):
        with MeasurementStore(str(root)) as store:
            document = dict(store.get(key), measurement=measurement)
            store.put(document)

    def _warm(self, root, selection):
        internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
        snapshot = scan(internet)
        with metrics_scope() as registry, \
                MeasurementStore(str(root)) as store:
            result = _campaign(store, internet, snapshot, selection)
        return result, internet, registry

    def test_other_slash24s_record_is_a_miss(self, stored):
        """/24 A's key holding /24 B's measurement: A is measured again,
        and the campaign equals the one that filled the store."""
        root, selection, baseline, keys = stored
        with MeasurementStore(str(root)) as store:
            other = store.get(keys[1])["measurement"]
        self._rewrite(root, keys[0], other)
        result, internet, registry = self._warm(root, selection)
        assert registry.counter_value("campaign.store.misses") == 1
        assert registry.counter_value("campaign.store.hits") == 3
        assert internet.probe_count == baseline.get(selection[0]).probes_used
        assert result.probes_used == baseline.probes_used
        assert dict(result.measurements) == dict(baseline.measurements)
        with MeasurementStore(str(root)) as store:
            assert store.get(keys[0])["measurement"]["slash24"] == str(
                selection[0]
            )

    def test_unknown_category_raises_naming_the_key(self, stored):
        root, selection, _, keys = stored
        with MeasurementStore(str(root)) as store:
            bad = dict(store.get(keys[2])["measurement"], category="bogus")
        self._rewrite(root, keys[2], bad)
        with pytest.raises(ValueError, match=keys[2]):
            self._warm(root, selection)
