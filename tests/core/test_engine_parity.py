"""Golden parity: the shipped campaign vs the reference oracle.

``tests/oracle.py`` installs the plain implementations the shipped
path replaced: the object classifier over the probe-at-a-time reference
(trie-walk path resolution, one reply object per probe) and the
allocation map in place of the compiled interval index. The compiled
engine's entire correctness claim is that it is *bit-identical* to that
reference, so a whole campaign — measurements, canonical store records,
probe accounting, simulator end state — must not differ in a single
byte between the two.
"""

import pytest

from repro.core import TerminationPolicy, run_campaign
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.probing import scan
from repro.store import MeasurementStore
from repro.store.codec import canonical_json_bytes, measurement_to_dict
from tests import oracle

SCENARIO_SEED = 11
CAMPAIGN_SEED = 5
MAX_DESTINATIONS = 32
SLASH24S = 12


class _EngineRun:
    """One full campaign under one engine, store records included."""

    def __init__(self, reference: bool, store_root):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                oracle.install(patch, oracle.PARTS)
            internet = SimulatedInternet.from_config(
                tiny_scenario(seed=SCENARIO_SEED)
            )
            snapshot = scan(internet)
            selection = snapshot.eligible_slash24s()[:SLASH24S]
            with MeasurementStore(store_root) as store:
                self.result = run_campaign(
                    internet,
                    TerminationPolicy(),
                    slash24s=selection,
                    snapshot=snapshot,
                    seed=CAMPAIGN_SEED,
                    max_destinations_per_slash24=MAX_DESTINATIONS,
                    store=store,
                )
                self.records = {
                    document["key"]: document
                    for document in store.documents()
                }
            self.selection = selection
            self.clock_seconds = internet.clock_seconds
            self.probe_count = internet.probe_count
            self.template_lookups = internet.template_lookups


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    return _EngineRun(True, tmp_path_factory.mktemp("ref-store") / "s")


@pytest.fixture(scope="module")
def compiled_run(tmp_path_factory):
    return _EngineRun(False, tmp_path_factory.mktemp("fast-store") / "s")


class TestEscapeHatch:
    """Each run really took its own path: the reference never looked up
    a route template, and the shipped run measured through them."""

    def test_reference_engine_sends_no_batches(self, reference_run):
        assert reference_run.template_lookups == 0

    def test_compiled_engine_batches(self, compiled_run):
        assert compiled_run.template_lookups > 0


class TestGoldenParity:
    def test_same_selection(self, reference_run, compiled_run):
        assert reference_run.selection == compiled_run.selection
        assert len(reference_run.selection) == SLASH24S

    def test_measurements_bit_identical(self, reference_run, compiled_run):
        fast = compiled_run.result.measurements
        slow = reference_run.result.measurements
        assert list(fast) == list(slow)
        for slash24 in slow:
            # Dataclass equality first (clear diffs on failure)...
            assert fast[slash24] == slow[slash24], slash24
            # ...then the canonical store encoding, byte for byte.
            assert canonical_json_bytes(
                measurement_to_dict(fast[slash24])
            ) == canonical_json_bytes(measurement_to_dict(slow[slash24]))

    def test_probe_accounting_identical(self, reference_run, compiled_run):
        assert (
            compiled_run.result.probes_used
            == reference_run.result.probes_used
        )
        assert compiled_run.probe_count == reference_run.probe_count

    def test_simulator_end_state_identical(self, reference_run, compiled_run):
        assert compiled_run.clock_seconds == reference_run.clock_seconds

    def test_category_counts_identical(self, reference_run, compiled_run):
        assert (
            compiled_run.result.category_counts()
            == reference_run.result.category_counts()
        )

    def test_store_fingerprints_identical(self, reference_run, compiled_run):
        """The store keys cover every input fingerprint (scenario,
        policy, seed, clock base, active list); the engines must agree
        on all of them and on every stored byte."""
        assert set(compiled_run.records) == set(reference_run.records)
        assert len(compiled_run.records) >= SLASH24S
        for key, document in reference_run.records.items():
            fast_document = compiled_run.records[key]
            assert canonical_json_bytes(fast_document) == (
                canonical_json_bytes(document)
            ), key

    def test_cross_engine_store_warm_rerun(
        self, reference_run, tmp_path_factory
    ):
        """A store written by the reference engine satisfies a
        compiled-engine rerun without a single probe — the fingerprints
        embed no engine identity, so caches are interchangeable."""
        root = tmp_path_factory.mktemp("cross-store") / "s"
        with MeasurementStore(root) as store:
            for document in reference_run.records.values():
                store.put(dict(document))
        internet = SimulatedInternet.from_config(
            tiny_scenario(seed=SCENARIO_SEED)
        )
        snapshot = scan(internet)
        with MeasurementStore(root) as store:
            result = run_campaign(
                internet,
                TerminationPolicy(),
                slash24s=reference_run.selection,
                snapshot=snapshot,
                seed=CAMPAIGN_SEED,
                max_destinations_per_slash24=MAX_DESTINATIONS,
                store=store,
            )
        assert internet.probe_count == 0
        assert result.measurements == reference_run.result.measurements
