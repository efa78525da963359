"""Golden parity for the columnar campaign path.

The compiled campaign engine (``core.fastengine``) must be
*bit-identical* to the object classifier it replaced (``measure_slash24``
through a ``Prober``, kept in and installed for every /24 by
``tests/oracle.py``):
same measurements (through the canonical store codec, byte for byte),
same probe accounting, same store records, same simulator end state —
on tiny and small profiles, serial and with workers=2. The columnar
result (``core.columnar``) holds both runs' output.
"""

import tracemalloc

import pytest

from repro.core import CampaignResult, TerminationPolicy, run_campaign
from repro.core.classifier import CATEGORY_ORDER, Slash24Measurement
from repro.net.prefix import Prefix
from repro.netsim import SimulatedInternet, paper_scenario, tiny_scenario
from repro.probing import scan
from repro.store import MeasurementStore
from repro.store.codec import canonical_json_bytes, measurement_to_dict
from tests import oracle

CAMPAIGN_SEED = 77
MAX_DESTINATIONS = 32


def _scenario(profile):
    if profile == "tiny":
        return tiny_scenario(seed=13)
    return paper_scenario(scale=0.05, seed=13)


class _Run:
    """One campaign under one (engine, workers) setup: ``"columnar"``
    is the compiled engine, ``"object"`` the Prober for every /24."""

    def __init__(self, profile, engine, workers, store_root, slash24s=24):
        with pytest.MonkeyPatch.context() as patch:
            if engine == "object":
                oracle.install(patch, oracle.PROBER_CAMPAIGN)
            internet = SimulatedInternet.from_config(_scenario(profile))
            snapshot = scan(internet)
            self.selection = snapshot.eligible_slash24s()[:slash24s]
            with MeasurementStore(store_root) as store:
                self.result = run_campaign(
                    internet,
                    TerminationPolicy(),
                    slash24s=self.selection,
                    snapshot=snapshot,
                    seed=CAMPAIGN_SEED,
                    max_destinations_per_slash24=MAX_DESTINATIONS,
                    workers=workers,
                    store=store,
                )
                self.records = {
                    document["key"]: document
                    for document in store.documents()
                }
            self.clock_seconds = internet.clock_seconds
            self.probe_count = internet.probe_count


@pytest.fixture(scope="module", params=["tiny", "small"])
def profile(request):
    return request.param


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "workers2"])
def workers(request):
    return request.param


@pytest.fixture(scope="module")
def object_run(profile, workers, tmp_path_factory):
    return _Run(
        profile, "object", workers,
        tmp_path_factory.mktemp("obj-store") / "s",
    )


@pytest.fixture(scope="module")
def columnar_run(profile, workers, tmp_path_factory):
    return _Run(
        profile, "columnar", workers,
        tmp_path_factory.mktemp("col-store") / "s",
    )


class TestGoldenParity:
    def test_result_types(self, object_run, columnar_run):
        assert isinstance(object_run.result, CampaignResult)
        assert isinstance(columnar_run.result, CampaignResult)

    def test_measurements_bit_identical(self, object_run, columnar_run):
        slow = object_run.result.measurements
        fast = columnar_run.result.measurements
        assert list(fast) == list(slow)
        for slash24 in slow:
            assert fast[slash24] == slow[slash24], slash24
            assert canonical_json_bytes(
                measurement_to_dict(fast[slash24])
            ) == canonical_json_bytes(measurement_to_dict(slow[slash24]))

    def test_probe_accounting_identical(self, object_run, columnar_run):
        assert (
            columnar_run.result.probes_used == object_run.result.probes_used
        )
        assert columnar_run.probe_count == object_run.probe_count

    def test_simulator_end_state_identical(self, object_run, columnar_run):
        assert columnar_run.clock_seconds == object_run.clock_seconds

    def test_summaries_identical(self, object_run, columnar_run):
        assert (
            columnar_run.result.category_counts()
            == object_run.result.category_counts()
        )
        assert columnar_run.result.lasthop_sets() == (
            object_run.result.lasthop_sets()
        )
        assert columnar_run.result.homogeneous_fraction_of_analyzable() == (
            object_run.result.homogeneous_fraction_of_analyzable()
        )

    def test_store_records_identical(self, object_run, columnar_run):
        """Store records written by the columnar campaign are
        byte-identical to the object path's."""
        assert set(columnar_run.records) == set(object_run.records)
        assert len(columnar_run.records) >= len(columnar_run.selection)
        for key, document in object_run.records.items():
            assert canonical_json_bytes(
                columnar_run.records[key]
            ) == canonical_json_bytes(document), key


class TestCrossFormatResume:
    """Store round-trips between the compiled engine and the Prober.

    A store written by one path must satisfy a resume under the other
    path without a single probe, replaying bit-identical measurements —
    a budgeted run (always on the Prober) can warm the store for an
    unbudgeted rerun on the compiled engine, and the other way round.
    """

    @pytest.mark.parametrize(
        "writer,reader",
        [("columnar", "object"), ("object", "columnar")],
    )
    def test_cross_format_warm_resume(
        self, writer, reader, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp(f"{writer}-to-{reader}") / "s"
        first = _Run("tiny", writer, 1, root)
        with pytest.MonkeyPatch.context() as patch:
            if reader == "object":
                oracle.install(patch, oracle.PROBER_CAMPAIGN)
            internet = SimulatedInternet.from_config(_scenario("tiny"))
            snapshot = scan(internet)
            with MeasurementStore(root) as store:
                result = run_campaign(
                    internet,
                    TerminationPolicy(),
                    slash24s=first.selection,
                    snapshot=snapshot,
                    seed=CAMPAIGN_SEED,
                    max_destinations_per_slash24=MAX_DESTINATIONS,
                    store=store,
                )
        assert internet.probe_count == 0  # pure replay
        assert list(result.measurements) == list(first.result.measurements)
        for slash24 in first.result.measurements:
            assert result.measurements[slash24] == (
                first.result.measurements[slash24]
            )


def _synthetic_columnar(rows):
    """A result with ``rows`` synthetic /24 measurements."""
    result = CampaignResult()
    for row in range(rows):
        network = (10 << 24) | (row << 8)
        dst = network + 7
        result.add(
            Slash24Measurement(
                slash24=Prefix(network, 24),
                category=CATEGORY_ORDER[row % len(CATEGORY_ORDER)],
                observations={dst: frozenset({network + 1})},
                destinations_probed=1,
                hosts_responsive=5,
                probes_used=9,
            )
        )
    result.columns()  # finalize
    return result


class TestSubsetScaling:
    """Satellite: ``subset`` of a large columnar result is O(selection)."""

    def test_subset_allocates_o_selection(self):
        rows = 100_000
        big = _synthetic_columnar(rows)
        picks = [Prefix((10 << 24) | (row << 8), 24) for row in range(64)]
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        view = big.subset(picks)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        allocated = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
        )
        # 64 rows of fixed-width columns is ~2KB; the 100k-row pools
        # must be shared, not copied (they alone are >3MB).
        assert allocated < 256 * 1024, f"subset allocated {allocated} bytes"
        assert view.total == len(picks)
        assert view._arrays["dst_pool"] is big._arrays["dst_pool"]
        assert view._arrays["lh_pool"] is big._arrays["lh_pool"]

    def test_subset_contents(self):
        big = _synthetic_columnar(512)
        picks = [Prefix((10 << 24) | (row << 8), 24) for row in (3, 200, 17)]
        view = big.subset(picks)
        assert list(view.measurements) == picks
        assert [m.slash24 for m in view] == picks
        for pick in picks:
            assert view.get(pick) == big.get(pick)
        assert view.probes_used == sum(big.get(p).probes_used for p in picks)
        with pytest.raises(KeyError):
            big.subset([Prefix(11 << 24, 24)])
        with pytest.raises(ValueError):
            big.subset([picks[0], picks[0]])

    def test_iteration_is_lazy(self):
        big = _synthetic_columnar(4096)
        iterator = iter(big)
        first = next(iterator)
        assert first.slash24 == Prefix(10 << 24, 24)
        # The mapping view materializes one measurement per access.
        view = big.measurements
        assert len(view) == 4096
        assert view[first.slash24] == first


class TestRoundTrip:
    def test_duplicate_add_rejected(self):
        columnar = _synthetic_columnar(3)
        with pytest.raises(ValueError):
            columnar.add(next(iter(columnar)))
