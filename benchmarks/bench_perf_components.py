"""Performance benchmarks for the hot components (not tied to a paper
artifact): one destination's MDA, one /24's measurement, the hierarchy
test, the ZMap fast scan, MCL, and the campaign executor serial vs
sharded (``REPRO_BENCH_WORKERS`` workers, default 4)."""

import os
import random

from repro.aggregation import build_similarity_graph, mcl
from repro.core import TerminationPolicy, run_campaign
from repro.core.grouping import group_by_lasthop
from repro.core.hierarchy import groups_hierarchical
from repro.core.pipeline import enumerate_paths, measure
from repro.probing import Prober, scan


def bench_mda_path_level(benchmark, workspace):
    internet = workspace.internet
    snapshot = workspace.snapshot
    slash24 = snapshot.eligible_slash24s()[4]
    dst = snapshot.active_in(slash24)[0]
    prober = Prober(internet)
    benchmark(enumerate_paths, prober, dst)


def bench_measure_one_slash24(benchmark, workspace):
    internet = workspace.internet
    snapshot = workspace.snapshot
    slash24 = snapshot.eligible_slash24s()[3]
    prober = Prober(internet)

    def measure_one():
        return measure(
            prober,
            slash24,
            snapshot.active_in(slash24),
            TerminationPolicy(confidence_table=workspace.confidence_table),
            random.Random(1),
            max_destinations=48,
        )

    benchmark(measure_one)


#: /24s measured by the campaign benches (enough to amortise pool
#: start-up; override with REPRO_BENCH_CAMPAIGN_SLASH24S).
CAMPAIGN_BENCH_SLASH24S = int(
    os.environ.get("REPRO_BENCH_CAMPAIGN_SLASH24S", "400")
)


def _campaign_bench_kwargs(workspace):
    snapshot = workspace.snapshot
    return dict(
        policy=TerminationPolicy(
            confidence_table=workspace.confidence_table
        ),
        slash24s=snapshot.eligible_slash24s()[:CAMPAIGN_BENCH_SLASH24S],
        snapshot=snapshot,
        seed=workspace.internet.config.seed ^ 0xBE4C,
        max_destinations_per_slash24=(
            workspace.profile.campaign_max_destinations
        ),
    )


def bench_campaign_serial(benchmark, workspace):
    kwargs = _campaign_bench_kwargs(workspace)
    result = benchmark.pedantic(
        run_campaign,
        args=(workspace.internet,),
        kwargs=dict(kwargs, workers=1),
        rounds=1,
        iterations=1,
    )
    assert result.total == len(kwargs["slash24s"])


def bench_campaign_parallel(benchmark, workspace):
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
    kwargs = _campaign_bench_kwargs(workspace)
    result = benchmark.pedantic(
        run_campaign,
        args=(workspace.internet,),
        kwargs=dict(kwargs, workers=workers),
        rounds=1,
        iterations=1,
    )
    assert result.total == len(kwargs["slash24s"])


def bench_campaign_store_cold(benchmark, workspace, tmp_path):
    from repro.store import MeasurementStore

    kwargs = _campaign_bench_kwargs(workspace)
    with MeasurementStore(tmp_path / "cold-store") as store:
        result = benchmark.pedantic(
            run_campaign,
            args=(workspace.internet,),
            kwargs=dict(kwargs, workers=1, store=store),
            rounds=1,
            iterations=1,
        )
    assert result.total == len(kwargs["slash24s"])


def bench_campaign_store_warm(benchmark, workspace, tmp_path):
    from repro.store import MeasurementStore

    kwargs = _campaign_bench_kwargs(workspace)
    # REPRO_BENCH_STORE points at a persistent directory (cached across
    # CI runs); the populate pass is a no-op replay when already warm.
    root = os.environ.get("REPRO_BENCH_STORE") or str(tmp_path / "warm-store")
    with MeasurementStore(root) as store:
        run_campaign(workspace.internet, store=store, workers=1, **kwargs)
        result = benchmark.pedantic(
            run_campaign,
            args=(workspace.internet,),
            kwargs=dict(kwargs, workers=1, store=store),
            rounds=1,
            iterations=1,
        )
    assert result.total == len(kwargs["slash24s"])


def bench_zmap_fast_scan(benchmark, workspace):
    internet = workspace.internet
    slash24s = internet.universe_slash24s[:200]
    benchmark(scan, internet, None, slash24s)


def bench_hierarchy_test(benchmark, workspace):
    rng = random.Random(7)
    observations = {
        0x0A000000 + i: frozenset({rng.randrange(8)}) for i in range(256)
    }

    def run():
        return groups_hierarchical(group_by_lasthop(observations))

    benchmark(run)


def bench_mcl_on_measured_graph(benchmark, workspace):
    blocks = workspace.aggregation.identical_blocks
    graph = build_similarity_graph(blocks)
    matrix = graph.to_sparse()
    benchmark(mcl, matrix, workspace.aggregation.inflation)
