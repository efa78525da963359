"""Aggregation benchmark: the Sections 5-6 flow on one campaign.

Builds the campaign for a profile, takes its measured last-hop sets,
and runs the aggregation flow (identical-set grouping, sparse
incidence-matrix similarity, the inflation sweep's MCL runs iterated
as one block-diagonal batch), reporting graph-build seconds, MCL
seconds, peak RSS and blocks/sec as a machine-readable summary
(``BENCH_aggregation.json`` by default). ``--workers`` sets the worker
processes of the campaign that produces the last-hop sets; the
aggregation itself runs in this process.
Validation reprobing is disabled so the run aggregates immutable
inputs and the figure is pure wall-clock. Parity with the dict
similarity builder is checked by the test suite against
``tests/oracle.py``, not here.

``--baseline PATH`` compares this run's blocks/sec against a committed
snapshot and exits 2 on a >20% regression — the same contract as
``campaign_bench.py --baseline``.

Usage::

    PYTHONPATH=src python benchmarks/aggregation_bench.py \
        [--out BENCH_aggregation.json] [--profile paper-smoke] \
        [--workers 4] [--store PATH] [--trace PATH] \
        [--baseline benchmarks/baselines/BENCH_aggregation_paper-smoke.json]
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.aggregation import run_aggregation  # noqa: E402
from repro.experiments import PROFILES, Workspace  # noqa: E402
from repro.obs import (  # noqa: E402
    build_manifest,
    configure_tracing,
    manifest_path_for,
    metrics_scope,
    tracer,
    write_run_manifest,
)

#: Tolerated blocks/sec drop against the committed baseline snapshot.
REGRESSION_TOLERANCE = 0.20


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


def _time_aggregation(lasthop_sets):
    """One validation-free aggregation run under its own registry."""
    with metrics_scope() as registry:
        started = time.perf_counter()
        outcome = run_aggregation(lasthop_sets, validate=False)
        elapsed = time.perf_counter() - started
    blocks = len(outcome.identical_blocks)
    return {
        "aggregation_seconds": round(elapsed, 3),
        "graph_build_seconds": round(
            registry.timer_seconds("phase.aggregate.graph"), 3
        ),
        "mcl_seconds": round(
            registry.timer_seconds("phase.aggregate.mcl"), 3
        ),
        "blocks": blocks,
        "edges": int(registry.gauge_value("aggregation.edges")),
        "components": int(registry.gauge_value("aggregation.components")),
        "clusters": int(registry.gauge_value("aggregation.clusters")),
        "mcl_runs": registry.counter_value("mcl.runs"),
        "aggregation_blocks_per_second": (
            round(blocks / elapsed, 1) if elapsed else None
        ),
    }


def run(profile_name, workers, trace_path, store_path):
    configure_tracing(trace_path)
    workspace = Workspace(
        PROFILES[profile_name], workers=workers, store_path=store_path
    )
    with metrics_scope() as registry:
        with registry.time("phase.campaign_build"):
            lasthop_sets = workspace.campaign.lasthop_sets()

    stats = _time_aggregation(lasthop_sets)
    document = {
        "benchmark": "aggregation",
        "profile": profile_name,
        "workers": workspace.workers,
        "slash24s": len(lasthop_sets),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "campaign_build_seconds": round(
            registry.timer_seconds("phase.campaign_build"), 3
        ),
        **stats,
    }

    if trace_path is not None:
        manifest = build_manifest(
            command="aggregation_bench",
            profile=profile_name,
            scenario_seed=workspace.profile.scenario_seed,
            workers=workspace.workers,
            store_path=store_path,
            trace_path=os.path.abspath(trace_path),
            registry=registry,
            extra={"aggregation": document},
        )
        write_run_manifest(manifest_path_for(trace_path), manifest)
    tracer().close()
    configure_tracing(None)
    return document


def check_baseline(document, baseline_path):
    """Compare against a committed snapshot; returns (ok, message)."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    reference = baseline.get("aggregation_blocks_per_second")
    current = document.get("aggregation_blocks_per_second")
    if not reference or not current:
        return True, "baseline: no blocks/sec to compare"
    floor = reference * (1.0 - REGRESSION_TOLERANCE)
    if current < floor:
        return False, (
            f"REGRESSION: aggregation blocks/sec {current:,.0f} is more "
            f"than {REGRESSION_TOLERANCE:.0%} below the baseline "
            f"{reference:,.0f} (floor {floor:,.0f})"
        )
    return True, (
        f"baseline ok: {current:,.0f} blocks/s vs baseline "
        f"{reference:,.0f} (floor {floor:,.0f})"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_aggregation.json")
    parser.add_argument(
        "--profile", default="paper-smoke", choices=sorted(PROFILES)
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--store", default=None, metavar="PATH")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed BENCH_aggregation.json snapshot; exit non-zero "
        "if blocks/sec regressed more than "
        f"{REGRESSION_TOLERANCE:.0%}".replace("%", "%%"),
    )
    args = parser.parse_args(argv)

    document = run(args.profile, args.workers, args.trace, args.store)
    rendered = json.dumps(document, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(rendered + "\n")
    print(rendered)
    print(
        f"aggregation: {document['slash24s']} /24s -> "
        f"{document['blocks']} blocks in "
        f"{document['aggregation_seconds']}s "
        f"(graph {document['graph_build_seconds']}s, "
        f"MCL {document['mcl_seconds']}s) | "
        f"peak RSS {document['peak_rss_mb']} MB"
    )
    if args.baseline is not None:
        ok, message = check_baseline(document, args.baseline)
        print(message)
        if not ok:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
