"""Campaign-pipeline benchmark: per-phase wall-clocks from the registry.

Builds the full experiment pipeline (scenario → snapshot → confidence
table → campaign → aggregation → path dataset) under a fresh metrics
registry and emits the observability layer's own accounting —
per-phase wall-clock seconds, campaign probes/sec, peak RSS, probe and
store counters — as a machine-readable summary
(``BENCH_campaign.json`` by default). With ``--trace`` the run also
appends the trace journal and writes the ``run.json`` manifest next to
it, so CI can upload the full observability artifact set alongside the
numbers.

``--baseline PATH`` compares this run's campaign probes/sec against a
committed snapshot and exits non-zero on a >20% regression.

Usage::

    PYTHONPATH=src python benchmarks/campaign_bench.py \
        [--out BENCH_campaign.json] [--profile tiny] [--workers 2] \
        [--trace BENCH_campaign_trace.jsonl] [--store PATH] \
        [--baseline benchmarks/baselines/...json]
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import PROFILES, Workspace  # noqa: E402
from repro.obs import (  # noqa: E402
    build_manifest,
    configure_tracing,
    manifest_path_for,
    metrics_scope,
    phase_wall_clocks,
    tracer,
    write_run_manifest,
)

#: Tolerated probes/sec drop against the committed baseline snapshot.
REGRESSION_TOLERANCE = 0.20


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


def run(profile_name, workers, trace_path, store_path):
    configure_tracing(trace_path)
    workspace = Workspace(
        PROFILES[profile_name], workers=workers, store_path=store_path
    )
    with metrics_scope() as registry:
        started = time.perf_counter()
        workspace.ensure_built()
        elapsed = time.perf_counter() - started

    phases = phase_wall_clocks(registry)
    campaign_seconds = registry.timer_seconds("phase.campaign")
    probes = registry.counter_value("netsim.probes")
    document = {
        "benchmark": "campaign",
        "profile": profile_name,
        "workers": workspace.workers,
        "store": store_path,
        "total_seconds": round(elapsed, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "phases": {name: round(seconds, 3) for name, seconds in phases.items()},
        "campaign_seconds": round(campaign_seconds, 3),
        "campaign_probes": probes,
        "campaign_probes_per_second": (
            round(probes / campaign_seconds, 1) if campaign_seconds else None
        ),
        "campaign_parallel": registry.counter_value("campaign.parallel"),
        "campaign_parallel_fallback": registry.counter_value(
            "campaign.parallel_fallback"
        ),
        "store_hits": registry.counter_value("campaign.store.hits"),
        "store_misses": registry.counter_value("campaign.store.misses"),
        "slash24s_measured": registry.counter_value("campaign.slash24s"),
        "internet_stats": workspace.internet.stats(),
    }

    if trace_path is not None:
        manifest = build_manifest(
            command="campaign_bench",
            profile=profile_name,
            scenario_seed=workspace.profile.scenario_seed,
            workers=workspace.workers,
            store_path=store_path,
            trace_path=os.path.abspath(trace_path),
            registry=registry,
            internet_stats=document["internet_stats"],
        )
        write_run_manifest(manifest_path_for(trace_path), manifest)
    tracer().close()
    configure_tracing(None)
    return document


def check_baseline(document, baseline_path):
    """Compare against a committed snapshot; returns (ok, message)."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    reference = baseline.get("campaign_probes_per_second")
    current = document.get("campaign_probes_per_second")
    if not reference or not current:
        return True, "baseline: no probes/sec to compare"
    floor = reference * (1.0 - REGRESSION_TOLERANCE)
    if current < floor:
        return False, (
            f"REGRESSION: campaign probes/sec {current:,.0f} is more than "
            f"{REGRESSION_TOLERANCE:.0%} below the baseline "
            f"{reference:,.0f} (floor {floor:,.0f})"
        )
    return True, (
        f"baseline ok: {current:,.0f} probes/s vs baseline "
        f"{reference:,.0f} (floor {floor:,.0f})"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_campaign.json")
    parser.add_argument(
        "--profile", default="tiny", choices=sorted(PROFILES)
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--store", default=None, metavar="PATH")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed BENCH_campaign.json snapshot; exit non-zero if "
        "probes/sec regressed more than "
        f"{REGRESSION_TOLERANCE:.0%}".replace("%", "%%"),
    )
    args = parser.parse_args(argv)

    document = run(args.profile, args.workers, args.trace, args.store)
    rendered = json.dumps(document, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(rendered + "\n")
    print(rendered)
    rate = document["campaign_probes_per_second"]
    print(
        f"campaign: {document['slash24s_measured']} /24s, "
        f"{document['campaign_probes']} probes in "
        f"{document['campaign_seconds']}s"
        + (f" ({rate:,.0f} probes/s)" if rate else "")
        + f" | peak RSS {document['peak_rss_mb']} MB"
    )
    if args.baseline is not None:
        ok, message = check_baseline(document, args.baseline)
        print(message)
        if not ok:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
