"""One timed run of the Hobbit pipeline, in its own process.

``run.py`` launches this script once per sample and reads the JSON it
writes. Set-up runs from the launch of this process to the ZMap
snapshot being ready (interpreter, imports, scenario build, snapshot
scan); the pipeline runs from there to ``score_pipeline`` returning
(the ``Workspace`` build steps, then scoring). Output collection and
the digest happen after the clock stops.

Both are reported in reference seconds of a ``HostClock`` running on
the process's CPU (see ``hostclock.py``), with the raw wall times
beside them. ``--launched`` is the launcher's ``time.monotonic()`` just
before the launch; Linux's monotonic clock is one clock for every
process, so the set-up time includes interpreter start. ``--cpu`` pins
the process. With ``--trace`` the layer entry points are wrapped in
spans (see ``spans.py``) and the per-layer figures are written as well.

Usage::

    PYTHONPATH=src python3 pipebench/sample.py --seed 2016 --cpu 0 \
        [--store DIR] [--trace] [--setup-only] \
        --launched MONOTONIC --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import time
from collections import defaultdict

from digest import digest, outputs_document
from hostclock import HostClock
from spans import LayerTotals, Recorder, cpu_seconds, installed
from workloads import SCALE

#: Counters whose presence means a run silently took a slower or
#: degraded path; any of them fails the run.
FALLBACK_PREFIXES = (
    "campaign.fastpath_fallback",
    "campaign.parallel_fallback",
    "aggregation.parallel_fallback",
)


def layer_targets():
    """(owner, attribute, span name) for every wrapped entry point."""
    from repro.aggregation import pipeline as aggregation
    from repro.core.confidence import ConfidenceTable
    from repro.experiments import common
    from repro.netsim.internet import SimulatedInternet
    from repro.store.campaign import CampaignCache
    from repro.store.store import MeasurementStore

    return [
        (SimulatedInternet, "from_config", "netsim.build"),
        (common, "scan", "probing.snapshot"),
        (common.Workspace, "confidence_dataset", "core.confidence_dataset"),
        (ConfidenceTable, "build", "core.confidence_table"),
        (common, "run_campaign", "core.campaign"),
        (MeasurementStore, "__init__", "store.open"),
        (CampaignCache, "lookup", "store.replay"),
        (common, "run_aggregation", "aggregation.run"),
        (aggregation, "group_identical_columnar", "aggregation.graph"),
        (aggregation, "build_similarity_graph_columnar", "aggregation.graph"),
        (aggregation, "sweep_and_cluster", "aggregation.mcl"),
        (aggregation, "validate_cluster", "aggregation.reprobe"),
        (common.Workspace, "path_dataset", "probing.path_dataset"),
        (common.Workspace, "strict_het_analyses", "core.strict_het"),
    ]


def peak_rss_mb() -> float:
    """Highest peak RSS of this process and any reaped worker, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def store_footprint(root: str) -> tuple:
    """(records, bytes) of a store's segment and lease files."""
    from repro.store.store import MeasurementStore

    with MeasurementStore(root) as store:
        info = store.info()
    lease_bytes = 0
    lease_dir = os.path.join(root, "leases")
    if os.path.isdir(lease_dir):
        lease_bytes = sum(
            os.path.getsize(os.path.join(lease_dir, name))
            for name in os.listdir(lease_dir)
        )
    return int(info["records"]), int(info["bytes"]) + lease_bytes


def run(args, clock: HostClock) -> dict:
    from repro.analysis.scoring import score_pipeline
    from repro.experiments.common import PROFILES, Workspace
    from repro.obs.metrics import current_metrics

    recorder = Recorder()
    recorder.cpu = lambda: cpu_seconds() - clock.cpu
    tracing = (
        installed(recorder, layer_targets())
        if args.trace
        else contextlib.nullcontext()
    )
    profile = dataclasses.replace(
        PROFILES["paper-smoke"], scenario_seed=args.seed, scenario_scale=SCALE
    )
    with tracing, Workspace(
        profile, workers=1, store_path=args.store,
        event_intensity=0.0,
    ) as workspace:
        internet = workspace.internet
        workspace.snapshot  # set-up ends once the snapshot exists
        ready = time.monotonic()
        if args.setup_only:
            clock.calibrate()  # closes the stretch that ends at ready
            return {
                "setup_s": clock.reference(args.launched, ready),
                "setup_wall_s": ready - args.launched,
            }
        recorder.probe_counter = lambda: internet.probe_count
        probes_before = internet.probe_count
        workspace.ensure_built()
        with recorder.span("analysis.score"):
            report = score_pipeline(
                internet, workspace.campaign,
                workspace.aggregation.final_blocks,
            )
        done = time.monotonic()
        clock.calibrate()  # closes the stretch that ends at done

        registry = current_metrics()
        campaign = workspace.campaign
        rows = [
            (str(m.slash24), m.category.value, m.lasthop_set, m.probes_used)
            for m in campaign
        ]
        document = outputs_document(
            rows,
            (
                ([str(p) for p in block.slash24s], block.lasthop_set)
                for block in workspace.aggregation.final_blocks
            ),
            {
                str(slash24): analysis.strictly_heterogeneous
                for slash24, analysis
                in workspace.strict_het_analyses.items()
            },
        )
        campaign_probes = sum(row[3] for row in rows)
        result = dict(
            setup_s=clock.reference(args.launched, ready),
            setup_wall_s=ready - args.launched,
            pipeline_s=clock.reference(ready, done),
            pipeline_wall_s=done - ready,
            peak_rss_mb=peak_rss_mb(),
            probes=campaign_probes,
            probes_per_slash24=campaign_probes / len(rows),
            pipeline_probes=internet.probe_count - probes_before,
            accuracy=report.accuracy,
            homogeneous_recall=report.homogeneous_recall,
            block_purity=report.block_purity,
            digest=digest(document),
            eligible=len(workspace.eligible_slash24s()),
            measured=len(campaign.measurements),
            store_hits=registry.counter_value("campaign.store.hits"),
            store_misses=registry.counter_value("campaign.store.misses"),
            fallbacks={
                name: value
                for name, value in registry.counters.items()
                if name.startswith(FALLBACK_PREFIXES)
            },
        )
        if args.trace:
            in_reference_seconds(recorder, clock)
            result["layers"] = layer_metrics(
                recorder, registry, internet,
                clock.position(ready), clock.position(done),
                result["pipeline_probes"],
            )
    if args.trace:
        records, size = (
            store_footprint(args.store) if args.store else (0, 0)
        )
        result["layers"]["store.records"] = records
        result["layers"]["store.bytes"] = size
    return result


def in_reference_seconds(recorder: Recorder, clock: HostClock) -> None:
    """Express every span in the clock's reference seconds: its ends
    become clock positions, and its CPU time is scaled by the factor
    its wall time was scaled by."""
    for span in recorder.spans:
        wall = span.wall
        span.wall0 = clock.position(span.wall0)
        span.wall1 = clock.position(span.wall1)
        if wall > 0:
            span.cpu1 = span.cpu0 + span.cpu * span.wall / wall


def layer_metrics(
    recorder, registry, internet, start, end, pipeline_probes
) -> dict:
    """Per-layer figures of one traced run (store files and the
    tracing overhead are added by the caller). Spans are in reference
    seconds; ``start`` and ``end`` bound the pipeline on that clock."""
    totals = defaultdict(LayerTotals, recorder.totals())
    hits = registry.counter_value("campaign.store.hits")
    lookups = hits + registry.counter_value("campaign.store.misses")
    confidence = totals["core.confidence_dataset"]
    campaign = totals["core.campaign"]
    stats = internet.stats()
    return {
        "netsim.build_s": totals["netsim.build"].wall,
        "probing.snapshot_s": totals["probing.snapshot"].wall,
        "netsim.probes": pipeline_probes,
        "netsim.forwarder_hit_rate": stats["forwarder_cache_hit_rate"],
        "core.confidence_dataset_s": confidence.wall,
        "core.confidence_dataset_probes": confidence.probes,
        "core.confidence_table_s": totals["core.confidence_table"].wall,
        "core.campaign_s": campaign.wall,
        "core.campaign_probes": campaign.probes,
        "core.campaign_probes_per_s": (
            campaign.probes / campaign.wall if campaign.wall else 0.0
        ),
        "core.campaign_cpu_s": campaign.cpu,
        "core.strict_het_s": totals["core.strict_het"].wall,
        "core.strict_het_probes": totals["core.strict_het"].probes,
        "aggregation.run_s": totals["aggregation.run"].self_wall,
        "aggregation.graph_s": totals["aggregation.graph"].wall,
        "aggregation.mcl_s": totals["aggregation.mcl"].wall,
        "aggregation.mcl_cpu_s": totals["aggregation.mcl"].cpu,
        "aggregation.mcl_runs": registry.counter_value("mcl.runs"),
        "aggregation.components": int(
            registry.gauge_value("aggregation.components")
        ),
        "aggregation.reprobe_s": totals["aggregation.reprobe"].wall,
        "aggregation.reprobe_probes": totals["aggregation.reprobe"].probes,
        "probing.path_dataset_s": totals["probing.path_dataset"].wall,
        "probing.path_dataset_probes": totals["probing.path_dataset"].probes,
        "store.open_s": totals["store.open"].wall,
        "store.replay_s": totals["store.replay"].wall,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "analysis.score_s": totals["analysis.score"].wall,
        "experiments.unattributed_s": (
            (end - start) - recorder.covered(start, end)
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    with HostClock() as clock:
        result = run(args, clock)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
