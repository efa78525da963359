"""Command-line interface: run paper experiments and inspect scenarios.

Examples::

    hobbit-repro list
    hobbit-repro run table1 --profile small
    hobbit-repro run all --profile tiny --store ./hobbit-store
    hobbit-repro run table1 --profile tiny --workers 2 --trace t.jsonl
    hobbit-repro trace summarize t.jsonl
    hobbit-repro scenario --profile small
    hobbit-repro store info ./hobbit-store
    hobbit-repro campaign --profile tiny --store ./hobbit-store --limit 8

A ``--store PATH`` (or ``$REPRO_STORE``) attaches the on-disk
measurement store: campaigns checkpoint each completed /24 there and
warm reruns replay stored measurements instead of re-probing.

A ``--trace PATH`` (or ``$REPRO_TRACE``) opens the observability
journal: every campaign phase, per-/24 measurement, store replay and
degradation warning lands in an append-only JSONL file, and the run's
closing manifest (seed, engine mode, phase wall-clocks, probe totals)
is written as ``run.json`` next to it. ``$REPRO_PROGRESS=1`` adds a
rate-limited campaign progress line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .experiments import (
    PROFILES,
    close_workspaces,
    experiment_ids,
    get_workspace,
    run_experiment,
)
from .obs import (
    build_manifest,
    configure_tracing,
    current_metrics,
    manifest_path_for,
    summarize_trace,
    trace_path_from_env,
    tracer,
    write_run_manifest,
)
from .store.store import META_FILE, StoreError
from .util.fileio import atomic_writer
from .util.tables import render_table

STORE_ACTIONS = ("ls", "info", "verify", "gc")
TRACE_ACTIONS = ("summarize",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hobbit-repro",
        description="Reproduction of the Hobbit IMC 2016 paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list available experiments"
    )

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids, or 'all'",
    )
    run_parser.add_argument(
        "--profile",
        default=None,
        choices=sorted(PROFILES),
        help="scenario sizing profile (default: $REPRO_PROFILE or small)",
    )
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write results as a JSON document to PATH",
    )
    _add_workers_argument(run_parser)
    _add_store_argument(run_parser)
    _add_trace_argument(run_parser)
    _add_events_argument(run_parser)

    scenario_parser = subparsers.add_parser(
        "scenario", help="describe the profile's scenario and ground truth"
    )
    scenario_parser.add_argument(
        "--profile",
        default=None,
        choices=sorted(PROFILES),
    )

    export_parser = subparsers.add_parser(
        "export", help="write every figure's full data series as CSV"
    )
    export_parser.add_argument("directory", help="output directory")
    export_parser.add_argument(
        "--profile", default=None, choices=sorted(PROFILES)
    )
    _add_workers_argument(export_parser)
    _add_store_argument(export_parser)
    _add_trace_argument(export_parser)

    validate_parser = subparsers.add_parser(
        "validate",
        help="score the pipeline against the simulator's ground truth",
    )
    validate_parser.add_argument(
        "--profile", default=None, choices=sorted(PROFILES)
    )
    _add_workers_argument(validate_parser)
    _add_store_argument(validate_parser)
    _add_trace_argument(validate_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect an observability trace journal"
    )
    trace_parser.add_argument(
        "action",
        choices=TRACE_ACTIONS,
        help="summarize: aggregate spans, events and warnings",
    )
    trace_parser.add_argument("path", help="trace journal (JSONL)")

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run one measurement campaign and report its result",
    )
    campaign_parser.add_argument(
        "--profile", default=None, choices=sorted(PROFILES),
        help="scenario sizing profile (default: $REPRO_PROFILE or small)",
    )
    campaign_parser.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed (default: the profile's canonical seed)",
    )
    campaign_parser.add_argument(
        "--limit", type=_whole_number, default=None, metavar="N",
        help="measure only the first N eligible /24s",
    )
    campaign_parser.add_argument(
        "--max-destinations", type=_whole_number, default=None,
        metavar="N",
        help="per-/24 destination cap (default: the profile's)",
    )
    campaign_parser.add_argument(
        "--no-confidence", action="store_true",
        help="skip the trained confidence table (faster; different "
        "termination policy)",
    )
    _add_workers_argument(campaign_parser)
    campaign_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the campaign's result document as JSON to PATH",
    )
    _add_store_argument(campaign_parser)
    _add_trace_argument(campaign_parser)

    store_parser = subparsers.add_parser(
        "store", help="inspect and maintain a measurement store"
    )
    store_parser.add_argument(
        "action",
        choices=STORE_ACTIONS,
        help=(
            "ls: stored campaigns; info: store summary; verify: full "
            "checksum pass; gc: compact segments, dropping damaged and "
            "superseded records"
        ),
    )
    store_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="store directory (default: $REPRO_STORE)",
    )
    return parser


def _whole_number(text: str) -> int:
    """argparse type of the count flags (``--workers``, ``--limit``,
    ``--max-destinations``): a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a whole number"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_whole_number,
        default=None,
        metavar="N",
        help=(
            "worker processes for the measurement campaign (default: "
            "$REPRO_WORKERS or 1); results are identical at any count"
        ),
    )


def _events_intensity(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number; expected an intensity in [0, 1]"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is outside [0, 1]"
        )
    return value


def _add_events_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events",
        type=_events_intensity,
        default=None,
        metavar="INTENSITY",
        help=(
            "dynamic-internet event intensity in [0, 1]: renumbering "
            "waves, routing shifts, outages and rate-limit storms "
            "(default: $REPRO_EVENTS or 0/off)"
        ),
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "measurement-store directory for checkpoint/resume and "
            "warm-cache reruns (default: $REPRO_STORE or none)"
        ),
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "append a JSONL observability journal to PATH and write a "
            "run.json manifest next to it (default: $REPRO_TRACE or off)"
        ),
    )


def _configure_trace(trace: Optional[str]) -> Optional[str]:
    """Install the run's tracer (CLI flag wins over $REPRO_TRACE)."""
    path = trace or trace_path_from_env()
    configure_tracing(path)
    return path


def _finish_trace(
    trace_path: Optional[str],
    command: str,
    workspace,
    extra: Optional[dict] = None,
) -> None:
    """Close the journal and write the per-run ``run.json`` manifest."""
    if trace_path is None:
        return
    internet = workspace._internet
    document = build_manifest(
        command=command,
        profile=workspace.profile.name,
        scenario_seed=workspace.profile.scenario_seed,
        workers=workspace.workers,
        store_path=workspace.store_path,
        trace_path=os.path.abspath(trace_path),
        registry=current_metrics(),
        internet_stats=internet.stats() if internet is not None else None,
        extra=extra,
    )
    manifest_path = write_run_manifest(
        manifest_path_for(trace_path), document
    )
    tracer().close()
    print(f"wrote trace {trace_path} and manifest {manifest_path}")


def command_list() -> int:
    rows = [[experiment_id] for experiment_id in experiment_ids()]
    print(render_table(["experiment"], rows))
    return 0


def command_run(
    ids: List[str],
    profile: Optional[str],
    json_path: Optional[str] = None,
    workers: Optional[int] = None,
    store: Optional[str] = None,
    trace: Optional[str] = None,
    events: Optional[float] = None,
) -> int:
    trace_path = _configure_trace(trace)
    workspace = get_workspace(
        profile, workers=workers, store_path=store, event_intensity=events
    )
    chosen = experiment_ids() if ids == ["all"] else ids
    failures = 0
    documents = []
    for experiment_id in chosen:
        start = time.perf_counter()
        try:
            result = run_experiment(experiment_id, workspace)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        except Exception as error:  # surface which experiment broke
            elapsed = time.perf_counter() - start
            failures += 1
            print(f"[{experiment_id}] FAILED: {error}", file=sys.stderr)
            # The failure stays in the JSON document: a consumer must be
            # able to tell "failed" from "not requested".
            documents.append(
                {
                    "experiment": experiment_id,
                    "error": str(error),
                    "seconds": round(elapsed, 2),
                }
            )
            continue
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{experiment_id}] done in {elapsed:.1f}s\n")
        documents.append(
            {
                "experiment": result.experiment_id,
                "title": result.title,
                "headers": result.headers,
                "rows": [[str(cell) for cell in row] for row in result.rows],
                "notes": result.notes,
                "seconds": round(elapsed, 2),
            }
        )
    if json_path is not None:
        # Atomic write: a killed run must never leave a truncated JSON
        # document for a later analysis step to trip over.
        with atomic_writer(json_path) as handle:
            json.dump(
                {
                    "profile": workspace.profile.name,
                    "failures": failures,
                    "experiments": documents,
                },
                handle,
                indent=2,
            )
        print(f"wrote {json_path}")
    _finish_trace(
        trace_path, "run", workspace,
        extra={
            "experiments": chosen,
            "failures": failures,
        },
    )
    return 1 if failures else 0


def command_scenario(profile: Optional[str]) -> int:
    workspace = get_workspace(profile)
    internet = workspace.internet
    summary = internet.ground_truth.summary()
    rows = [[key, value] for key, value in internet.stats().items()]
    rows += [[key, value] for key, value in summary.items()]
    print(render_table(["quantity", "value"], rows,
                       title=f"scenario ({workspace.profile.name})"))
    return 0


def command_export(
    directory: str,
    profile: Optional[str],
    workers: Optional[int] = None,
    store: Optional[str] = None,
    trace: Optional[str] = None,
) -> int:
    from .analysis.figures import export_figures

    trace_path = _configure_trace(trace)
    workspace = get_workspace(profile, workers=workers, store_path=store)
    workspace.ensure_built()
    written = export_figures(workspace, directory)
    for path in written:
        print(path)
    print(f"wrote {len(written)} series files to {directory}")
    _finish_trace(trace_path, "export", workspace)
    return 0


def command_validate(
    profile: Optional[str],
    workers: Optional[int] = None,
    store: Optional[str] = None,
    trace: Optional[str] = None,
) -> int:
    from .analysis.scoring import score_pipeline

    trace_path = _configure_trace(trace)
    workspace = get_workspace(profile, workers=workers, store_path=store)
    workspace.ensure_built()
    report = score_pipeline(
        workspace.internet,
        workspace.campaign,
        workspace.aggregation.final_blocks,
    )
    print(render_table(
        ["quantity", "value"], report.rows(),
        title=f"pipeline vs ground truth ({workspace.profile.name})",
    ))
    _finish_trace(trace_path, "validate", workspace)
    return 0


def command_campaign(args) -> int:
    """Run one measurement campaign and print its result document.

    The document's ``io`` sub-document records what this run physically
    did (probes sent, worker count). Everything else is deterministic:
    a rerun of the same campaign reproduces it exactly at any worker
    count, with a cold or warm store, resumed or not. A warm rerun
    replays every /24 from the store and sends 0 probes.
    """
    from .core import TerminationPolicy, run_campaign
    from .store.fingerprint import (
        campaign_fingerprint,
        policy_fingerprint,
        scenario_fingerprint,
    )

    trace_path = _configure_trace(args.trace)
    workspace = get_workspace(
        args.profile, workers=args.workers, store_path=args.store
    )
    internet = workspace.internet
    snapshot = workspace.snapshot
    confidence = not args.no_confidence
    if confidence:
        policy = TerminationPolicy(
            confidence_table=workspace.confidence_table
        )
    else:
        policy = TerminationPolicy()
    seed = (
        args.seed if args.seed is not None
        else internet.config.seed ^ 0xCA11
    )
    max_destinations = (
        args.max_destinations if args.max_destinations is not None
        else workspace.profile.campaign_max_destinations
    )
    slash24s = None
    if args.limit is not None:
        slash24s = snapshot.eligible_slash24s()[: args.limit]
    clock_base = internet.clock_seconds
    probes_base = internet.probe_count
    result = run_campaign(
        internet,
        policy,
        slash24s=slash24s,
        snapshot=snapshot,
        seed=seed,
        max_destinations_per_slash24=max_destinations,
        workers=workspace.workers,
        store=workspace.store,
    )
    counts = result.category_counts()
    payload = {
        "kind": "campaign",
        "profile": workspace.profile.name,
        "seed": seed,
        "confidence": confidence,
        "limit": args.limit,
        "max_destinations": max_destinations,
        "campaign_fingerprint": campaign_fingerprint(
            scenario_fingerprint(internet.config),
            policy_fingerprint(policy),
            seed,
            clock_base,
            max_destinations,
        ),
        "slash24s": result.total,
        "probes_used": result.probes_used,
        "category_counts": {
            category.name.lower(): count
            for category, count in sorted(
                counts.items(), key=lambda item: item[0].name
            )
        },
        "homogeneous": int(result.homogeneous_mask().sum()),
        "analyzable": int(result.analyzable_mask().sum()),
        "clock_seconds": internet.clock_seconds,
        "io": {
            "probes_sent": internet.probe_count - probes_base,
            "workers": workspace.workers,
        },
    }
    rows = [
        [key, payload[key]]
        for key in (
            "profile", "seed", "slash24s", "probes_used", "homogeneous",
            "analyzable", "clock_seconds", "campaign_fingerprint",
        )
    ]
    rows += [
        [f"category.{name}", count]
        for name, count in payload["category_counts"].items()
    ]
    rows += [[f"io.{key}", value]
             for key, value in sorted(payload["io"].items())]
    print(render_table(["quantity", "value"], rows, title="campaign"))
    if args.json is not None:
        with atomic_writer(args.json) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    _finish_trace(trace_path, "campaign", workspace)
    return 0


def command_trace(action: str, path: str) -> int:
    """Aggregate a trace journal into spans/events/warnings tables."""
    if not os.path.exists(path):
        print(f"no trace journal at {path}", file=sys.stderr)
        return 2
    summary = summarize_trace(path)
    span_rows = [
        [
            name,
            entry.count,
            f"{entry.total_seconds:.3f}",
            f"{entry.mean_seconds * 1e3:.2f}",
            f"{entry.max_seconds * 1e3:.2f}",
            entry.errors,
        ]
        for name, entry in sorted(
            summary.spans.items(),
            key=lambda item: -item[1].total_seconds,
        )
    ]
    print(render_table(
        ["span", "count", "total s", "mean ms", "max ms", "errors"],
        span_rows,
        title=f"trace {path} ({summary.events} events)",
    ))
    if summary.event_counts:
        print()
        print(render_table(
            ["event", "count"],
            sorted(summary.event_counts.items()),
            title="events",
        ))
    for warning in summary.warnings:
        print(
            f"WARNING {warning.get('name')}: {warning.get('message')}",
            file=sys.stderr,
        )
    if summary.corrupt_lines:
        print(
            f"{summary.corrupt_lines} corrupt line(s) skipped "
            "(truncated tail from a killed run?)",
            file=sys.stderr,
        )
    if summary.unclosed_spans:
        print(
            f"{summary.unclosed_spans} span(s) never closed "
            "(run killed mid-phase?)",
            file=sys.stderr,
        )
    return 0 if summary.clean else 1


def command_store(action: str, path: Optional[str]) -> int:
    from .experiments import active_store_path
    from .store import MeasurementStore

    root = path or active_store_path()
    if root is None:
        print(
            "no store given: pass a path or set $REPRO_STORE",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(os.path.join(root, META_FILE)):
        # Opening would create an empty store there: a mistyped path
        # must not verify clean.
        print(f"hobbit-repro: no store at {root}", file=sys.stderr)
        return 2
    with MeasurementStore(root) as store:
        if action == "info":
            rows = [[key, value] for key, value in store.info().items()]
            print(render_table(["quantity", "value"], rows, title="store"))
            return 0
        if action == "ls":
            rows = [
                [fingerprint[:16], group["records"], group["probes"]]
                for fingerprint, group in sorted(store.campaigns().items())
            ]
            print(render_table(
                ["campaign", "slash24s", "probes"], rows,
                title=f"campaigns in {store.root}",
            ))
            return 0
        if action == "verify":
            report = store.verify()
            print(f"records ok: {report.records_ok}")
            for corrupt in report.corrupt:
                print(
                    f"CORRUPT {corrupt.segment} @ {corrupt.offset}: "
                    f"{corrupt.reason}"
                )
            if report.truncated_tails:
                print(
                    f"truncated tails: {report.truncated_tails} "
                    "(trimmed on next open)"
                )
            return 0 if report.clean else 1
        if action == "gc":
            dropped = store.gc()
            print(
                f"dropped {dropped['dropped_corrupt']} damaged and "
                f"{dropped['dropped_superseded']} superseded records; "
                f"{len(store)} records remain"
            )
            return 0
    raise AssertionError("unreachable")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return command_list()
        if args.command == "run":
            return command_run(
                args.experiments, args.profile, args.json, args.workers,
                args.store, args.trace, args.events,
            )
        if args.command == "scenario":
            return command_scenario(args.profile)
        if args.command == "export":
            return command_export(
                args.directory, args.profile, args.workers, args.store,
                args.trace,
            )
        if args.command == "validate":
            return command_validate(
                args.profile, args.workers, args.store, args.trace
            )
        if args.command == "campaign":
            return command_campaign(args)
        if args.command == "trace":
            return command_trace(args.action, args.path)
        if args.command == "store":
            return command_store(args.action, args.path)
        raise AssertionError("unreachable")
    except StoreError as error:
        # An unusable store (unreadable metadata, or a format this build
        # does not read) is the user's input, not a crash.
        print(f"hobbit-repro: {error}", file=sys.stderr)
        return 2
    finally:
        # Whatever command ran, release any persistent-store handles the
        # workspaces opened (segment writers must close deterministically).
        close_workspaces()


if __name__ == "__main__":
    sys.exit(main())
