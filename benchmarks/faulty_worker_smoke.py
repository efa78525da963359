#!/usr/bin/env python
"""Faulty-worker smoke: a SIGKILLed worker must not change the campaign.

Runs the measurement campaign twice on the same profile — once serial
(the baseline), once with ``--workers N`` where one worker kills itself
after measuring a chunk, before reporting it, via ``REPRO_WORKER_KILL``
— and fails unless the killed run is bit-identical to the baseline:
same result columns, same end-of-campaign virtual clock, same probe
count. Also asserts the death was *observed*
(``campaign.parallel.workers_lost``) so the gate cannot pass vacuously
if the kill hook stops firing.

CI runs this on the ``paper-smoke`` profile; locally ``--profile small``
finishes in seconds:

    PYTHONPATH=src python benchmarks/faulty_worker_smoke.py --profile small
"""

import argparse
import hashlib
import os
import sys
import tempfile


def result_digest(result) -> str:
    # Canonical row form rather than raw memory: a replayed measurement
    # holds equal values in different concrete shapes (numpy scalars,
    # key-sorted observation dicts from canonical-JSON store records, and
    # the ragged-pool layouts that follow from them), so repr()/tobytes()
    # are not stable identities — plain ints and sorted collections are.
    digest = hashlib.sha256()
    for m in result:
        row = (
            str(m.slash24),
            m.category.name,
            None if m.stop_reason is None else m.stop_reason.name,
            int(m.destinations_probed),
            int(m.hosts_responsive),
            int(m.probes_used),
            sorted(
                (int(dst), sorted(int(hop) for hop in hops))
                for dst, hops in m.observations.items()
            ),
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


def run_once(profile_name, workers, store_path, registry=None):
    from repro.core import TerminationPolicy, run_campaign
    from repro.experiments import PROFILES, Workspace
    from repro.store import MeasurementStore

    with Workspace(PROFILES[profile_name], workers=1, store_path=None) as ws:
        policy = TerminationPolicy(confidence_table=ws.confidence_table)
        store = MeasurementStore(store_path) if store_path else None
        try:
            result = run_campaign(
                ws.internet,
                policy,
                snapshot=ws.snapshot,
                seed=ws.internet.config.seed ^ 0xCA11,
                max_destinations_per_slash24=(
                    ws.profile.campaign_max_destinations
                ),
                workers=workers,
                store=store,
                metrics=registry,
            )
        finally:
            if store is not None:
                store.close()
        return (
            result_digest(result),
            ws.internet.clock_seconds,
            ws.internet.probe_count,
            len(result.measurements),
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="paper-smoke")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument(
        "--kill", default="0:3",
        help=(
            "REPRO_WORKER_KILL spec: worker 0 dies after the chunk that "
            "brings its measured /24s to 3"
        ),
    )
    args = parser.parse_args(argv)

    from repro.obs.metrics import MetricsRegistry

    print(f"[1/2] serial baseline on {args.profile!r} ...", flush=True)
    baseline = run_once(args.profile, workers=1, store_path=None)
    print(
        f"      {baseline[3]} /24s, clock={baseline[1]:.3f}, "
        f"probes={baseline[2]}",
        flush=True,
    )

    print(
        f"[2/2] workers={args.workers} with REPRO_WORKER_KILL={args.kill} ...",
        flush=True,
    )
    os.environ["REPRO_WORKER_KILL"] = args.kill
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="faulty-smoke-") as tmp:
        killed = run_once(
            args.profile, workers=args.workers,
            store_path=os.path.join(tmp, "store"), registry=registry,
        )

    lost = registry.counter_value("campaign.parallel.workers_lost")
    takeovers = registry.counter_value("campaign.parallel.takeover")
    print(f"      workers_lost={lost} takeovers={takeovers}", flush=True)

    failures = []
    if lost < 1:
        failures.append("no worker was lost — the kill hook did not fire")
    for label, index in (("result", 0), ("clock", 1), ("probes", 2)):
        if baseline[index] != killed[index]:
            failures.append(
                f"{label} diverged: serial={baseline[index]} "
                f"killed-run={killed[index]}"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "OK: killed-worker campaign is bit-identical to the serial baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
