#!/usr/bin/env python
"""Events smoke: a dynamic internet must not cost campaign determinism.

Runs the measurement campaign twice on the same profile with the
dynamic-event engine active (renumbering waves, routing shifts,
regional outages, ICMP rate-limit storms) — once serial, once with
``--workers N`` — and fails unless:

* both campaigns complete over the same /24 selection,
* the parallel run really ran on its workers (``campaign.parallel`` is
  1 and no ``campaign.parallel_fallback*`` counter is set — a run that
  fell back to serial would compare serial with serial),
* the parallel run is bit-identical to the serial baseline (result
  rows, end-of-campaign virtual clock, probe count),
* the stressors actually fired (``events.*`` counters are non-zero —
  a schedule that never bites makes this gate vacuous).

A /24 the compiled engine cannot measure raises, so the smoke exits
non-zero with that error.

CI runs this on the ``paper-smoke`` profile; locally ``--profile
small`` finishes in seconds:

    PYTHONPATH=src python benchmarks/events_smoke.py --profile small
"""

import argparse
import hashlib
import json
import sys
import time


def result_digest(result) -> str:
    # Canonical row form rather than raw memory (see
    # faulty_worker_smoke.result_digest for why repr()/tobytes() of the
    # concrete shapes are not stable identities).
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


def run_once(profile_name, intensity, workers, registry=None):
    from repro.core import TerminationPolicy, run_campaign
    from repro.experiments import PROFILES, Workspace

    with Workspace(
        PROFILES[profile_name], workers=1, store_path=None,
        event_intensity=intensity,
    ) as ws:
        policy = TerminationPolicy(confidence_table=ws.confidence_table)
        started = time.perf_counter()
        result = run_campaign(
            ws.internet,
            policy,
            snapshot=ws.snapshot,
            seed=ws.internet.config.seed ^ 0xE7E,
            max_destinations_per_slash24=ws.profile.campaign_max_destinations,
            workers=workers,
            metrics=registry,
        )
        seconds = time.perf_counter() - started
        counters = (
            dict(ws.internet.events.counters)
            if ws.internet.events is not None
            else {}
        )
        return {
            "digest": result_digest(result),
            "clock": ws.internet.clock_seconds,
            "probes": ws.internet.probe_count,
            "slash24s": len(result.measurements),
            "events": counters,
            "campaign_seconds": seconds,
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="paper-smoke")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument(
        "--intensity", type=float, default=0.6,
        help="dynamic-event intensity in [0, 1] (see EventConfig"
             ".at_intensity)",
    )
    parser.add_argument("--out", default=None, help="write JSON summary here")
    args = parser.parse_args(argv)

    from repro.obs.metrics import MetricsRegistry

    print(
        f"[1/2] serial baseline on {args.profile!r} at intensity "
        f"{args.intensity} ...",
        flush=True,
    )
    serial = run_once(args.profile, args.intensity, 1)
    print(
        f"      {serial['slash24s']} /24s, clock={serial['clock']:.3f}, "
        f"probes={serial['probes']}, events={serial['events']}, "
        f"campaign {serial['campaign_seconds']:.2f} s",
        flush=True,
    )

    print(f"[2/2] same campaign with workers={args.workers} ...", flush=True)
    registry = MetricsRegistry()
    parallel = run_once(args.profile, args.intensity, args.workers, registry)
    print(
        f"      {parallel['slash24s']} /24s, clock={parallel['clock']:.3f}, "
        f"probes={parallel['probes']}, events={parallel['events']}, "
        f"campaign {parallel['campaign_seconds']:.2f} s",
        flush=True,
    )

    failures = []
    ran_parallel = registry.counter_value("campaign.parallel")
    fallbacks = {
        name: value for name, value in registry.counters.items()
        if name.startswith("campaign.parallel_fallback")
    }
    if ran_parallel != 1 or fallbacks:
        failures.append(
            f"workers={args.workers} did not run on its workers "
            f"(campaign.parallel={ran_parallel}, fallbacks={fallbacks}) "
            "— the comparison would be serial against serial"
        )
    if serial["slash24s"] == 0:
        failures.append("serial campaign measured zero /24s")
    if sum(serial["events"].values()) == 0:
        failures.append(
            "no events fired — the schedule never bit, gate is vacuous"
        )
    for label in ("digest", "clock", "probes", "slash24s"):
        if serial[label] != parallel[label]:
            failures.append(
                f"{label} diverged: serial={serial[label]} "
                f"parallel={parallel[label]}"
            )
    summary = {
        "profile": args.profile,
        "intensity": args.intensity,
        "workers": args.workers,
        "serial": serial,
        "parallel": parallel,
        "failures": failures,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}", flush=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "OK: events-enabled campaign is bit-identical serial vs "
        f"workers={args.workers}, with every stressor observed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
