"""Compare a change's speed with its merge base's, on the same machine.

Three gates, each failing when the change's median is more than 20%
worse than the base's: a rate more than 20% below it, or a time more
than 20% above it. Runs alternate which tree goes first, so drift in
the machine's speed falls on both sides alike; no committed number is
read.

``campaign``
    ``core.campaign_probes_per_s`` from one traced cold-store pipebench
    run, ``pipebench/run.py --workload cold-store --seed 2016 --seconds 1
    --trace 1``, each tree running its own ``pipebench/`` (three runs a
    side by default).
``warm``
    The untraced median ``pipeline_s`` of one warm pipebench run,
    ``pipebench/run.py --workload warm --seed 2016 --seconds 3 --trace
    0``: re-analysis from a filled store, so the store's decoding and
    replay, the confidence table's replay and MCL show here (three runs
    a side).
``aggregation``
    Blocks per second of ``run_aggregation(sets, validate=False)`` over
    the paper-smoke campaign's last-hop sets, built once with the
    change's tree and written as JSON, then timed in a fresh process of
    each tree's ``src/`` (five runs a side). Each side's peak RSS is
    printed beside its speed.

Usage, from the change's checkout, with the base checked out beside it
(for example ``git worktree add --detach ../base "$(git merge-base
origin/main HEAD)"``)::

    python3 tools/perf_gate.py campaign --base ../base
    python3 tools/perf_gate.py warm --base ../base
    python3 tools/perf_gate.py aggregation --base ../base

Exit status 1 means the change is slower than the bound allows.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: The change may be at most this much slower than its base.
BOUND = 0.20
#: Runs per side. Trees without a speed change read 0.98-1.10
#: (campaign), 1.02 (warm) and 0.95-1.01 (aggregation) on 2 vCPUs; add
#: runs rather than widen the bound if that spread comes within 10% of
#: it.
CAMPAIGN_RUNS = 3
WARM_RUNS = 3
AGGREGATION_RUNS = 5
CAMPAIGN_METRIC = "core.campaign_probes_per_s"
CAMPAIGN_COMMAND = [
    "pipebench/run.py", "--workload", "cold-store", "--seed", "2016",
    "--seconds", "1", "--trace", "1",
]
WARM_METRIC = "pipeline_s"
WARM_COMMAND = [
    "pipebench/run.py", "--workload", "warm", "--seed", "2016",
    "--seconds", "3", "--trace", "0",
]


def pipebench_sample(
    tree: Path, command: List[str], metric: str
) -> Dict[str, float]:
    """``metric`` from one pipebench run of ``tree``'s own
    ``pipebench/``."""
    completed = subprocess.run(
        [sys.executable, *command], cwd=tree,
        capture_output=True, text=True,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit(f"pipebench failed in {tree}:\n{completed.stderr}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(f"pipebench samples failed their checks in {tree}: {lines[-1]}")
    return {"value": result["metrics"][metric]["value"]}


def write_lasthop_sets(path: str) -> None:
    """Child process: build the paper-smoke campaign; save its sets."""
    from repro.experiments import PROFILES, Workspace

    started = time.perf_counter()
    with Workspace(PROFILES["paper-smoke"]) as workspace:
        sets = workspace.campaign.lasthop_sets()
    rows = [[prefix.network, sorted(hops)] for prefix, hops in sets.items()]
    Path(path).write_text(json.dumps(rows), encoding="utf-8")
    print(f"paper-smoke campaign: {len(rows)} /24s with last-hop sets "
          f"in {time.perf_counter() - started:.1f} s")


def time_aggregation(sets_path: str) -> None:
    """Child process: time one aggregation on the ``src/`` it imports."""
    from repro.aggregation import run_aggregation
    from repro.net.prefix import Prefix
    from repro.obs import metrics_scope

    rows = json.loads(Path(sets_path).read_text(encoding="utf-8"))
    sets = {Prefix(network, 24): frozenset(hops) for network, hops in rows}
    with metrics_scope() as registry:
        started = time.perf_counter()
        outcome = run_aggregation(sets, validate=False)
        seconds = time.perf_counter() - started
    blocks = len(outcome.identical_blocks)
    print(json.dumps({
        "value": blocks / seconds,
        "blocks": blocks,
        "seconds": seconds,
        "graph_s": registry.timer_seconds("phase.aggregate.graph"),
        "mcl_s": registry.timer_seconds("phase.aggregate.mcl"),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }))


def child(tree: Path, mode: str, path: Path) -> str:
    """Run one of this script's child modes on ``tree``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    completed = subprocess.run(
        [sys.executable, __file__, mode, str(path)],
        env=env, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        sys.exit(f"{mode} failed in {tree}:\n{completed.stderr}")
    return completed.stdout.splitlines()[-1]


def aggregation_sample(tree: Path, sets_path: Path) -> Dict[str, float]:
    """One aggregation timed in a fresh process of ``tree``'s ``src/``."""
    return json.loads(child(tree, "time-aggregation", sets_path))


def compare(
    name: str, unit: str, runs: int,
    sample: Callable[[Path], Dict[str, float]], base: Path, change: Path,
    lower_is_better: bool = False,
) -> int:
    """Alternate ``runs`` samples per side; 1 if the change is too slow.
    ``value`` is a rate unless ``lower_is_better`` (a time)."""
    shown = ".3f" if lower_is_better else ",.0f"
    sides = {"base": base, "change": change}
    samples: Dict[str, List[Dict[str, float]]] = {"base": [], "change": []}
    for run in range(runs):
        order = ("base", "change") if run % 2 == 0 else ("change", "base")
        for side in order:
            found = sample(sides[side])
            samples[side].append(found)
            details = ", ".join(
                f"{key} {value:.3f}" if isinstance(value, float)
                else f"{key} {value}"
                for key, value in found.items() if key != "value"
            )
            print(f"  run {run + 1} {side:<6} "
                  f"{found['value']:>12{shown}} {unit}"
                  + (f" ({details})" if details else ""), flush=True)
    medians = {
        side: statistics.median(s["value"] for s in values)
        for side, values in samples.items()
    }
    for side, values in samples.items():
        extra = ""
        if "peak_rss_mib" in values[0]:
            rss = statistics.median(s["peak_rss_mib"] for s in values)
            extra = f", peak RSS {rss:.1f} MiB"
        print(f"{name} {side:<6} median {medians[side]:{shown}} {unit}{extra}")
    ratio = medians["change"] / medians["base"]
    if lower_is_better:
        limit, passed, beyond = 1.0 + BOUND, ratio <= 1.0 + BOUND, "above"
    else:
        limit, passed, beyond = 1.0 - BOUND, ratio >= 1.0 - BOUND, "below"
    verdict = "ok" if passed else "REGRESSION"
    print(f"{name}: change/base = {ratio:.3f} (fails {beyond} {limit:.2f}): "
          f"{verdict}")
    return 0 if passed else 1


CHILD_MODES = {
    "lasthop-sets": write_lasthop_sets,
    "time-aggregation": time_aggregation,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "gate",
        choices=("campaign", "warm", "aggregation", *CHILD_MODES),
    )
    parser.add_argument("path", nargs="?", help=argparse.SUPPRESS)
    parser.add_argument("--base", type=Path, help="the base's checkout")
    parser.add_argument(
        "--change", type=Path, default=ROOT,
        help="the change's checkout (default: this one)",
    )
    args = parser.parse_args(argv)
    if args.gate in CHILD_MODES:
        CHILD_MODES[args.gate](args.path)
        return 0
    if args.base is None:
        parser.error("--base is required")
    base, change = args.base.resolve(), args.change.resolve()
    if args.gate == "campaign":
        return compare(
            "campaign", "probes/s", CAMPAIGN_RUNS,
            lambda tree: pipebench_sample(
                tree, CAMPAIGN_COMMAND, CAMPAIGN_METRIC
            ),
            base, change,
        )
    if args.gate == "warm":
        return compare(
            "warm", "s", WARM_RUNS,
            lambda tree: pipebench_sample(tree, WARM_COMMAND, WARM_METRIC),
            base, change, lower_is_better=True,
        )
    with tempfile.TemporaryDirectory() as scratch:
        sets_path = Path(scratch) / "lasthop_sets.json"
        print(child(change, "lasthop-sets", sets_path), flush=True)
        return compare(
            "aggregation", "blocks/s", AGGREGATION_RUNS,
            lambda tree: aggregation_sample(tree, sets_path), base, change,
        )


if __name__ == "__main__":
    sys.exit(main())
