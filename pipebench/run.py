"""Whole-pipeline benchmark of the Hobbit reproduction.

Runs the pipeline (scenario → snapshot → confidence table → campaign →
aggregation → path dataset → strict-het → scoring) on one workload, in
a fresh process per sample, checks every sample's outputs, and prints
each end-to-end metric with its unit, median and quartiles. The last
line of standard output is one JSON object for machines.

Usage, from the repository root::

    python3 pipebench/run.py --workload cold-store --seed 2016 \
        --seconds 10 --trace 0

``--seed`` sets the scenario seed and nothing else. ``--seconds`` is
the least time spent in rounds of timed samples (one process per CPU,
at most two, at once); a workload whose round takes longer runs one
round. ``--trace 1`` adds a round whose first sample is traced and
reports the per-layer metrics instead of the end-to-end ones.

The workloads are in ``workloads.py``. Times are in reference seconds
of a ``HostClock`` on each sample's CPU (see ``hostclock.py``); the
raw wall times are printed beside them.

Each sample's outputs are digested (see ``digest.py``). A seed listed
in ``reference.json`` must reproduce the digest and probe totals
recorded there, on every workload; a change that alters the program's
outputs on purpose records the new values there. Other seeds are held
to the first digest seen for the seed and source tree, kept in a
ledger under ``.pipebench/``, so every workload of a seed must agree.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest
pipebench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Dict, List, Optional

from workloads import FRESH_STORE, PREFILLED_STORE, SCALE, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".pipebench")
LEDGER = os.path.join(WORK_DIR, "ledger.json")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-up samples per run; runs with fewer full samples launch rounds
#: of set-up-only processes to reach it.
SETUP_SAMPLES = 4
#: Most CPUs a round of samples runs on.
ROUND_CPUS = 2
#: A run stops launching samples once this much wall time is spent,
#: and kills any sample still running at this point.
RUN_LIMIT_S = 150.0

#: name → (unit, better); printed and reported in this order.
END_TO_END = {
    "pipeline_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "probes_per_slash24": ("probes/slash24", "lower"),
    "accuracy": ("ratio", "higher"),
    "homogeneous_recall": ("ratio", "higher"),
    "block_purity": ("ratio", "higher"),
}

#: name → (unit, end-to-end metric it should move, workloads where it
#: does). Set-up layers move ``setup_s``; every other layer sits inside
#: ``pipeline_s``.
PER_LAYER = {
    "netsim.build_s": ("s", "setup_s", "all"),
    "probing.snapshot_s": ("s", "setup_s", "all"),
    "netsim.probes": ("count", "pipeline_s", "cold-store"),
    "netsim.forwarder_hit_rate": ("ratio", "pipeline_s", "cold-store"),
    "core.confidence_dataset_s": ("s", "pipeline_s", "cold-store"),
    "core.confidence_dataset_probes": ("count", "pipeline_s", "cold-store"),
    "core.confidence_table_s": ("s", "pipeline_s", "warm, cold-store"),
    "core.campaign_s": ("s", "pipeline_s", "cold-store, warm (replay)"),
    "core.campaign_probes": ("count", "probes_per_slash24", "cold-store"),
    "core.campaign_probes_per_s": ("1/s", "pipeline_s", "cold-store"),
    "core.campaign_cpu_s": ("s", "pipeline_s", "cold-store"),
    "core.strict_het_s": ("s", "pipeline_s", "cold-store"),
    "core.strict_het_probes": ("count", "pipeline_s", "cold-store"),
    "aggregation.run_s": ("s", "pipeline_s", "all"),
    "aggregation.graph_s": ("s", "pipeline_s", "warm"),
    "aggregation.mcl_s": ("s", "pipeline_s", "warm"),
    "aggregation.mcl_cpu_s": ("s", "pipeline_s", "warm"),
    "aggregation.mcl_runs": ("count", "pipeline_s", "all"),
    "aggregation.components": ("count", "pipeline_s", "all"),
    "aggregation.reprobe_s": ("s", "pipeline_s", "cold-store"),
    "aggregation.reprobe_probes": ("count", "pipeline_s", "cold-store"),
    "probing.path_dataset_s": ("s", "pipeline_s", "cold-store"),
    "probing.path_dataset_probes": ("count", "pipeline_s", "cold-store"),
    "store.open_s": ("s", "pipeline_s", "warm"),
    "store.replay_s": ("s", "pipeline_s", "warm"),
    "store.hit_ratio": ("ratio", "pipeline_s", "warm"),
    "store.records": ("count", "pipeline_s", "cold-store"),
    "store.bytes": ("bytes", "pipeline_s", "cold-store"),
    "analysis.score_s": ("s", "pipeline_s", "all"),
    "experiments.unattributed_s": ("s", "-", "all"),
    "experiments.trace_overhead_s": ("s", "-", "all"),
}


def child_environment(tmp: str) -> Dict[str, str]:
    """The caller's environment without program knobs (``REPRO_*``)
    or interpreter knobs (``PYTHON*``), importing ``src`` only, with
    one string-hash seed for every sample."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = SOURCE
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def tree_digest(root: str, suffix: str = "") -> str:
    """SHA-256 over the relative path and bytes of every file under
    root whose name ends with ``suffix``."""
    hasher = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(root)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(suffix):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    hasher.update(hashlib.sha256(handle.read()).digest())
    return hasher.hexdigest()


def quartiles(values: List[float]) -> List[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Bench:
    """One invocation's samples of one workload at one seed.

    Samples run in rounds: one process per CPU at once, each pinned to
    its CPU, so a run measures twice the work in the same time. Two
    concurrent pipelines, one per CPU, were measured not to slow each
    other on a 2-vCPU host; each sample's ``HostClock`` calibrates its
    own CPU, whose speed drifts apart from the other's."""

    def __init__(self, workload: Workload, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))[:ROUND_CPUS]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_environment(os.path.join(work, "tmp"))
        os.makedirs(self.env["TMPDIR"])
        self.master: Optional[str] = None
        self.master_digest: Optional[str] = None
        self.launches = 0

    def run_jobs(self, jobs: List[tuple]) -> List[dict]:
        """Run sample.py once per (cpu, store, flags) job, all at once;
        each job's result, or {"error": ...}."""
        running = []
        try:
            for cpu, store, flags in jobs:
                self.launches += 1
                stem = os.path.join(self.work, f"sample-{self.launches}")
                command = [
                    sys.executable, os.path.join(HERE, "sample.py"),
                    "--seed", str(self.seed), "--cpu", str(cpu),
                    "--out", stem + ".json", *flags,
                ]
                if store is not None:
                    command += ["--store", store]
                with open(stem + ".err", "w") as errors:
                    launched = time.monotonic()
                    process = subprocess.Popen(
                        command + ["--launched", repr(launched)],
                        env=self.env, cwd=ROOT,
                        stdout=subprocess.DEVNULL, stderr=errors,
                    )
                running.append((process, stem))
            results = []
            for process, stem in running:
                code = process.wait(
                    timeout=max(1.0, self.deadline - time.monotonic())
                )
                if code != 0:
                    with open(stem + ".err") as errors:
                        message = errors.read().strip()[-2000:]
                    results.append({"error": f"exit {code}: {message}"})
                else:
                    with open(stem + ".json") as handle:
                        results.append(json.load(handle))
            return results
        finally:
            for process, _ in running:
                if process.poll() is None:
                    process.kill()
                    process.wait()

    def build_master(self) -> dict:
        """Fill the store warm samples replay (untimed)."""
        self.master = os.path.join(self.work, "master-store")
        result = self.run_jobs([(self.cpus[0], self.master, ())])[0]
        if "error" not in result:
            self.master_digest = tree_digest(self.master)
        return result

    def samples(self, trace: bool = False) -> List[dict]:
        """One round of full samples. With ``trace`` the first is
        traced and the others run untraced beside it, as in every
        round, so the traced sample meets the same conditions."""
        kind = self.workload.store
        stores = [os.path.join(self.work, f"store-{cpu}") for cpu in self.cpus]
        if kind == PREFILLED_STORE:
            for store in stores:
                shutil.copytree(self.master, store)
        flags = [()] * len(self.cpus)
        if trace:
            flags[0] = ("--trace",)
        try:
            results = self.run_jobs(list(zip(self.cpus, stores, flags)))
            if kind == PREFILLED_STORE:
                for result, store in zip(results, stores):
                    if "error" not in result:
                        result["store_unchanged"] = (
                            tree_digest(store) == self.master_digest
                        )
        finally:
            for store in stores:
                shutil.rmtree(store, ignore_errors=True)
        return results

    def setup_round(self) -> List[dict]:
        return self.run_jobs(
            [(cpu, None, ("--setup-only",)) for cpu in self.cpus]
        )


def check(result: dict, reference: dict, store: str) -> List[str]:
    """Every failed output check of one sample (empty: it passed).
    ``store`` is the kind of store the sample ran with."""
    if "error" in result:
        return [result["error"]]
    failures = []
    if result["digest"] != reference["digest"]:
        failures.append("output digest differs from the seed's reference")
    if result["measured"] != result["eligible"]:
        failures.append(
            f"measured {result['measured']} of {result['eligible']} "
            "eligible /24s"
        )
    if result["fallbacks"]:
        failures.append(f"fallback counters: {result['fallbacks']}")
    if result["probes"] != reference["probes"]:
        failures.append("campaign probe total differs from the reference")
    if store == PREFILLED_STORE:
        if result["pipeline_probes"] != 0:
            failures.append(
                f"warm run sent {result['pipeline_probes']} probes"
            )
        if result["store_hits"] != result["eligible"]:
            failures.append(
                f"store hit {result['store_hits']} of "
                f"{result['eligible']} /24s"
            )
        if not result["store_unchanged"]:
            failures.append("warm run changed the store's bytes")
    else:
        if result["pipeline_probes"] != reference["pipeline_probes"]:
            failures.append("pipeline probe count differs from the reference")
        if (result["store_hits"], result["store_misses"]) != (
            0, result["eligible"]
        ):
            failures.append(
                f"a fresh store hit {result['store_hits']} and missed "
                f"{result['store_misses']} of {result['eligible']} /24s"
            )
    return failures


REFERENCE_KEYS = ("digest", "probes", "pipeline_probes")


def reference_for(seed: int, first: dict) -> dict:
    """The seed's reference outputs: those committed in
    ``reference.json``, else the ledger's entry for this source tree,
    else — recorded in the ledger — ``first``'s."""
    with open(REFERENCE) as handle:
        committed = json.load(handle)
    if committed["scale"] != SCALE:
        raise RuntimeError(
            f"{REFERENCE} holds outputs at scale {committed['scale']}, "
            f"the workloads run at {SCALE}"
        )
    if str(seed) in committed["seeds"]:
        return committed["seeds"][str(seed)]
    key = f"{tree_digest(SOURCE, '.py')}:{SCALE!r}:{seed}"
    try:
        with open(LEDGER) as handle:
            ledger = json.load(handle)
    except FileNotFoundError:
        ledger = {}
    if key not in ledger:
        ledger[key] = {name: first[name] for name in REFERENCE_KEYS}
        temporary = LEDGER + f".{os.getpid()}"
        with open(temporary, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
        os.replace(temporary, LEDGER)
    return ledger[key]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: str) -> dict:
    """Run the samples of one invocation; the report it prints."""
    bench = Bench(workload, seed, work)
    results: List[dict] = []
    first = None
    if workload.store == PREFILLED_STORE:
        first = bench.build_master()
        if "error" in first:
            raise RuntimeError(f"building the warm store failed: {first}")
    spent = 0.0
    longest = 0.0
    while not results or (
        spent < seconds
        and time.monotonic() + 2 * longest < bench.deadline
    ):
        t0 = time.monotonic()
        results.extend(bench.samples())
        longest = max(longest, time.monotonic() - t0)
        spent += time.monotonic() - t0
    traced = None
    if trace:
        traced, *partners = bench.samples(trace=True)
        results.extend(partners)

    if first is None:
        first = next((r for r in results if "error" not in r), None)
        if first is None:
            raise RuntimeError(f"every sample failed: {results[0]['error']}")
    reference = reference_for(seed, first)
    if workload.store == PREFILLED_STORE:
        failed = check(first, reference, FRESH_STORE)
        if failed:
            raise RuntimeError(f"the run filling the store failed: {failed}")

    failures = [check(result, reference, workload.store) for result in results]
    passed = [r for r, f in zip(results, failures) if not f]
    traced_failures = (
        check(traced, reference, workload.store) if trace else []
    )
    if trace:
        failures.append(traced_failures)
    if not passed:
        raise RuntimeError(f"every sample failed its checks: {failures}")
    setups = [r["setup_s"] for r in passed]
    setup_walls = [r["setup_wall_s"] for r in passed]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < bench.deadline:
        for result in bench.setup_round():
            failures.append([result["error"]] if "error" in result else [])
            if "error" not in result:
                setups.append(result["setup_s"])
                setup_walls.append(result["setup_wall_s"])
    series = {name: [r[name] for r in passed] for name in END_TO_END}
    series["setup_s"] = setups
    report = {
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "failures": [f for f in failures if f],
        "series": series,
        "walls": {
            "pipeline_s": [r["pipeline_wall_s"] for r in passed],
            "setup_s": setup_walls,
        },
        "reference": reference,
        "pipeline_probes": sorted({r["pipeline_probes"] for r in passed}),
    }
    if trace and not traced_failures:
        layers = dict(traced["layers"])
        untraced = series["pipeline_s"]
        layers["experiments.trace_overhead_s"] = (
            traced["pipeline_s"] - statistics.median(untraced)
        )
        report["layers"] = layers
        report["traced_pipeline_s"] = traced["pipeline_s"]
        report["untraced_range_s"] = (min(untraced), max(untraced))
    return report


def host() -> str:
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {metadata.version('numpy')}, "
            f"scipy {metadata.version('scipy')}")


STORE_CHECKS = {
    FRESH_STORE: "pipeline probes equal the reference; every /24 missed "
    "the store and was written to it",
    PREFILLED_STORE: "0 probes sent, every /24 replayed, store bytes "
    "unchanged",
}


def render(name: str, workload: Workload, report: dict, trace: bool) -> dict:
    """Print the human-readable report; return the JSON result."""
    store = {
        FRESH_STORE: "fresh empty directory",
        PREFILLED_STORE: "copy of a store filled by an untimed run",
    }[workload.store]
    print(f"workload {name}: workers=1 store={store} scale={SCALE} "
          f"of paper-smoke, events off — {workload.why}")
    print(f"  host: {host()}")
    print("  checks per sample: digest and campaign probes equal the "
          "seed's reference; measured == eligible /24s; no fallback "
          f"counters; {STORE_CHECKS[workload.store]}")
    print(f"  samples attempted={report['attempted']} "
          f"failed={report['failed']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    reference = report["reference"]
    print(f"  output digest {reference['digest']}, campaign probes "
          f"{reference['probes']}; pipeline probes sent: "
          f"{report['pipeline_probes']}")
    print("  times are reference seconds of the per-CPU host clock; raw "
          "wall medians: " + ", ".join(
              f"{metric} {statistics.median(values):.3f} s"
              for metric, values in report["walls"].items()
          ))
    print(f"  {'metric':<20}{'unit':<16}{'better':<8}{'median':>14}"
          f"{'q1':>14}{'q3':>14}{'n':>4}")
    metrics = {}
    for metric, (unit, better) in END_TO_END.items():
        values = report["series"][metric]
        q1, median, q3 = quartiles(values)
        print(f"  {metric:<20}{unit:<16}{better:<8}{median:>14.6g}"
              f"{q1:>14.6g}{q3:>14.6g}{len(values):>4}")
        if not trace:
            metrics[metric] = {"value": median, "unit": unit}
    if trace:
        layers = report.get("layers")
        if layers is None:
            raise RuntimeError("the traced sample failed its checks")
        pipeline = report["traced_pipeline_s"]
        print(f"  per-layer metrics (one traced sample, pipeline "
              f"{pipeline:.3f} s; share = part of that pipeline_s):")
        print(f"    {'metric':<34}{'unit':<7}{'value':>16}{'share':>8}"
              f"  moves / on")
        for metric, (unit, moves, where) in PER_LAYER.items():
            value = layers[metric]
            share = (
                f"{100 * value / pipeline:7.1f}%"
                if unit == "s" and moves == "pipeline_s" else " " * 8
            )
            print(f"    {metric:<34}{unit:<7}{value:>16.6g}{share}"
                  f"  {moves} / {where}")
            metrics[metric] = {"value": value, "unit": unit}
        overhead = layers["experiments.trace_overhead_s"]
        low, high = report["untraced_range_s"]
        verdict = "unresolved: inside" if low <= pipeline <= high else (
            "resolved: outside"
        )
        print(f"  tracing overhead {overhead:+.3f} s against the untraced "
              f"median ({verdict} the untraced samples' range, "
              f"{low:.3f}-{high:.3f} s)")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program source at {SOURCE}", file=sys.stderr)
        return 2
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SOURCE],
        stdout=subprocess.DEVNULL,
    )
    if compiled.returncode != 0:
        print("compiling the program source failed", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    workload = WORKLOADS[args.workload]
    try:
        report = measure(
            workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = render(args.workload, workload, report, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
