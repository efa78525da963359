"""Digest the paper's experiment rows and check them against the pins.

Runs ``hobbit-repro run all --profile P --json`` on this tree's ``src/``
for each profile named, drops what varies from run to run (every
``seconds`` field, and ``ablation-mcl``'s ``time`` column, which holds
wall times), and hashes the rest: the sha256 of
``json.dumps(entries, sort_keys=True)`` over the run's experiment
entries, plus one sha256 per experiment so a mismatch names the
experiments whose rows moved.

    python tools/experiment_digest.py tiny small           # check; exit 1 on a move
    python tools/experiment_digest.py tiny small --write   # re-pin

The pins live in ``tools/experiment_digests.json`` with the Python,
numpy and scipy versions that made them; float formatting can differ
across those, so check with the same versions (CI's ``pipebench-digest``
job pins them). A change that moves an artifact on purpose re-pins with
``--write`` and names the experiments that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tools" / "experiment_digests.json"
#: Columns that hold wall times, by experiment.
TIMING_COLUMNS = {"ablation-mcl": "time"}


def stable_entries(document: dict) -> List[dict]:
    """The run's experiment entries without their wall-time fields."""
    entries = []
    for entry in document["experiments"]:
        entry = {key: value for key, value in entry.items() if key != "seconds"}
        column = TIMING_COLUMNS.get(entry["experiment"])
        if column is not None and "headers" in entry:
            index = entry["headers"].index(column)
            entry["headers"] = [
                header for i, header in enumerate(entry["headers"]) if i != index
            ]
            entry["rows"] = [
                [cell for i, cell in enumerate(row) if i != index]
                for row in entry["rows"]
            ]
        entries.append(entry)
    return entries


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digest_profile(profile: str) -> dict:
    """Run every experiment at ``profile`` and digest the stable rows."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "all",
             "--profile", profile, "--json", str(out)],
            cwd=scratch, env=env, stdout=subprocess.DEVNULL,
        )
        if completed.returncode != 0:
            sys.exit(f"run all --profile {profile} exited {completed.returncode}")
        document = json.loads(out.read_text(encoding="utf-8"))
    entries = stable_entries(document)
    return {
        "sha256": sha256_json(entries),
        "experiments": {
            entry["experiment"]: sha256_json(entry) for entry in entries
        },
    }


def versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profiles", nargs="+", help="experiment profiles")
    parser.add_argument(
        "--write", action="store_true",
        help="record the digests instead of checking them",
    )
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pinned = pins.get("profiles", {})
    moved = 0
    for profile in args.profiles:
        found = digest_profile(profile)
        print(f"{profile}: sha256 {found['sha256']}")
        if args.write:
            pinned[profile] = found
            continue
        expected = pinned.get(profile)
        if expected is None:
            print(f"{profile}: no pinned digest")
            moved += 1
        elif found["sha256"] != expected["sha256"]:
            moved += 1
            names = sorted(
                set(found["experiments"]) | set(expected["experiments"])
            )
            changed = [
                name for name in names
                if found["experiments"].get(name)
                != expected["experiments"].get(name)
            ]
            print(f"{profile}: rows moved in {', '.join(changed)}")
    if args.write:
        pins = {"versions": versions(), "profiles": pinned}
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {PINS.relative_to(ROOT)}")
        return 0
    if moved:
        print(f"pinned with {pins.get('versions')}; running {versions()}")
        return 1
    print("every experiment's rows match the pinned digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
