"""Per-run manifests: what actually executed, written as ``run.json``.

A manifest is the run's closing statement of record — seed, profile,
worker count, per-phase wall-clocks, probe totals and
forwarder-cache behaviour — so a result directory is self-describing
and two runs can be diffed without re-reading logs. Written atomically
(:func:`repro.util.fileio.atomic_writer`), like every results file.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from ..util.fileio import atomic_writer
from .metrics import MetricsRegistry

MANIFEST_VERSION = 1
MANIFEST_NAME = "run.json"


def manifest_path_for(trace_path: str) -> str:
    """Where the manifest for a given trace journal lives: ``run.json``
    next to the journal."""
    return os.path.join(
        os.path.dirname(os.path.abspath(trace_path)), MANIFEST_NAME
    )


def phase_wall_clocks(registry: MetricsRegistry) -> Dict[str, float]:
    """The ``phase.*`` timers as a name → seconds mapping."""
    return {
        name.split(".", 1)[1]: entry[0]
        for name, entry in sorted(registry.timers.items())
        if name.startswith("phase.")
    }


def build_manifest(
    *,
    command: str,
    profile: Optional[str] = None,
    scenario_seed: Optional[int] = None,
    workers: Optional[int] = None,
    store_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    internet_stats: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the manifest document (pure data, JSON-ready).

    ``internet_stats`` is
    :meth:`repro.netsim.internet.SimulatedInternet.stats` verbatim,
    which carries the forwarder-cache hit/miss accounting.
    """
    document: Dict[str, object] = {
        "manifest_version": MANIFEST_VERSION,
        "created_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
        "command": command,
        "profile": profile,
        "scenario_seed": scenario_seed,
        "workers": workers,
        "store": store_path,
        "trace": trace_path,
    }
    if registry is not None:
        document["phases"] = phase_wall_clocks(registry)
        document["metrics"] = registry.to_dict()
        campaign_seconds = registry.timer_seconds("phase.campaign")
        probes = registry.counter_value("netsim.probes")
        if campaign_seconds > 0 and probes:
            document["campaign_probes_per_second"] = round(
                probes / campaign_seconds, 1
            )
    if internet_stats is not None:
        document["internet_stats"] = internet_stats
    if extra:
        document.update(extra)
    return document


def write_run_manifest(path: str, document: Dict[str, object]) -> str:
    """Atomically write a manifest document; returns ``path``."""
    with atomic_writer(path) as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
