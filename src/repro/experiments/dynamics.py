"""Dynamics sweep: what internet churn does to the pipeline.

The paper's pipeline assumes the internet holds still between the ZMap
snapshot and the probing campaign. The dynamic-event engine
(:mod:`repro.netsim.events`) breaks that assumption on demand; this
experiment quantifies the damage, per stressor. For each stressor —
renumbering waves, routing shifts, regional outages, rate-limit storms
— a miniature scenario is rebuilt at increasing intensity and the full
campaign + aggregation pipeline re-run, reporting:

* the Table 1 category shares (which classifications churn eats), and
* aggregation quality versus ground truth: the pair precision of the
  final blocks (how many /24 pairs the pipeline merges are *truly*
  co-homogeneous) and how many blocks survive.

Intensity 0 is the static baseline; every other row is read as a delta
against it. The sweep is deterministic end to end (seed-derived events,
virtual clock), so rows are reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import Dict, List

from ..aggregation import run_aggregation
from ..core import Category, TerminationPolicy, run_campaign
from ..netsim import EventConfig, SimulatedInternet, paper_scenario
from ..probing import scan
from .common import ExperimentResult, Workspace

#: Scale of the miniature sweep scenarios (kept small: each cell is a
#: full build + snapshot + campaign + aggregation).
SWEEP_SCALE = 0.02

#: Swept intensities; 0.0 is the shared static baseline.
INTENSITIES = (0.0, 0.5, 1.0)

#: Per-stressor event configurations at intensity ``x``. Each stressor
#: is swept alone so its signature in the table is unconfounded.
STRESSORS: Dict[str, object] = {
    "renumber": lambda x: EventConfig(renumber_fraction=x),
    "reroute": lambda x: EventConfig(reroute_fraction=x),
    "outage": lambda x: EventConfig(outage_fraction=x),
    "storm": lambda x: EventConfig(storm_duty=x),
}


def _pair_precision(final_blocks, truth) -> float:
    """Of the /24 pairs the pipeline aggregated into one block, the
    fraction whose ground-truth last-hop sets actually agree (1.0 when
    no multi-/24 blocks exist — nothing merged, nothing wrong)."""
    agree = pairs = 0
    for block in final_blocks:
        if len(block.slash24s) < 2:
            continue
        truths = [truth.lasthop_set_of(p) for p in block.slash24s]
        for left, right in combinations(truths, 2):
            pairs += 1
            if left == right:
                agree += 1
    return agree / pairs if pairs else 1.0


def _pipeline_under(config, workers: int = 1) -> dict:
    """Campaign + aggregation under one scenario config; the numbers a
    sweep row is made of."""
    internet = SimulatedInternet.from_config(config)
    snapshot = scan(internet)
    campaign = run_campaign(
        internet,
        TerminationPolicy(),
        snapshot=snapshot,
        seed=config.seed ^ 0xD1A,
        max_destinations_per_slash24=32,
        workers=workers,
    )
    counts = campaign.category_counts()
    total = max(campaign.total, 1)
    outcome = run_aggregation(
        campaign.lasthop_sets(),
        internet=internet,
        snapshot=snapshot,
        max_pairs_per_cluster=24,
        seed=config.seed ^ 0xD1B,
    )
    truth = internet.ground_truth
    counters = (
        dict(internet.events.counters) if internet.events is not None else {}
    )
    return {
        "total": campaign.total,
        "probes": campaign.probes_used,
        "too_few": counts[Category.TOO_FEW_ACTIVE] / total,
        "unresponsive": counts[Category.UNRESPONSIVE_LASTHOP] / total,
        "same": counts[Category.SAME_LASTHOP] / total,
        "non_hier": counts[Category.NON_HIERARCHICAL] / total,
        "hier": counts[Category.HIERARCHICAL] / total,
        "final_blocks": len(outcome.final_blocks),
        "pair_precision": _pair_precision(outcome.final_blocks, truth),
        "event_counters": counters,
    }


def run(workspace: Workspace) -> ExperimentResult:
    base = paper_scenario(scale=SWEEP_SCALE, seed=2016)
    rows: List[List[object]] = []
    baseline = _pipeline_under(base, workers=workspace.workers)

    def add_row(stressor: str, intensity: float, cell: dict) -> None:
        fired = sum(cell["event_counters"].values())
        rows.append(
            [
                stressor,
                f"{intensity:.1f}",
                cell["total"],
                cell["probes"],
                f"{cell['too_few'] * 100:.0f}%",
                f"{cell['unresponsive'] * 100:.0f}%",
                f"{cell['same'] * 100:.0f}%",
                f"{cell['non_hier'] * 100:.0f}%",
                f"{cell['hier'] * 100:.0f}%",
                cell["final_blocks"],
                f"{cell['pair_precision']:.3f}",
                f"{(cell['pair_precision'] - baseline['pair_precision']):+.3f}",
                fired,
            ]
        )

    add_row("(static)", 0.0, baseline)
    for stressor, at in STRESSORS.items():
        for intensity in INTENSITIES:
            if intensity == 0.0:
                continue  # shared baseline row above
            config = dataclasses.replace(base, events=at(intensity))
            add_row(
                stressor, intensity,
                _pipeline_under(config, workers=workspace.workers),
            )

    return ExperimentResult(
        experiment_id="dynamics",
        title=(
            "Dynamic-internet stressors vs classification and "
            f"aggregation (scale {SWEEP_SCALE}, intensities "
            f"{'/'.join(str(i) for i in INTENSITIES if i)})"
        ),
        headers=[
            "stressor", "intensity", "/24s", "probes", "too few",
            "unresp", "same", "non-hier", "hier", "blocks", "pair prec",
            "Δ prec", "events fired",
        ],
        rows=rows,
        notes=(
            "Each row rebuilds the miniature scenario with ONE stressor "
            "at the given intensity and re-runs campaign + aggregation. "
            "'pair prec' is the fraction of merged /24 pairs whose "
            "ground-truth last-hop sets truly agree; Δ prec is read "
            "against the static baseline (top row). Renumbering moves "
            "active addresses between snapshot and campaign; reroutes "
            "shift last-hop routes after the truth was recorded; "
            "outages blank pods during probe windows; storms choke "
            "ICMP token buckets. All stressors are deterministic, so "
            "every cell reproduces bit for bit."
        ),
    )
