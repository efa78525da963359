"""Ablation: what each termination rule buys (Section 3.5's design).

Runs the campaign on a sample of /24s under variants of the termination
policy and reports probing cost and accuracy against ground truth:

* full policy (both rules + confidence table);
* no single-last-hop rule (keeps probing single-last-hop /24s);
* no non-hierarchical early exit (homogeneity found late);
* exhaustive (probe every active address — the accuracy ceiling).
"""

from __future__ import annotations

import random
from typing import List

from ..core import ExhaustivePolicy, TerminationPolicy
from ..core.pipeline import measure
from ..probing import Prober
from .common import ExperimentResult, Workspace

SAMPLE_SLASH24S = 120


def run(workspace: Workspace) -> ExperimentResult:
    internet = workspace.internet
    snapshot = workspace.snapshot
    table = workspace.confidence_table
    truth = internet.ground_truth
    eligible = workspace.eligible_slash24s()
    stride = max(1, len(eligible) // SAMPLE_SLASH24S)
    sample = eligible[::stride][:SAMPLE_SLASH24S]

    variants = [
        ("full policy", TerminationPolicy(confidence_table=table)),
        (
            "no single-last-hop rule",
            TerminationPolicy(
                confidence_table=table, single_lasthop_rule=False
            ),
        ),
        (
            "no non-hierarchical exit",
            TerminationPolicy(
                confidence_table=table, stop_on_non_hierarchical=False
            ),
        ),
        ("exhaustive", ExhaustivePolicy()),
    ]
    rows: List[List[object]] = []
    for label, policy in variants:
        prober = Prober(internet)
        rng = random.Random(internet.config.seed ^ 0xAB1A)
        correct = 0
        judged = 0
        for slash24 in sample:
            measurement = measure(
                prober, slash24, snapshot.active_in(slash24), policy, rng,
                max_destinations=workspace.profile.campaign_max_destinations,
            )
            if not measurement.category.analyzable:
                continue
            judged += 1
            if measurement.is_homogeneous == truth.is_homogeneous(slash24):
                correct += 1
        accuracy = correct / judged if judged else 0.0
        rows.append(
            [
                label,
                prober.probes_sent,
                round(prober.probes_sent / len(sample)),
                judged,
                f"{accuracy * 100:.1f}%",
            ]
        )
    return ExperimentResult(
        experiment_id="ablation-termination",
        title="Ablation: termination rules (probing cost vs accuracy)",
        headers=[
            "policy", "probes", "probes//24", "judged", "accuracy",
        ],
        rows=rows,
        notes=(
            "early-exit rules should cut probes with little accuracy "
            "loss relative to exhaustive probing"
        ),
    )
