"""Longitudinal stability (the paper's future work, Section 9).

Runs a second Hobbit campaign many epochs after the workspace's first
one and reports verdict/set/block stability. With a static topology,
instability measures the methodology's churn floor.
"""

from __future__ import annotations

from ..analysis.longitudinal import compare_campaigns
from ..core import TerminationPolicy, run_campaign
from ..probing.zmap import scan
from .common import ExperimentResult, Workspace

#: How many epochs the second run starts after the first.
EPOCH_GAP = 48
SAMPLE_SLASH24S = 200


def run(workspace: Workspace) -> ExperimentResult:
    internet = workspace.internet
    first = workspace.campaign

    # Jump the clock far ahead and take a fresh snapshot (the "second
    # year" of the study), then re-measure a sample of the same /24s.
    internet.advance_clock(EPOCH_GAP * internet.config.epoch_seconds)
    snapshot = scan(internet, epoch=internet.current_epoch - 1)
    sample = list(first.measurements)[:SAMPLE_SLASH24S]
    second = run_campaign(
        internet,
        TerminationPolicy(confidence_table=workspace.confidence_table),
        slash24s=sample,
        snapshot=snapshot,
        seed=internet.config.seed ^ 0x10A6,
        max_destinations_per_slash24=(
            workspace.profile.campaign_max_destinations
        ),
        workers=workspace.workers,
    )
    comparison = compare_campaigns(first.subset(sample), second)
    rows = [
        ["/24s analyzable in both runs", comparison.slash24s_in_both],
        [
            "same homogeneity verdict",
            f"{comparison.verdict_stability * 100:.1f}%",
        ],
        ["homogeneous in both runs", comparison.homogeneous_in_both],
        [
            "identical last-hop set across runs",
            f"{comparison.set_stability * 100:.1f}%",
        ],
        [
            "block membership Jaccard (mean best match)",
            f"{comparison.block_jaccard_mean:.2f}",
        ],
    ]
    return ExperimentResult(
        experiment_id="longitudinal",
        title=(
            f"Longitudinal stability across {EPOCH_GAP} epochs "
            f"({len(sample)} /24s re-measured)"
        ),
        headers=["quantity", "value"],
        rows=rows,
        notes=(
            "topology is static, so any instability is measurement "
            "churn (availability, sampling) — the noise floor a real "
            "longitudinal study must subtract before attributing change "
            "to allocation policy"
        ),
    )
