#!/usr/bin/env python
"""Topology discovery with Hobbit blocks (the Section 7.1 application).

Mapping systems like CAIDA's Ark probe one destination per routed /24.
If many /24s are really one homogeneous block, that wastes probes on
duplicate paths. This example traces every active address in a set of
homogeneous /24s to build the full link ground truth, then compares how
fast two selection strategies discover those links:

* one destination per round from every /24 (the status quo), vs
* one destination per round from every Hobbit block.

Run:  python examples/topology_discovery.py
"""

import random

from repro.aggregation import run_aggregation
from repro.analysis import (
    groups_from_blocks,
    groups_from_slash24s,
    total_links,
)
from repro.analysis.topo_discovery import average_discovery_ratios
from repro.core import TerminationPolicy, run_campaign
from repro.core.pipeline import enumerate_paths
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.probing import Prober, scan
from repro.util import render_table


def main() -> None:
    internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
    snapshot = scan(internet)
    truth = internet.ground_truth

    # Collect the full-path dataset: MDA towards every active address
    # of 24 homogeneous /24s.
    sample = [
        p for p in snapshot.eligible_slash24s() if truth.is_homogeneous(p)
    ][:24]
    prober = Prober(internet)
    dataset = {}
    for slash24 in sample:
        for dst in snapshot.active_in(slash24)[:24]:
            mp = enumerate_paths(prober, dst, flow_seed=dst & 0xFFFF)
            if mp.reached and mp.routes:
                dataset[dst] = frozenset(mp.routes)
    print(f"dataset: {len(dataset)} destinations, "
          f"{len(total_links(dataset))} distinct links, "
          f"{prober.probes_sent} probes\n")

    # Identify Hobbit blocks covering the sampled /24s.
    campaign = run_campaign(
        internet, TerminationPolicy(), slash24s=sample,
        snapshot=snapshot, seed=2, max_destinations_per_slash24=48,
    )
    outcome = run_aggregation(
        campaign.lasthop_sets(), validate=False, inflation=2.0,
    )
    blocks = [list(block.slash24s) for block in outcome.final_blocks]
    # /24s Hobbit could not place (too few active, silent last hops)
    # still get probed individually.
    covered = {p for members in blocks for p in members}
    blocks += [[p] for p in sample if p not in covered]
    print(f"{len(sample)} /24s form {len(blocks)} Hobbit blocks\n")

    rng = random.Random(5)
    budgets = (1.0, 2.0, 4.0, 8.0)
    block_ratios = average_discovery_ratios(
        dataset, groups_from_blocks(dataset, blocks), len(sample),
        budgets, rng, trials=5,
    )
    slash24_ratios = average_discovery_ratios(
        dataset, groups_from_slash24s(dataset), len(sample),
        budgets, rng, trials=5,
    )

    rows = []
    for budget, rb, r24 in zip(budgets, block_ratios, slash24_ratios):
        rows.append([budget, f"{rb:.3f}", f"{r24:.3f}"])
    print(render_table(
        ["avg destinations per /24", "Hobbit blocks", "per /24"],
        rows,
        title="discovered-links ratio (Figure 11)",
    ))


if __name__ == "__main__":
    main()
