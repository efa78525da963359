"""The full aggregation flow: Sections 5 and 6 end to end.

1. Merge /24s with identical last-hop sets (Section 5).
2. Build the similarity graph over the merged blocks (Section 6.3).
3. Sweep the MCL inflation parameter, run MCL per connected component
   (Section 6.4).
4. Validate multi-block clusters by reprobing with the modified
   strategy (Section 6.5); evaluate the similarity rule (Section 6.6).
5. Merge the clusters reprobing confirmed, producing the final block
   list.

Step 1 is a dict keyed by the last-hop frozenset, exact for any key;
step 2 is one sparse incidence Gram product over the merged blocks,
checked bit for bit against the dict inverted-index builder kept in
``tests/oracle.py``. Step 3 iterates every component's MCL run at every
candidate together, as one block-diagonal matrix
(:mod:`repro.aggregation.sweep`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional

from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet
from ..obs.metrics import current_metrics
from ..obs.trace import span
from ..probing.zmap import ActivitySnapshot
from .graph import WeightedGraph
from .identical import AggregatedBlock
from .mcl import DEFAULT_INFLATION
from .reprobe import (
    DEFAULT_MAX_PAIRS,
    ClusterValidation,
    Reprober,
    validate_cluster,
)
from .rules import SimilarityRule
from .sweep import (
    SweepOutcome,
    run_mcl_on_components,
    sweep_and_cluster,
)

# pipebench/sample.py:layer_targets() wraps steps 1-2 by these two names
# for its aggregation.graph span, so run_aggregation calls them here.
from .identical import aggregate_identical as group_identical_columnar
from .similarity import (
    build_similarity_graph as build_similarity_graph_columnar,
)


@dataclass
class AggregationOutcome:
    """Everything Sections 5-6 produce."""

    #: Section 5 blocks (identical-set aggregation).
    identical_blocks: List[AggregatedBlock]
    graph: WeightedGraph
    inflation: float
    sweep_outcomes: List[SweepOutcome] = field(default_factory=list)
    #: MCL clusters as lists of indices into ``identical_blocks``.
    clusters: List[List[int]] = field(default_factory=list)
    #: Reprobing outcomes for multi-block clusters.
    validations: List[ClusterValidation] = field(default_factory=list)
    #: Which multi-block clusters matched the Section 6.6 rule.
    rule_matches: Dict[int, bool] = field(default_factory=dict)
    #: Final blocks: confirmed clusters merged, everything else as-is.
    final_blocks: List[AggregatedBlock] = field(default_factory=list)
    reprobe_probes_used: int = 0
    #: Every reprobed /24 → (last-hop set, probes); feed back in as
    #: ``reprobe_preload`` to replay validation without re-probing.
    reprobe_records: Dict[Prefix, tuple] = field(default_factory=dict)

    # -- summaries ---------------------------------------------------------

    @property
    def confirmed_cluster_count(self) -> int:
        return sum(1 for v in self.validations if v.homogeneous)


def run_aggregation(
    lasthop_sets: Mapping[Prefix, FrozenSet[int]],
    internet: Optional[SimulatedInternet] = None,
    snapshot: Optional[ActivitySnapshot] = None,
    inflation: Optional[float] = None,
    validate: bool = True,
    max_pairs_per_cluster: int = DEFAULT_MAX_PAIRS,
    rule: Optional[SimilarityRule] = None,
    seed: int = 0,
    reprobe_preload: Optional[Mapping[Prefix, tuple]] = None,
) -> AggregationOutcome:
    """Run the aggregation flow over measured last-hop sets.

    ``internet`` and ``snapshot`` are only needed when ``validate`` is
    True (reprobing goes back on the wire). With ``inflation`` unset the
    Section 6.4 sweep picks it. ``reprobe_preload`` replays recorded
    reprobe results (see :attr:`AggregationOutcome.reprobe_records`)
    instead of probing, with identical accounting.
    """
    registry = current_metrics()
    with span("aggregation.run", slash24s=len(lasthop_sets)):
        with registry.time("phase.aggregate.graph"), span("aggregation.graph"):
            identical_blocks = group_identical_columnar(lasthop_sets)
            graph = build_similarity_graph_columnar(identical_blocks)
        registry.gauge("aggregation.blocks", len(identical_blocks))
        registry.gauge("aggregation.edges", graph.edge_count)

        sweep_outcomes: List[SweepOutcome] = []
        with registry.time("phase.aggregate.mcl"), span("aggregation.mcl"):
            registry.gauge(
                "aggregation.components", len(graph.component_order()[1])
            )
            if inflation is None:
                # One pass produces both the sweep outcomes and the
                # chosen candidate's clusters (the historical flow
                # re-ran MCL a seventh time for the winner).
                inflation, sweep_outcomes, clusters = sweep_and_cluster(graph)
                if not sweep_outcomes:
                    # Edgeless graph: every cluster is a singleton at
                    # any inflation; report the paper default.
                    inflation = DEFAULT_INFLATION
            else:
                clusters = run_mcl_on_components(graph, inflation)
        registry.gauge("aggregation.clusters", len(clusters))

        outcome = AggregationOutcome(
            identical_blocks=identical_blocks,
            graph=graph,
            inflation=inflation,
            sweep_outcomes=sweep_outcomes,
            clusters=clusters,
        )
        rule = rule or SimilarityRule()
        multi_clusters = [
            (index, cluster)
            for index, cluster in enumerate(clusters)
            if len(cluster) > 1
        ]
        for index, cluster in multi_clusters:
            blocks = [identical_blocks[i] for i in cluster]
            outcome.rule_matches[index] = rule.matches(blocks)

        confirmed: Dict[int, List[int]] = {}
        if validate and multi_clusters:
            if internet is None or snapshot is None:
                raise ValueError(
                    "validation requires the internet and the snapshot"
                )
            with registry.time("phase.aggregate.reprobe"), span(
                "aggregation.reprobe", clusters=len(multi_clusters)
            ):
                reprober = Reprober(
                    internet, snapshot, seed=seed, preload=reprobe_preload
                )
                rng = random.Random(seed)
                for index, cluster in multi_clusters:
                    blocks = [identical_blocks[i] for i in cluster]
                    validation = validate_cluster(
                        reprober, index, blocks,
                        max_pairs=max_pairs_per_cluster, rng=rng,
                    )
                    outcome.validations.append(validation)
                    if validation.homogeneous:
                        confirmed[index] = cluster
                outcome.reprobe_probes_used = reprober.probes_used
                outcome.reprobe_records = reprober.records()

        outcome.final_blocks = _merge_confirmed(identical_blocks, confirmed)
    return outcome


def _merge_confirmed(
    identical_blocks: List[AggregatedBlock],
    confirmed: Mapping[int, List[int]],
) -> List[AggregatedBlock]:
    merged_members: set = set()
    final: List[AggregatedBlock] = []
    next_id = 0
    for cluster in confirmed.values():
        slash24s: List[Prefix] = []
        lasthops: set = set()
        for block_index in cluster:
            block = identical_blocks[block_index]
            merged_members.add(block_index)
            slash24s.extend(block.slash24s)
            lasthops.update(block.lasthop_set)
        final.append(
            AggregatedBlock(
                block_id=next_id,
                lasthop_set=frozenset(lasthops),
                slash24s=tuple(sorted(slash24s)),
            )
        )
        next_id += 1
    for index, block in enumerate(identical_blocks):
        if index not in merged_members:
            final.append(
                AggregatedBlock(
                    block_id=next_id,
                    lasthop_set=block.lasthop_set,
                    slash24s=block.slash24s,
                )
            )
            next_id += 1
    return final
