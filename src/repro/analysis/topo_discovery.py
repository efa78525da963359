"""Topology-discovery efficiency (Section 7.1, Figure 11).

Given a dataset of traceroutes towards every active address of a set of
homogeneous /24s, compare two destination-selection strategies — one
destination per round from every /24 vs from every Hobbit block — by
the fraction of the dataset's distinct IP links each discovers as the
per-block selection count grows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from ..net.addr import slash24_of
from ..net.prefix import Prefix
from .pathmetrics import links_of_route

#: dst address → set of routes discovered for it.
TracerouteDataset = Mapping[int, FrozenSet]


@dataclass
class DiscoveryCurve:
    """Discovered-links ratio as a function of selection effort."""

    strategy: str
    #: (average selected destinations per /24, links ratio) points.
    points: List[Tuple[float, float]]

    def ratio_at_or_below(self, avg_per_slash24: float) -> float:
        """Largest ratio achieved with at most the given average."""
        best = 0.0
        for x, ratio in self.points:
            if x <= avg_per_slash24:
                best = max(best, ratio)
        return best


def total_links(dataset: TracerouteDataset) -> Set[Tuple[int, int]]:
    links: Set[Tuple[int, int]] = set()
    for routes in dataset.values():
        for route in routes:
            links.update(links_of_route(route))
    return links


def discovery_curve(
    dataset: TracerouteDataset,
    groups: Sequence[Sequence[int]],
    slash24_count: int,
    strategy: str,
    rng: random.Random,
    target_ratio: float = 0.995,
    max_rounds: int = 200,
) -> DiscoveryCurve:
    """Select one destination per group per round (without replacement,
    shuffled order per group) and track the links ratio.

    ``groups`` are destination lists — one list per /24 or per Hobbit
    block. ``slash24_count`` normalises the x axis to the paper's
    "average number of selected addresses per /24".
    """
    denominator = len(total_links(dataset))
    if denominator == 0:
        raise ValueError("dataset contains no links")
    queues = [list(group) for group in groups if group]
    for queue in queues:
        rng.shuffle(queue)
    covered: Set[Tuple[int, int]] = set()
    selected = 0
    points: List[Tuple[float, float]] = []
    for _round in range(max_rounds):
        progressed = False
        ratio = 0.0
        for queue in queues:
            if not queue:
                continue
            dst = queue.pop()
            selected += 1
            progressed = True
            for route in dataset.get(dst, ()):  # type: ignore[arg-type]
                covered.update(links_of_route(route))
            # Record per selection, not per round: coarse per-round
            # points would handicap strategies with few groups when
            # curves are compared at fixed budgets.
            ratio = len(covered) / denominator
            points.append((selected / slash24_count, ratio))
        if ratio >= target_ratio or not progressed:
            break
    return DiscoveryCurve(strategy=strategy, points=points)


def average_discovery_ratios(
    dataset: TracerouteDataset,
    groups: Sequence[Sequence[int]],
    slash24_count: int,
    budgets: Sequence[float],
    rng: random.Random,
    trials: int = 5,
    strategy: str = "",
) -> List[float]:
    """Mean discovered-links ratio at each budget over several random
    selection orders (one run's ratios are noisy at small scale)."""
    totals = [0.0] * len(budgets)
    for _trial in range(trials):
        curve = discovery_curve(
            dataset, groups, slash24_count, strategy, rng
        )
        for index, budget in enumerate(budgets):
            totals[index] += curve.ratio_at_or_below(budget)
    return [total / trials for total in totals]


def groups_from_slash24s(dataset: TracerouteDataset) -> List[List[int]]:
    """Group dataset destinations by their /24."""
    groups: Dict[int, List[int]] = {}
    for dst in dataset:
        groups.setdefault(slash24_of(dst), []).append(dst)
    return [sorted(group) for _key, group in sorted(groups.items())]


def groups_from_blocks(
    dataset: TracerouteDataset, blocks: Sequence[Sequence[Prefix]]
) -> List[List[int]]:
    """Group dataset destinations by Hobbit block (given as /24 lists);
    destinations in no block are dropped (mirrors the paper, which
    selects from the identified blocks)."""
    slash24_to_block: Dict[int, int] = {}
    for index, block in enumerate(blocks):
        for slash24 in block:
            slash24_to_block[slash24.network] = index
    groups: Dict[int, List[int]] = {}
    for dst in dataset:
        block_index = slash24_to_block.get(slash24_of(dst))
        if block_index is not None:
            groups.setdefault(block_index, []).append(dst)
    return [sorted(group) for _key, group in sorted(groups.items())]
