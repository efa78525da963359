"""The <cardinality, probed addresses> confidence table (Section 3.2).

Hobbit can fail to recognise a homogeneous /24: load-balancer hashing
may scatter addresses into groups that *happen* to look hierarchical.
The failure probability falls as more addresses are probed and rises
with cardinality, so the paper builds an empirical table: for every
combination of destinations drawn from /24s known (from exhaustive
probing) to be homogeneous, would Hobbit's test pass on just that
combination? The resulting confidence per <cardinality, number probed>
cell then drives termination: keep probing until the cell reaches the
95% level (Section 3.5).

The paper samples 16,588 combinations per cell (99% level / 1% margin);
the builder here takes the sample budget as a parameter since our
scenario sizes vary.

Building the table costs what drawing its subsets costs: every subset
still comes from one ``random.sample`` call on a shared generator, but
Hobbit's test is decided for all subsets of one /24 at once in numpy.
The per-subset reference implementation lives in ``tests/oracle.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .grouping import Observations, union_lasthops
from .hierarchy import ranges_non_hierarchical_batch

DEFAULT_LEVEL = 0.95


@dataclass
class ConfidenceCell:
    successes: int = 0
    trials: int = 0

    @property
    def confidence(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


class ConfidenceTable:
    """Confidence that Hobbit recognises a homogeneous /24, per
    <cardinality, number of probed addresses> cell."""

    def __init__(self, min_trials: int = 50) -> None:
        self._cells: Dict[Tuple[int, int], ConfidenceCell] = {}
        #: Cells with fewer trials than this answer "unknown".
        self.min_trials = min_trials
        #: Bumped on every mutation; invalidates the per-level
        #: required-probes caches below.
        self._version = 0
        self._required_cache: Dict[float, Dict[int, Optional[int]]] = {}
        self._required_cache_version = -1

    # -- construction ---------------------------------------------------

    def record(self, cardinality: int, probed: int, success: bool) -> None:
        self._tally(cardinality, probed, int(success), 1)

    def _tally(
        self, cardinality: int, probed: int, successes: int, trials: int
    ) -> None:
        cell = self._cells.setdefault(
            (cardinality, probed), ConfidenceCell()
        )
        cell.trials += trials
        cell.successes += successes
        self._version += 1

    @classmethod
    def build(
        cls,
        datasets: Mapping[object, Observations],
        seed: int = 0,
        samples_per_block: int = 64,
        max_probed: int = 50,
        min_trials: int = 50,
    ) -> "ConfidenceTable":
        """Build the table from exhaustive last-hop datasets of
        known-homogeneous /24s.

        ``datasets`` maps a /24 key to its full per-address last-hop
        observations. For each /24 and each subset size, draws
        ``samples_per_block`` random subsets and tests whether Hobbit's
        homogeneity test passes on the subset alone. Raises
        ``ValueError`` naming the parameter, before any draw, when
        ``samples_per_block`` is below 1 or ``max_probed`` below 4 (the
        smallest subset tested): either would leave every cell empty.
        """
        if samples_per_block < 1:
            raise ValueError(
                f"samples_per_block must be at least 1, "
                f"got {samples_per_block!r}"
            )
        if max_probed < 4:
            raise ValueError(
                f"max_probed must be at least 4, got {max_probed!r}"
            )
        table = cls(min_trials=min_trials)
        rng = random.Random(seed)
        for observations in datasets.values():
            sizes = range(4, min(len(observations), max_probed) + 1)
            if not sizes:
                continue
            routers = sorted(union_lasthops(observations))
            recognised = _recognised_per_size(
                [observations[a] for a in sorted(observations)],
                routers, sizes, samples_per_block, rng,
            )
            for probed, successes in zip(sizes, recognised):
                table._tally(
                    len(routers), probed, successes, samples_per_block
                )
        return table

    @classmethod
    def from_cells(
        cls,
        cells: Iterable[Tuple[int, int, int, int]],
        min_trials: int = 50,
    ) -> "ConfidenceTable":
        """A table holding ``cells``, (cardinality, probed, successes,
        trials) rows in the insertion order :meth:`cells` reports,
        without drawing a subset: how a table kept in the store comes
        back. A cell listed twice raises ``ValueError``."""
        table = cls(min_trials=min_trials)
        for cardinality, probed, successes, trials in cells:
            if (cardinality, probed) in table._cells:
                raise ValueError(
                    f"cell ({cardinality}, {probed}) listed twice"
                )
            table._tally(cardinality, probed, successes, trials)
        return table

    # -- queries -----------------------------------------------------------

    def confidence(self, cardinality: int, probed: int) -> Optional[float]:
        """Confidence for a cell, or None if the cell is unpopulated
        (the paper then probes all active addresses)."""
        cell = self._cells.get((cardinality, probed))
        if cell is None or cell.trials < self.min_trials:
            return None
        return cell.confidence

    def required_probes(
        self, cardinality: int, level: float = DEFAULT_LEVEL
    ) -> Optional[int]:
        """Smallest number of probed addresses reaching ``level`` for
        this cardinality; None if no populated cell reaches it."""
        return self.required_probes_map(level).get(cardinality)

    def required_probes_map(
        self, level: float = DEFAULT_LEVEL
    ) -> Dict[int, Optional[int]]:
        """Cardinality → smallest probed count reaching ``level``.

        The termination policy consults :meth:`required_probes` after
        *every* probed destination of *every* /24; scanning the raw cell
        dict each time is O(cells). This map collapses the table once
        per (content, level) — the cache is invalidated whenever
        :meth:`record` mutates the table — so the per-destination lookup
        is a dict get. Cardinalities absent from the map have no
        populated cell reaching the level (the ``None`` answer).
        """
        if self._required_cache_version != self._version:
            self._required_cache.clear()
            self._required_cache_version = self._version
        cached = self._required_cache.get(level)
        if cached is None:
            cached = {}
            for (card, probed), cell in self._cells.items():
                if cell.trials < self.min_trials or cell.confidence < level:
                    continue
                best = cached.get(card)
                if best is None or probed < best:
                    cached[card] = probed
            self._required_cache[level] = cached
        return cached

    def cells(self) -> Dict[Tuple[int, int], ConfidenceCell]:
        return dict(self._cells)

    def grid(self) -> List[Tuple[int, int, float]]:
        """(cardinality, probed, confidence) triples — Figure 4's data."""
        return sorted(
            (card, probed, cell.confidence)
            for (card, probed), cell in self._cells.items()
            if cell.trials >= self.min_trials
        )


def _recognised_per_size(
    lasthop_sets: Sequence[FrozenSet[int]],
    routers: Sequence[int],
    sizes: range,
    samples: int,
    rng: random.Random,
) -> List[int]:
    """For each subset size in ``sizes``, how many of ``samples`` random
    subsets of one /24 Hobbit's test would call homogeneous.

    ``lasthop_sets`` are the /24's per-address last-hop sets in address
    order, so a subset is a list of indices into it; ``routers`` is
    their union. ``random.sample`` draws by the population's length and
    ``k`` only, which makes ``rng.sample(range(n), k)`` consume exactly
    the randomness that sampling the address list itself would.

    A subset passes when it sees at most one last-hop router, or when
    grouping it by last-hop router gives a non-hierarchical pair of
    ranges (identical multi-router sets give equal ranges, which count).
    Index order is address order, so ranges compare the same in either.
    """
    n = len(lasthop_sets)
    population = range(n)
    draw = rng.sample
    drawn: List[int] = []
    extend = drawn.extend
    for probed in sizes:
        for _ in range(samples):
            extend(draw(population, probed))
    if len(routers) <= 1:
        return [samples] * len(sizes)

    column = {router: index for index, router in enumerate(routers)}
    # Row n is the padding address: it reaches no router.
    member = np.zeros((n + 1, len(routers)), dtype=bool)
    for address, lasthops in enumerate(lasthop_sets):
        member[address, [column[router] for router in lasthops]] = True
    widest = sizes[-1]
    subset_size = np.repeat(np.asarray(sizes), samples)
    subsets = np.full((len(subset_size), widest), n, dtype=np.int32)
    subsets[np.arange(widest) < subset_size[:, None]] = drawn
    subsets.sort(axis=1)
    hits = member[subsets]  # (subset, position, router)
    present = hits.any(axis=1)
    first = np.take_along_axis(subsets, hits.argmax(axis=1), axis=1)
    last = np.take_along_axis(
        subsets, widest - 1 - hits[:, ::-1].argmax(axis=1), axis=1
    )
    passed = (present.sum(axis=1) <= 1) | ranges_non_hierarchical_batch(
        first, last, present
    )
    return passed.reshape(len(sizes), samples).sum(axis=1).tolist()
