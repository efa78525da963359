"""Cellular-block identification by RTT behaviour (Section 5.2).

For each large "Broadband" block the paper pings active addresses 20
times and computes *first RTT − max(rest RTTs)*: radio promotion makes
the statistic strongly positive for cellular pools and ~zero for wired
datacenter blocks (Figure 6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..aggregation.identical import AggregatedBlock
from ..core.pipeline import ping
from ..netsim.internet import SimulatedInternet
from ..probing.session import Prober
from ..probing.zmap import ActivitySnapshot
from .cdf import fraction_above

#: The paper samples 200 /24s per block and pings 20 times.
PAPER_SLASH24_SAMPLE = 200
PAPER_PING_COUNT = 20


@dataclass
class BlockRttStudy:
    """First-minus-max-rest differences gathered over one block."""

    label: str
    differences_seconds: List[float] = field(default_factory=list)
    addresses_probed: int = 0

    def fraction_above(self, threshold: float) -> float:
        # A block can legitimately yield no differences (nothing
        # responded twice); read that as "no large differences seen".
        if not self.differences_seconds:
            return 0.0
        return fraction_above(self.differences_seconds, threshold)

    @property
    def looks_cellular(self) -> bool:
        """The paper's qualitative reading of Figure 6: cellular blocks
        have ~50% of differences above 0.5s; wired blocks are near 0."""
        return self.fraction_above(0.5) >= 0.25


def study_block(
    internet: SimulatedInternet,
    block: AggregatedBlock,
    snapshot: ActivitySnapshot,
    label: str = "",
    slash24_sample: int = PAPER_SLASH24_SAMPLE,
    ping_count: int = PAPER_PING_COUNT,
    max_addresses_per_slash24: Optional[int] = 16,
    idle_gap_seconds: float = 30.0,
    seed: int = 0,
) -> BlockRttStudy:
    """Ping a sample of the block's addresses and collect differences.

    ``idle_gap_seconds`` is inserted before each address's train so the
    radio of a cellular host has gone idle (as it would between the
    paper's independently-timed probes). ``max_addresses_per_slash24``
    bounds the work on dense simulated /24s; the paper probed every
    active address.
    """
    rng = random.Random(seed)
    prober = Prober(internet)
    study = BlockRttStudy(label=label or f"block#{block.block_id}")
    slash24s = list(block.slash24s)
    if len(slash24s) > slash24_sample:
        slash24s = rng.sample(slash24s, slash24_sample)
    for slash24 in slash24s:
        actives = snapshot.active_in(slash24)
        if max_addresses_per_slash24 is not None:
            actives = actives[:max_addresses_per_slash24]
        for addr in actives:
            internet.advance_clock(idle_gap_seconds)
            result = ping(prober, addr, count=ping_count)
            study.addresses_probed += 1
            difference = result.first_minus_max_rest_seconds()
            if difference is not None:
                study.differences_seconds.append(difference)
    return study
