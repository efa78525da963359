"""Reverse-DNS pattern mining (Sections 7.2 and 7.3).

The paper generalises from the rDNS names of addresses inside a Hobbit
block to *patterns* (e.g. ``^m[0-9].+\\.cust\\.tele2``) that identify
cellular addresses network-wide, checking the patterns against router
names and Bitcoin-node names as negative controls.

We mine patterns by canonicalising names: every maximal digit run
becomes ``#``. Two names share a pattern iff their canonical signatures
match — this recovers operator naming schemes without knowing them in
advance.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..aggregation.identical import AggregatedBlock
from ..netsim.internet import SimulatedInternet
from ..probing.zmap import ActivitySnapshot

_DIGIT_RUN = re.compile(r"[0-9]+")


def signature_of(name: str) -> str:
    """Canonical pattern signature of an rDNS name.

    >>> signature_of("m3-1-2-3-4.cust.tele2.se")
    'm#-#-#-#-#.cust.tele2.se'
    """
    return _DIGIT_RUN.sub("#", name)


def signature_regex(signature: str) -> "re.Pattern[str]":
    """Compile a signature into a matching regex (``#`` → digit run)."""
    escaped = re.escape(signature).replace(re.escape("#"), "[0-9]+")
    return re.compile(f"^{escaped}$")


@dataclass
class PatternMiningResult:
    """Dominant rDNS patterns of a block."""

    block_label: str
    names_seen: int
    signatures: Counter

    def dominant(self, min_fraction: float = 0.5) -> Optional[str]:
        """The most common signature, if it covers ≥ min_fraction of
        names (the paper found ~95% of OCN names shared one keyword)."""
        if not self.signatures or not self.names_seen:
            return None
        signature, count = self.signatures.most_common(1)[0]
        if count / self.names_seen >= min_fraction:
            return signature
        return None

    def coverage(self, signature: str) -> float:
        if not self.names_seen:
            return 0.0
        return self.signatures.get(signature, 0) / self.names_seen


def mine_block_patterns(
    internet: SimulatedInternet,
    block: AggregatedBlock,
    snapshot: ActivitySnapshot,
    label: str = "",
    max_addresses: int = 2000,
) -> PatternMiningResult:
    """Collect and canonicalise the rDNS names of a block's active
    addresses."""
    signatures: Counter = Counter()
    names_seen = 0
    for slash24 in block.slash24s:
        if names_seen >= max_addresses:
            break
        for addr in snapshot.active_in(slash24):
            if names_seen >= max_addresses:
                break
            name = internet.rdns_lookup(addr)
            if name is None:
                continue
            names_seen += 1
            signatures[signature_of(name)] += 1
    return PatternMiningResult(
        block_label=label or f"block#{block.block_id}",
        names_seen=names_seen,
        signatures=signatures,
    )


@dataclass
class NegativeControl:
    """How often a candidate pattern matches names it should not."""

    pattern: str
    router_matches: int
    router_names: int
    bitcoin_matches: int
    bitcoin_names: int

    @property
    def clean(self) -> bool:
        """The Section 7.2 requirement: no false matches at all."""
        return self.router_matches == 0 and self.bitcoin_matches == 0


def check_negative_controls(
    pattern: str,
    router_names: Iterable[str],
    bitcoin_names: Iterable[str],
) -> NegativeControl:
    """Verify a cellular pattern against router and Bitcoin-node names
    (hosts that are very unlikely to be cellular)."""
    regex = signature_regex(pattern)
    routers = list(router_names)
    bitcoins = list(bitcoin_names)
    return NegativeControl(
        pattern=pattern,
        router_matches=sum(1 for name in routers if regex.match(name)),
        router_names=len(routers),
        bitcoin_matches=sum(1 for name in bitcoins if regex.match(name)),
        bitcoin_names=len(bitcoins),
    )


def distinct_pattern_count(
    internet: SimulatedInternet, addresses: Sequence[int]
) -> int:
    """Number of distinct rDNS signatures in a sample of addresses (the
    Figure 12 representativeness metric)."""
    return len(
        {
            signature_of(name)
            for name in (
                internet.rdns_lookup(addr) for addr in addresses
            )
            if name is not None
        }
    )
