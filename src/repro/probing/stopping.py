"""MDA stopping rule: how many probes rule out unseen next hops.

Paris traceroute MDA (Augustin et al., E2EMON 2007) sends probes with
varied flow identifiers and stops once enough have returned through the
already-discovered interfaces: having observed ``k`` interfaces, it
sends ``N(k + 1)`` probes in total, where

    N(j) = ceil( ln(alpha / j) / ln((j - 1) / j) )

guarantees that, if ``j`` equally-loaded next hops existed, at least one
unseen hop would have appeared with probability ``1 - alpha``. For the
conventional 95% level this yields the published table
N(2)=6, N(3)=11, N(4)=16, N(5)=21, ... — the paper's Section 3.5 quotes
exactly the N(2)=6 entry ("a router has a single nexthop interface at
the probability of 95% if 6 probes are responded by a single nexthop").

Hobbit reuses the same rule with *last-hop routers* in place of
next-hop interfaces (Section 3.5) and, for cluster validation, with the
"enumerate all interfaces" variant (Section 6.5).
"""

from __future__ import annotations

import math
from functools import lru_cache

DEFAULT_CONFIDENCE = 0.95


@lru_cache(maxsize=None)
def probes_to_rule_out(hypothesis: int, confidence: float = DEFAULT_CONFIDENCE) -> int:
    """N(j): total probes needed to reject the hypothesis of ``j``
    equally-balanced next hops when only ``j - 1`` have been seen."""
    if hypothesis < 2:
        raise ValueError("hypothesis must be at least 2 next hops")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    numerator = math.log(alpha / hypothesis)
    denominator = math.log((hypothesis - 1) / hypothesis)
    return math.ceil(numerator / denominator)


def probes_required(observed: int, confidence: float = DEFAULT_CONFIDENCE) -> int:
    """Total probes required once ``observed`` distinct interfaces (or
    last-hop routers, or paths) have been seen."""
    if observed < 0:
        raise ValueError("observed count cannot be negative")
    return probes_to_rule_out(max(observed, 1) + 1, confidence)
