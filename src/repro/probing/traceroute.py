"""Routes and route comparison.

Classic traceroute changes header fields from probe to probe, so
per-flow load balancers scatter its probes across branches and the
reported "path" can be a chimera of several real paths (Augustin et
al., IMC 2006). Paris traceroute keeps the flow-affecting fields
constant, so every probe of one trace follows one real path; the path
dataset traces that way on the compiled engine
(:func:`repro.core.pipeline.enumerate_paths`).

Routes are compared as hop-address tuples; unresponsive hops are ``None``
and, per Section 2.1, may be treated as wildcards that match anything.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

DEFAULT_MAX_TTL = 32

#: A route signature: one entry per hop, None for an unresponsive hop.
Route = Tuple[Optional[int], ...]


# -- route comparison (Section 2.1) ----------------------------------------


def routes_equal(a: Route, b: Route, wildcards: bool = True) -> bool:
    """Hop-by-hop route equality.

    With ``wildcards``, an unresponsive hop matches anything (the
    paper's fix for ICMP rate limiting): <A, *, C> equals <A, B, C>.
    """
    if len(a) != len(b):
        return False
    for hop_a, hop_b in zip(a, b):
        if hop_a is None or hop_b is None:
            if not wildcards:
                if hop_a is not hop_b:
                    return False
            continue
        if hop_a != hop_b:
            return False
    return True


def route_sets_share_route(
    set_a: Iterable[Route], set_b: Iterable[Route], wildcards: bool = True
) -> bool:
    """True if any route in one set matches any route in the other —
    the paper's generous "identical routes" criterion (Section 2.1)."""
    list_b = list(set_b)
    return any(
        routes_equal(route_a, route_b, wildcards)
        for route_a in set_a
        for route_b in list_b
    )
