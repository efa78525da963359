"""Cardinality of a /24 under different route metrics (Section 3.1).

Hobbit's hierarchy test can run on entire traceroutes, on sub-paths, or
on last-hop routers. The number of distinct values — the *cardinality* —
drives the false-hierarchy probability, and shrinks as the metric uses
less of the path (Figure 3b): multiple load balancers multiply
entire-path diversity, while last-hop sets stay small.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..probing.traceroute import Route

#: Per-destination route sets, as produced by MDA path enumeration.
RouteSets = Mapping[int, FrozenSet[Route]]


def all_routes(route_sets: RouteSets) -> Set[Route]:
    routes: Set[Route] = set()
    for dst_routes in route_sets.values():
        routes.update(dst_routes)
    return routes


def traceroute_cardinality(route_sets: RouteSets) -> int:
    """Number of distinct entire routes across the /24."""
    return len(all_routes(route_sets))


def lasthop_of_route(route: Route) -> Optional[int]:
    """Final hop entry of a route (None if it did not respond)."""
    return route[-1] if route else None


def lasthop_cardinality(route_sets: RouteSets) -> int:
    """Number of distinct (responsive) last-hop routers."""
    lasthops = {
        lasthop_of_route(route)
        for route in all_routes(route_sets)
    }
    lasthops.discard(None)
    return len(lasthops)


def common_router_depth(routes: Set[Route]) -> Optional[int]:
    """Deepest hop index at which *every* route has the same responsive
    router — the router "common to all the destinations and closest to
    the /24"."""
    if not routes:
        return None
    min_len = min(len(route) for route in routes)
    best: Optional[int] = None
    for depth in range(min_len):
        addresses = {route[depth] for route in routes}
        if len(addresses) == 1 and None not in addresses:
            best = depth
    return best


def subpath_cardinality(route_sets: RouteSets) -> int:
    """Number of distinct sub-paths: route suffixes starting at the
    deepest common router (whole routes if none exists)."""
    routes = all_routes(route_sets)
    depth = common_router_depth(routes)
    if depth is None:
        return len(routes)
    return len({route[depth:] for route in routes})


def per_destination_lasthops(route_sets: RouteSets) -> Dict[int, FrozenSet[int]]:
    """Destination → responsive last-hop routers, the observation form
    Hobbit's grouping consumes."""
    observations: Dict[int, FrozenSet[int]] = {}
    for dst, routes in route_sets.items():
        lasthops = {
            lasthop_of_route(route) for route in routes
        }
        lasthops.discard(None)
        observations[dst] = frozenset(lasthops)
    return observations


def per_destination_route_values(route_sets: RouteSets) -> Dict[int, Tuple[Route, ...]]:
    """Destination → canonicalised route-set signature (for grouping by
    the entire-traceroute metric)."""
    return {
        dst: tuple(sorted(routes, key=_route_sort_key))
        for dst, routes in route_sets.items()
    }


def _route_sort_key(route: Route):
    return tuple(-1 if hop is None else hop for hop in route)


def links_of_route(route: Route) -> Set[Tuple[int, int]]:
    """IP-level links (responsive consecutive hop pairs) of one route —
    the unit Figure 11's discovered-links ratio counts."""
    links: Set[Tuple[int, int]] = set()
    for left, right in zip(route, route[1:]):
        if left is not None and right is not None:
            links.add((left, right))
    return links

