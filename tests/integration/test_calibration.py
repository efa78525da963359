"""Integration: the simulator's observable phenomena sit in the bands
the paper measured (loose bands — the point is shape, not digits).

These run on the tiny scenario with small samples, so bands are wide;
EXPERIMENTS.md records the tighter small/paper-profile numbers.
"""

import random

import pytest

from repro.analysis.pathmetrics import lasthop_of_route
from repro.core import one_per_slash26, slash31_pair
from repro.core.pipeline import enumerate_paths
from repro.probing import Prober, route_sets_share_route


@pytest.fixture(scope="module")
def probed_sample():
    """Route sets for a /26 spread and a /31 pair over sample /24s."""
    from repro.netsim import SimulatedInternet, tiny_scenario
    from repro.probing import scan

    internet = SimulatedInternet.from_config(tiny_scenario(seed=7))
    snapshot = scan(internet)
    rng = random.Random(3)
    prober = Prober(internet)
    eligible = snapshot.eligible_slash24s()[:160]

    quads = []
    pairs = []
    for slash24 in eligible:
        active = snapshot.active_in(slash24)
        quad_sets = []
        for dst in one_per_slash26(active, rng):
            mp = enumerate_paths(prober, dst, flow_seed=dst & 0xFFF)
            if mp.reached and mp.routes:
                quad_sets.append(frozenset(mp.routes))
        if len(quad_sets) >= 4:
            quads.append(quad_sets)
        pair = slash31_pair(active)
        if pair:
            pair_sets = []
            for dst in pair:
                mp = enumerate_paths(prober, dst, flow_seed=dst & 0xFFF)
                if mp.reached and mp.routes:
                    pair_sets.append(frozenset(mp.routes))
            if len(pair_sets) == 2:
                pairs.append(pair_sets)
    return quads, pairs


class TestStrawManHeterogeneity:
    def test_most_slash24s_look_heterogeneous(self, probed_sample):
        """Section 2.1: ~88% heterogeneous under route comparison."""
        quads, _pairs = probed_sample
        assert len(quads) >= 20
        heterogeneous = 0
        for quad in quads:
            share_all = all(
                route_sets_share_route(a, b)
                for i, a in enumerate(quad)
                for b in quad[i + 1:]
            )
            if not share_all:
                heterogeneous += 1
        assert heterogeneous / len(quads) > 0.4


class TestPerDestinationPrevalence:
    def test_slash31_distinct_routes(self, probed_sample):
        """Section 2.2: ~77% of /31 pairs have distinct route sets."""
        _quads, pairs = probed_sample
        assert len(pairs) >= 20
        distinct = sum(
            1
            for a, b in pairs
            if not route_sets_share_route(a, b)
        )
        assert 0.3 < distinct / len(pairs) <= 1.0

    def test_slash31_distinct_lasthops(self, probed_sample):
        """Section 2.3: ~30% of /31 pairs differ in last-hop routers."""
        _quads, pairs = probed_sample
        distinct = 0
        comparable = 0
        for a, b in pairs:
            lasthops_a = {lasthop_of_route(r) for r in a} - {None}
            lasthops_b = {lasthop_of_route(r) for r in b} - {None}
            if not lasthops_a or not lasthops_b:
                continue
            comparable += 1
            if lasthops_a != lasthops_b:
                distinct += 1
        assert comparable >= 15
        assert 0.1 < distinct / comparable < 0.75
