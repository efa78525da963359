"""Failure-injection tests: extreme scenario knobs must degrade the
pipeline gracefully, not break it.

Campaigns run on the compiled engine by default; ``TestProberPath``
reruns every campaign case with each /24 measured by the reference
object classifier (installed by ``tests/oracle.py``), and the
per-destination cases call that reference's ``identify_lasthops``
directly.
"""

import dataclasses

import pytest

from repro.core import Category, TerminationPolicy, run_campaign
from repro.core.fastengine import fast_engine_for
from repro.netsim import (
    EventConfig,
    ScenarioConfig,
    SimulatedInternet,
)
from repro.netsim.config import OrgSpec
from repro.netsim.orgs import OrgType
from repro.probing import Prober, scan
from tests import oracle
from tests.oracle import identify_lasthops, paris_traceroute


def _one_org_config(**org_overrides) -> ScenarioConfig:
    org = OrgSpec(
        name="FaultyNet",
        asn=65100,
        country="US",
        city="denver",
        org_type=OrgType.BROADBAND,
        num_slash24s=24,
        host_density_range=(0.3, 0.5),
        unresponsive_lasthop_fraction=0.0,
        split24_fraction=0.0,
    )
    org = dataclasses.replace(org, **org_overrides)
    return ScenarioConfig(seed=3, orgs=(org,))


class TestAllLasthopsSilent:
    def test_everything_unresponsive_lasthop(self):
        config = _one_org_config(unresponsive_lasthop_fraction=1.0)
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        campaign = run_campaign(
            internet, TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:10],
            snapshot=snapshot, seed=1, max_destinations_per_slash24=16,
        )
        counts = campaign.category_counts()
        assert counts[Category.SAME_LASTHOP] == 0
        assert counts[Category.NON_HIERARCHICAL] == 0
        assert (
            counts[Category.UNRESPONSIVE_LASTHOP]
            + counts[Category.TOO_FEW_ACTIVE]
            == campaign.total
        )


class TestNoHosts:
    def test_zero_density_yields_empty_snapshot(self):
        config = _one_org_config(host_density_range=(0.0, 0.0))
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        assert snapshot.total_active == 0
        assert snapshot.eligible_slash24s() == []


class TestTotalBlackout:
    def test_full_sleep_probability(self):
        config = dataclasses.replace(
            _one_org_config(), block_sleep_probability=1.0
        )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        # With every block asleep every epoch, only sleep survivors
        # answer; eligibility should collapse almost entirely.
        assert snapshot.total_active < 24 * 256 * 0.05


class TestLossless:
    def test_no_loss_no_rate_limit_clean_traceroutes(self):
        config = dataclasses.replace(
            _one_org_config(),
            router_loss_probability=0.0,
            host_loss_probability=0.0,
            lasthop_rate_limit=None,
            infra_rate_limit=None,
            block_sleep_probability=0.0,
        )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        prober = Prober(internet)
        slash24 = snapshot.eligible_slash24s()[0]
        dst = snapshot.active_in(slash24)[0]
        result = paris_traceroute(prober, dst, flow_id=1, retries=0)
        assert result.reached
        assert all(hop.address is not None for hop in result.hops)

    def test_lossless_lasthop_identification_always_usable(self):
        config = dataclasses.replace(
            _one_org_config(),
            router_loss_probability=0.0,
            host_loss_probability=0.0,
            lasthop_rate_limit=None,
            infra_rate_limit=None,
            block_sleep_probability=0.0,
            custom_ttl_probability=0.0,
        )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        prober = Prober(internet)
        slash24 = snapshot.eligible_slash24s()[0]
        for dst in snapshot.active_in(slash24)[:6]:
            if not internet.is_host_up(dst, epoch=0):
                continue
            result = identify_lasthops(prober, dst)
            assert result.host_responsive
            assert result.usable


class TestHeavyRateLimiting:
    def test_tight_lasthop_budget_starves_identification(self):
        config = dataclasses.replace(
            _one_org_config(), lasthop_rate_limit=(1.0, 0.01)
        )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        prober = Prober(internet)
        slash24 = snapshot.eligible_slash24s()[0]
        unresponsive = 0
        for dst in snapshot.active_in(slash24)[:8]:
            result = identify_lasthops(prober, dst)
            if result.host_responsive and not result.lasthops:
                unresponsive += 1
        # After the single token per bucket is spent, last-hop replies
        # dry up for most destinations.
        assert unresponsive >= 4


class TestExtremeScale:
    def test_minimal_org(self):
        config = _one_org_config(num_slash24s=1)
        internet = SimulatedInternet.from_config(config)
        assert len(internet.universe_slash24s) >= 1

    def test_custom_ttls_everywhere_still_measurable(self):
        config = dataclasses.replace(
            _one_org_config(), custom_ttl_probability=1.0
        )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        prober = Prober(internet)
        slash24 = snapshot.eligible_slash24s()[0]
        usable = 0
        for dst in snapshot.active_in(slash24)[:8]:
            result = identify_lasthops(prober, dst)
            usable += result.usable
        # The halving fallback keeps identification working even when
        # every host uses an uncommon default TTL.
        assert usable >= 4


# -- dynamic-internet stressors (repro.netsim.events) -------------------------


def _events_config(events, **org_overrides):
    return dataclasses.replace(
        _one_org_config(**org_overrides), events=events
    )


class TestRenumberingWave:
    def test_full_wave_campaign_completes(self):
        config = _events_config(EventConfig(renumber_fraction=1.0))
        internet = SimulatedInternet.from_config(config)
        assert internet.events is not None
        snapshot = scan(internet)
        campaign = run_campaign(
            internet, TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:10],
            snapshot=snapshot, seed=1, max_destinations_per_slash24=16,
        )
        assert campaign.total == 10
        assert internet.events.summary()["renumber_pods"] > 0

    def test_wave_changes_outcomes_vs_static(self):
        """The wave must actually bite: the stressed world's snapshot or
        campaign outcomes differ from the static world's."""
        static = SimulatedInternet.from_config(_one_org_config())
        waved = SimulatedInternet.from_config(
            _events_config(EventConfig(renumber_fraction=1.0))
        )
        static_snap, waved_snap = scan(static), scan(waved)
        static_run = run_campaign(
            static, TerminationPolicy(),
            slash24s=static_snap.eligible_slash24s()[:10],
            snapshot=static_snap, seed=1, max_destinations_per_slash24=16,
        )
        waved_run = run_campaign(
            waved, TerminationPolicy(),
            slash24s=waved_snap.eligible_slash24s()[:10],
            snapshot=waved_snap, seed=1, max_destinations_per_slash24=16,
        )
        assert (
            static_run.category_counts() != waved_run.category_counts()
            or static_snap.total_active != waved_snap.total_active
            or waved.events.counters["renumber"] > 0
        )


class TestTotalOutage:
    def test_permanent_outage_degrades_gracefully(self):
        """outage_duty=1.0 keeps selected pods dark for every probe:
        the snapshot collapses instead of the campaign crashing."""
        config = _events_config(
            EventConfig(outage_fraction=1.0, outage_duty=1.0)
        )
        internet = SimulatedInternet.from_config(config)
        snapshot = scan(internet)
        campaign = run_campaign(
            internet, TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:10],
            snapshot=snapshot, seed=1, max_destinations_per_slash24=16,
        )
        assert campaign.total <= 10  # possibly zero eligible: still fine
        counts = campaign.category_counts()
        assert counts[Category.SAME_LASTHOP] + counts[
            Category.NON_HIERARCHICAL
        ] + counts[Category.HIERARCHICAL] <= campaign.total


class TestProberPath(
    TestAllLasthopsSilent, TestRenumberingWave, TestTotalOutage
):
    """The campaign cases above, measured on the object Prober."""

    @pytest.fixture(autouse=True)
    def _prober_campaign(self, monkeypatch):
        oracle.install(monkeypatch, oracle.PROBER_CAMPAIGN)


def _mirror_train(internet, dst, train):
    """Send ``(ttl, flow)`` probes towards ``dst`` through one probe
    mirror of the compiled engine; returns its replies (None, -1 for an
    echo reply, or the router address) once it has committed."""
    engine = fast_engine_for(internet)
    prog = engine._program_for(dst, internet.vantage_address)
    send, _, finish = engine._probe_mirror()
    replies = [send(prog, ttl, flow) for ttl, flow in train]
    finish()
    return replies


class TestRateLimitStorm:
    """Satellite check: every probe path registers storm-scaled limiters
    identically, so a context reset restores them and paths agree."""

    def _storm_config(self):
        return dataclasses.replace(
            _events_config(EventConfig(storm_duty=1.0, storm_factor=0.02)),
            lasthop_rate_limit=(4.0, 2.0),
        )

    def test_batched_replies_bitwise_equal_serial_under_storm(self):
        """A batch of probes through one engine mirror answers as the
        reference does probe by probe, and leaves the same buckets."""
        serial_net = SimulatedInternet.from_config(self._storm_config())
        batch_net = SimulatedInternet.from_config(self._storm_config())
        dsts = [
            s24.network | 9 for s24 in serial_net.universe_slash24s[:16]
        ] * 4  # repeats so buckets run dry mid-run
        engine = fast_engine_for(batch_net)
        src = batch_net.vantage_address
        for ttl in (1, 2, 3):
            serial = []
            serial_net.begin_measurement_context(0.0, 1000 + ttl)
            batch_net.begin_measurement_context(0.0, 1000 + ttl)
            for dst in dsts:
                reply = oracle.send_probe(serial_net, dst, ttl, 0)
                serial.append(None if reply is None else reply.source)
            send, _, finish = engine._probe_mirror()
            batch = [
                send(engine._program_for(dst, src), ttl, 0) for dst in dsts
            ]
            finish()
            assert batch == serial
            assert any(reply is None for reply in batch)
            assert serial_net.clock_seconds == batch_net.clock_seconds
            assert [
                (router.rate_limiter._tokens, router.rate_limiter._last_time)
                for router in serial_net.topology
                if router.rate_limiter is not None
            ] == [
                (router.rate_limiter._tokens, router.rate_limiter._last_time)
                for router in batch_net.topology
                if router.rate_limiter is not None
            ]
        assert serial_net.events.counters == batch_net.events.counters

    def test_denied_probes_still_register_limiters(self):
        """A storm-denied reply must leave its limiter in the touched
        set — otherwise the next context would inherit a drained
        bucket and break /24 order-independence. The TTL sweep
        guarantees we cross the rate-limited last-hop router wherever
        it sits on this path."""
        internet = SimulatedInternet.from_config(self._storm_config())
        internet.begin_measurement_context(0.0, 7)
        dst = internet.universe_slash24s[0].network | 9
        train = [(ttl, 0) for ttl in range(1, 9) for _ in range(4)]
        replies = _mirror_train(internet, dst, train)
        assert internet.events.counters["storm"] > 0
        assert any(reply is None for reply in replies)  # storm denied some
        assert internet._touched_limiters
        # Context reset restores the bucket: the same probe train
        # replays identically.
        internet.begin_measurement_context(0.0, 7)
        assert _mirror_train(internet, dst, train) == replies

    def test_storm_counter_fires(self):
        internet = SimulatedInternet.from_config(self._storm_config())
        dst = internet.universe_slash24s[0].network | 9
        _mirror_train(internet, dst, [(ttl, 0) for ttl in range(1, 9)])
        assert internet.events.counters["storm"] > 0
