"""Tests for the ZMap scan, ping and probe sessions."""

import pytest

from repro.core.selection import meets_selection_criteria, slash26_groups
from repro.net import Prefix
from repro.probing import (
    ActivitySnapshot,
    ProbeBudgetExceeded,
    Prober,
    ping,
    scan,
    scan_with_probes,
)


class TestScan:
    def test_snapshot_covers_universe(self, internet):
        snapshot = scan(internet)
        assert snapshot.epoch == internet.config.snapshot_epoch
        assert snapshot.slash24_count > 0
        assert snapshot.total_active > 0

    def test_active_lists_sorted(self, internet):
        snapshot = scan(internet)
        for slash24 in internet.universe_slash24s[:10]:
            active = snapshot.active_in(slash24)
            assert active == sorted(active)

    def test_is_active(self, internet):
        snapshot = scan(internet)
        slash24 = next(
            p for p in internet.universe_slash24s if snapshot.active_in(p)
        )
        addr = snapshot.active_in(slash24)[0]
        assert snapshot.is_active(addr)
        assert not snapshot.is_active(0xC6000001)

    def test_slash26_groups(self, internet):
        snapshot = scan(internet)
        eligible = snapshot.eligible_slash24s()
        assert eligible
        for slash24 in eligible:
            assert len(slash26_groups(snapshot.active_in(slash24))) == 4

    def test_eligibility_criteria(self, internet):
        """Eligibility is exactly Section 3.3's criteria, over every /24
        the scan saw, in address order."""
        snapshot = scan(internet)
        expected = [
            Prefix(network, 24)
            for network in sorted(snapshot.active_by_slash24)
            if meets_selection_criteria(
                snapshot.active_by_slash24[network]
            )
        ]
        eligible = snapshot.eligible_slash24s()
        assert eligible == expected
        # Both sides of the criteria occur in the scenario.
        assert 0 < len(eligible) < snapshot.slash24_count

    def test_eligibility_needs_every_slash26(self):
        base = 0x0A000000
        snapshot = ActivitySnapshot(
            epoch=0,
            active_by_slash24={
                base: [base + 1, base + 65, base + 129, base + 193],
                # Five active addresses, but the top /26 is empty.
                base + 256: [base + 256 + i for i in (1, 2, 65, 129, 130)],
            },
        )
        assert snapshot.eligible_slash24s() == [Prefix(base, 24)]
        assert snapshot.eligible_slash24s(min_active=5) == []

    def test_scan_restricted_slash24s(self, internet):
        some = internet.universe_slash24s[:3]
        snapshot = scan(internet, slash24s=some)
        assert snapshot.slash24_count <= 3

    def test_probe_scan_approximates_fast_scan(self, internet):
        slash24 = internet.universe_slash24s[0]
        prober = Prober(internet)
        probed = scan_with_probes(prober, [slash24], retries=3)
        epoch = probed.epoch
        oracle = set(internet.active_addresses_in_slash24(slash24, epoch))
        found = set(probed.active_in(slash24))
        # Retransmissions make misses vanishingly rare; allow a couple.
        assert len(oracle.symmetric_difference(found)) <= max(
            2, len(oracle) // 20
        )


class TestPing:
    def _responsive(self, internet):
        for slash24 in internet.universe_slash24s:
            for addr in internet.active_addresses_in_slash24(slash24):
                if internet.is_host_up(addr):
                    return addr
        pytest.fail("no responsive host")

    def test_ping_counts(self, internet):
        prober = Prober(internet)
        addr = self._responsive(internet)
        result = ping(prober, addr, count=10)
        assert len(result.rtts_ms) == 10
        assert result.successes

    def test_loss_rate(self, internet):
        prober = Prober(internet)
        result = ping(prober, 0xC6000001, count=5)
        assert result.loss_rate == 1.0
        assert result.first_minus_max_rest_seconds() is None

    def test_first_minus_rest(self, internet):
        prober = Prober(internet)
        addr = self._responsive(internet)
        result = ping(prober, addr, count=10)
        diff = result.first_minus_max_rest_seconds()
        if diff is not None:
            assert -5.0 < diff < 5.0


class TestProber:
    def test_budget_enforced(self, internet):
        prober = Prober(internet, max_probes=3)
        for _ in range(3):
            prober.probe(0xC6000001, 64)
        with pytest.raises(ProbeBudgetExceeded):
            prober.probe(0xC6000001, 64)

    def test_stats_accounting(self, internet):
        prober = Prober(internet)
        prober.probe(0xC6000001, 64)  # timeout
        assert prober.stats.sent == 1
        assert prober.stats.timeouts == 1
        assert prober.stats.loss_rate == 1.0

    def test_echo_with_retries(self, internet):
        prober = Prober(internet)
        assert prober.echo_with_retries(0xC6000001, retries=2) is None
        assert prober.stats.sent == 3
