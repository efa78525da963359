"""Tests for repro.netsim.icmp."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim import infer_default_ttl, infer_hop_count
from repro.netsim.icmp import RateLimiter
from tests.oracle import stochastic_loss


class TestTtlInference:
    @pytest.mark.parametrize(
        "observed,expected",
        [(0, 64), (63, 64), (64, 128), (127, 128), (128, 192), (191, 192),
         (192, 255), (255, 255)],
    )
    def test_bucketing(self, observed, expected):
        assert infer_default_ttl(observed) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            infer_default_ttl(256)
        with pytest.raises(ValueError):
            infer_default_ttl(-1)

    def test_hop_count_symmetric_path(self):
        # Host default 64, 7 routers on the reverse path.
        assert infer_hop_count(64 - 7) == 7

    @given(st.integers(min_value=0, max_value=255))
    def test_hop_count_non_negative(self, observed):
        assert infer_hop_count(observed) >= 0

    def test_hop_count_windows_host(self):
        # Default 128, 12 hops back.
        assert infer_hop_count(128 - 12) == 12


class TestRateLimiter:
    def test_allows_within_capacity(self):
        limiter = RateLimiter(capacity=3, rate_per_second=1)
        assert [limiter.allow(0.0) for _ in range(3)] == [True] * 3

    def test_blocks_when_exhausted(self):
        limiter = RateLimiter(capacity=2, rate_per_second=1)
        limiter.allow(0.0)
        limiter.allow(0.0)
        assert not limiter.allow(0.0)

    def test_refills_over_time(self):
        limiter = RateLimiter(capacity=1, rate_per_second=2)
        assert limiter.allow(0.0)
        assert not limiter.allow(0.0)
        assert limiter.allow(1.0)  # 2 tokens/s * 1s refill

    def test_refill_caps_at_capacity(self):
        limiter = RateLimiter(capacity=2, rate_per_second=100)
        limiter.allow(0.0)
        # Long idle: bucket holds at most `capacity` tokens.
        assert limiter.allow(100.0)
        assert limiter.allow(100.0)
        assert not limiter.allow(100.0)

    def test_reset(self):
        limiter = RateLimiter(capacity=1, rate_per_second=0.001)
        limiter.allow(0.0)
        limiter.reset()
        assert limiter.allow(0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(0, 1)
        with pytest.raises(ValueError):
            RateLimiter(1, 0)

    def test_time_moving_backwards_does_not_refill(self):
        limiter = RateLimiter(capacity=1, rate_per_second=1)
        assert limiter.allow(10.0)
        assert not limiter.allow(5.0)


class TestStochasticLoss:
    def test_zero_probability_never_loses(self):
        assert not any(stochastic_loss(1, n, 0.0) for n in range(100))

    def test_one_probability_always_loses(self):
        assert all(stochastic_loss(1, n, 1.0) for n in range(100))

    def test_rate_approximates_probability(self):
        losses = sum(stochastic_loss(5, n, 0.2) for n in range(5000))
        assert 0.17 < losses / 5000 < 0.23

    def test_deterministic(self):
        assert stochastic_loss(1, 7, 0.5) == stochastic_loss(1, 7, 0.5)
