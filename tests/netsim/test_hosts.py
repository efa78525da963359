"""Tests for repro.netsim.hosts — scalar/vector agreement and the
availability model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import hosts

SEED = 0xDEAD
addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestExistence:
    def test_density_zero(self):
        assert not any(hosts.host_exists(SEED, a, 0.0) for a in range(500))

    def test_density_one(self):
        assert all(hosts.host_exists(SEED, a, 1.0) for a in range(500))

    def test_density_rate(self):
        count = sum(hosts.host_exists(SEED, a, 0.3) for a in range(8000))
        assert 0.27 < count / 8000 < 0.33

    def test_deterministic(self):
        assert hosts.host_exists(SEED, 42, 0.5) == hosts.host_exists(
            SEED, 42, 0.5
        )


class TestAvailability:
    def test_stable_host_always_up(self):
        ups = [
            hosts.host_up_in_epoch(SEED, a, e, 1.0, 1.0, 0.0)
            for a in range(50)
            for e in range(-2, 3)
        ]
        assert all(ups)

    def test_nonexistent_never_up(self):
        assert not any(
            hosts.host_up_in_epoch(SEED, a, 0, 0.0, 1.0) for a in range(50)
        )

    def test_flappy_hosts_churn_across_epochs(self):
        # stability 0 → every existing host flaps.
        flips = 0
        for a in range(2000):
            if not hosts.host_exists(SEED, a, 1.0):
                continue
            e0 = hosts.host_up_in_epoch(SEED, a, 0, 1.0, 0.0, 0.0)
            e1 = hosts.host_up_in_epoch(SEED, a, 1, 1.0, 0.0, 0.0)
            flips += e0 != e1
        assert flips > 400  # ~50% expected

    def test_block_sleep_affects_whole_slash24(self):
        # Find an asleep /24 and confirm survivors are rare.
        base = 0x0A000000
        for index in range(64):
            network = base + index * 256
            if hosts.block_asleep(SEED, network, 3, 0.5):
                up = sum(
                    hosts.host_up_in_epoch(
                        SEED, network + o, 3, 1.0, 1.0, 0.5
                    )
                    for o in range(256)
                )
                assert up < 0.4 * 256
                return
        pytest.fail("no asleep block found at 50% sleep probability")

    def test_sleep_probability_zero_disables(self):
        assert not hosts.block_asleep(SEED, 0x0A000000, 0, 0.0)


class TestVectorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=-3, max_value=3),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_scalar_matches_vector(self, block, epoch, density, stability,
                                   sleep):
        first = block << 8
        addrs = np.arange(first, first + 64, dtype=np.uint64)
        vector = hosts.hosts_up_in_epoch_np(
            SEED, addrs, epoch, density, stability, sleep
        )
        scalar = [
            hosts.host_up_in_epoch(
                SEED, int(a), epoch, density, stability, sleep
            )
            for a in addrs
        ]
        assert vector.tolist() == scalar


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=-3, max_value=3),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=40),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 0.22, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_per_address_parameters_match_segments(
        self, block, epoch, segments
    ):
        """Per-address arrays of pod parameters give, segment by
        segment, what one scalar-parameter call per segment gives."""
        sizes = [size for size, _, _, _ in segments]
        addrs = (block << 8) + np.arange(sum(sizes), dtype=np.uint64)

        def per_address(column):
            return np.repeat(
                np.array([segment[column] for segment in segments]), sizes
            )

        vector = hosts.hosts_up_in_epoch_np(
            SEED, addrs, epoch, per_address(1), per_address(2),
            per_address(3),
        )
        expected = []
        start = 0
        for size, density, stability, sleep in segments:
            expected.extend(
                hosts.hosts_up_in_epoch_np(
                    SEED, addrs[start:start + size], epoch, density,
                    stability, sleep,
                ).tolist()
            )
            start += size
        assert vector.tolist() == expected


class TestAttributes:
    def test_default_ttl_values_common(self):
        weights = ((64, 0.6), (128, 0.35), (255, 0.05))
        values = {
            hosts.default_ttl(SEED, a, weights, 0.0) for a in range(2000)
        }
        assert values == {64, 128, 255}

    def test_default_ttl_distribution(self):
        weights = ((64, 0.6), (128, 0.35), (255, 0.05))
        sample = [hosts.default_ttl(SEED, a, weights, 0.0) for a in range(5000)]
        share_64 = sample.count(64) / len(sample)
        assert 0.55 < share_64 < 0.65

    def test_custom_ttl(self):
        weights = ((64, 1.0),)
        values = {
            hosts.default_ttl(SEED, a, weights, 1.0) for a in range(500)
        }
        assert values <= {30, 60, 100, 200}

    def test_reverse_delta_distribution(self):
        weights = ((0, 0.8), (1, 0.2))
        sample = [
            hosts.reverse_path_delta(SEED, a, weights) for a in range(5000)
        ]
        zero_share = sample.count(0) / len(sample)
        assert 0.75 < zero_share < 0.85
        assert set(sample) == {0, 1}

    def test_promotion_delay_in_range(self):
        for a in range(200):
            delay = hosts.promotion_delay_seconds(SEED, a, 0.25, 2.5)
            assert 0.25 <= delay <= 2.5

    def test_promotion_delay_varies(self):
        delays = {hosts.promotion_delay_seconds(SEED, a, 0.0, 1.0)
                  for a in range(50)}
        assert len(delays) > 30
