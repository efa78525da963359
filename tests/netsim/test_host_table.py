"""The compiled engine's host table against the scalar host functions.

The table holds, per snapshot address, what the scalar
``repro.netsim.hosts`` functions draw from the address alone: the
default TTL, the reverse-path delta and the exists, stable and
sleep-survivor draws (as flags). ``host_up_from_flags`` completes the
flags with the epoch's draws. Both must equal the scalar functions bit
for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fastengine import HostTable
from repro.netsim import SimulatedInternet, hosts, tiny_scenario
from repro.probing import scan

seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)
addresses = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    min_size=1, max_size=64,
)
weights = st.floats(min_value=0.0, max_value=1.0)
#: Weight lists whose running sum may end below 1.0, so that a roll
#: above it takes the last value as the fallback.
ttl_weights = st.lists(
    st.tuples(st.integers(min_value=1, max_value=255), weights),
    min_size=1, max_size=4,
)
delta_weights = st.lists(
    st.tuples(st.integers(min_value=-4, max_value=4), weights),
    min_size=1, max_size=5,
)
custom_probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)

EDGES = [0, 1, 255, 256, 0xFFFFFF00, 0xFFFFFFFF]
SHORT_TTLS = [(64, 0.25), (128, 0.25)]  # sums to 0.5
SHORT_DELTAS = [(0, 0.3), (-1, 0.1), (2, 0.1)]  # sums to 0.5


class TestConstants:
    @settings(max_examples=80, deadline=None)
    @given(seeds, addresses, ttl_weights, custom_probabilities)
    @example(0xDEAD, EDGES, SHORT_TTLS, 0.0)
    @example(0xDEAD, EDGES, SHORT_TTLS, 1.0)
    @example(0, EDGES, [(64, 0.6), (128, 0.35), (255, 0.05)], 0.01)
    def test_default_ttls_match_scalar(self, seed, addrs, weights, custom):
        vector = hosts.default_ttls_np(
            seed, np.array(addrs, dtype=np.uint64), weights, custom
        )
        assert vector.tolist() == [
            hosts.default_ttl(seed, addr, weights, custom) for addr in addrs
        ]

    @settings(max_examples=80, deadline=None)
    @given(seeds, addresses, delta_weights)
    @example(0xDEAD, EDGES, SHORT_DELTAS)
    def test_reverse_path_deltas_match_scalar(self, seed, addrs, weights):
        vector = hosts.reverse_path_deltas_np(
            seed, np.array(addrs, dtype=np.uint64), weights
        )
        assert vector.tolist() == [
            hosts.reverse_path_delta(seed, addr, weights) for addr in addrs
        ]

    def test_short_weights_fall_back_to_the_last_value(self):
        """With weights summing to 0.5, about half the rolls pass every
        running sum and take the last value."""
        addrs = np.arange(4000, dtype=np.uint64)
        ttls = hosts.default_ttls_np(0xDEAD, addrs, SHORT_TTLS, 0.0)
        deltas = hosts.reverse_path_deltas_np(0xDEAD, addrs, SHORT_DELTAS)
        assert 0.70 < np.mean(ttls == 128) < 0.80
        assert 0.55 < np.mean(deltas == 2) < 0.65


class TestAvailability:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds,
        st.sampled_from([0, 1, 0xABCDE, (1 << 24) - 1]),
        st.lists(st.integers(min_value=-4, max_value=40), min_size=1,
                 max_size=4),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=96),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 0.28, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @example(0xDEAD, 0, [0, 1], [(256, 1.0, 0.0, 0.0)])
    @example(
        0xDEAD, (1 << 24) - 1, [0, 7],
        [(64, 0.9, 0.2, 0.0), (64, 0.3, 0.9, 1.0), (128, 1.0, 0.5, 0.5)],
    )
    def test_flags_complete_to_host_up_in_epoch(
        self, seed, block, epochs, segments
    ):
        """One /24 split across pods with their own density, stability
        and sleep probability: each address's flags, drawn with its
        pod's density and stability, give :func:`host_up_in_epoch` in
        every epoch, and one block-sleep cache serves every pod of the
        /24."""
        sizes = [size for size, _, _, _ in segments]
        count = min(sum(sizes), 256)
        addrs = (block << 8) + np.arange(count, dtype=np.uint64)
        pods = [
            segment for segment in segments for _ in range(segment[0])
        ][:count]
        flags = hosts.host_flags_np(
            seed, addrs,
            np.array([pod[1] for pod in pods]),
            np.array([pod[2] for pod in pods]),
        )
        sleep_draws = {}
        for epoch in epochs:
            got = [
                hosts.host_up_from_flags(
                    seed, addr, epoch, flag, pod[3], sleep_draws
                )
                for addr, flag, pod in zip(
                    addrs.tolist(), flags.tolist(), pods
                )
            ]
            assert got == [
                hosts.host_up_in_epoch(
                    seed, addr, epoch, pod[1], pod[2], pod[3]
                )
                for addr, pod in zip(addrs.tolist(), pods)
            ]
        assert len(sleep_draws) <= len(epochs)

    @settings(max_examples=40, deadline=None)
    @given(seeds, addresses, st.integers(min_value=-3, max_value=50))
    @example(0xDEAD, EDGES, 0)
    def test_flag_bits_are_the_scalar_draws(self, seed, addrs, epoch):
        flags = hosts.host_flags_np(
            seed, np.array(addrs, dtype=np.uint64), 0.6, 0.4
        ).tolist()
        for addr, flag in zip(addrs, flags):
            assert bool(flag & hosts.HOST_EXISTS) == hosts.host_exists(
                seed, addr, 0.6
            )
            assert bool(flag & hosts.HOST_STABLE) == hosts.host_is_stable(
                seed, addr, 0.4
            )
            # A host that always exists and is stable is up while its
            # block sleeps only if it survives the sleep.
            if hosts.block_asleep(seed, addr, epoch, 1.0):
                assert hosts.host_up_in_epoch(
                    seed, addr, epoch, 1.0, 1.0, 1.0
                ) == bool(flag & hosts.HOST_SLEEP_SURVIVOR)


class TestTableOverASnapshot:
    def test_rows_match_scalar_with_each_address_pod(self):
        """Every row of a scenario snapshot's table holds what the
        scalar functions draw for that address with the pod of its
        leaf allocation, in one byte a column."""
        internet = SimulatedInternet.from_config(tiny_scenario(seed=13))
        snapshot = scan(internet)
        table = HostTable.build(internet, snapshot)
        seed = internet._built.host_seed
        config = internet.config
        assert table.nbytes == 3 * snapshot.total_active
        ttls, deltas, flags = (column.tolist() for column in (
            table.ttls, table.deltas, table.flags
        ))
        for row, addr in enumerate(snapshot.addresses.tolist()):
            pod = internet._allocation_of(addr).pod
            assert ttls[row] == hosts.default_ttl(
                seed, addr, config.default_ttl_weights,
                config.custom_ttl_probability,
            )
            assert deltas[row] == hosts.reverse_path_delta(
                seed, addr, config.reverse_delta_weights
            )
            for epoch in (0, config.snapshot_epoch, 9):
                assert hosts.host_up_from_flags(
                    seed, addr, epoch, flags[row], pod.sleep_probability,
                    {},
                ) == hosts.host_up_in_epoch(
                    seed, addr, epoch, pod.host_density,
                    pod.host_stability, pod.sleep_probability,
                )
