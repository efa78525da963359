"""Tests for the confidence table and termination policies."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfidenceTable,
    ExhaustivePolicy,
    ReprobePolicy,
    StopReason,
    TerminationPolicy,
)
from repro.core.confidence import _recognised_per_size
from repro.experiments import get_workspace
from repro.probing import probes_required
from tests import oracle


def fs(*values):
    return frozenset(values)


def single_lasthop_table() -> ConfidenceTable:
    """A degenerate table: cardinality 1 always confident."""
    table = ConfidenceTable(min_trials=1)
    for probed in range(4, 51):
        table.record(1, probed, True)
    return table


def _single_lasthop_observations(n, lasthop=1):
    return {100 + i: fs(lasthop) for i in range(n)}


def _interleaved_observations(n):
    """Alternating last hops → non-hierarchical grouping for n >= 4."""
    return {100 + i: fs(1 if i % 2 == 0 else 2) for i in range(n)}


def _nested_observations():
    """Group 1 brackets group 2 → hierarchical (inclusive)."""
    return {
        100: fs(1), 110: fs(2), 120: fs(2), 130: fs(1),
    }


class TestConfidenceTable:
    def test_record_and_query(self):
        table = ConfidenceTable(min_trials=2)
        table.record(2, 10, True)
        assert table.confidence(2, 10) is None  # below min_trials
        table.record(2, 10, True)
        assert table.confidence(2, 10) == 1.0

    def test_required_probes(self):
        table = ConfidenceTable(min_trials=1)
        table.record(2, 10, False)
        table.record(2, 20, True)
        table.record(2, 30, True)
        assert table.required_probes(2, level=0.95) == 20

    def test_required_probes_unreachable(self):
        table = ConfidenceTable(min_trials=1)
        table.record(2, 10, False)
        assert table.required_probes(2) is None

    def test_build_from_single_lasthop_blocks(self):
        observations = _single_lasthop_observations(12)
        table = ConfidenceTable.build(
            {"block": observations}, samples_per_block=8, min_trials=4
        )
        # Cardinality 1 is always recognised.
        assert table.required_probes(1) == 4

    def test_build_from_interleaved_blocks(self):
        observations = _interleaved_observations(16)
        table = ConfidenceTable.build(
            {"block": observations}, samples_per_block=16, min_trials=8
        )
        # With alternating groups, recognition improves with subset
        # size; at n=16 (everything) success is certain.
        grid = table.grid()
        assert grid
        full = [row for row in grid if row[1] == 16]
        assert full and full[0][2] == 1.0

    def test_grid_sorted(self):
        table = single_lasthop_table()
        grid = table.grid()
        assert grid == sorted(grid)

    @pytest.mark.parametrize(
        "options, message",
        [
            (
                dict(samples_per_block=0),
                "samples_per_block must be at least 1, got 0",
            ),
            (
                dict(samples_per_block=-3),
                "samples_per_block must be at least 1, got -3",
            ),
            (dict(max_probed=3), "max_probed must be at least 4, got 3"),
            (dict(max_probed=0), "max_probed must be at least 4, got 0"),
        ],
    )
    def test_build_refuses_out_of_domain_parameters(
        self, options, message, monkeypatch
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a subset before refusing")

        monkeypatch.setattr(random.Random, "sample", no_draw)
        with pytest.raises(ValueError) as refused:
            ConfidenceTable.build(
                {"block": _interleaved_observations(8)}, **options
            )
        assert str(refused.value) == message

    def test_from_cells_keeps_insertion_order(self):
        built = ConfidenceTable.build(
            {"a": _interleaved_observations(9), "b": _nested_observations()},
            samples_per_block=5, min_trials=3,
        )
        rows = [
            (card, probed, cell.successes, cell.trials)
            for (card, probed), cell in built.cells().items()
        ]
        restored = ConfidenceTable.from_cells(rows, min_trials=3)
        assert cell_list(restored) == cell_list(built)
        assert restored.min_trials == 3
        assert restored.required_probes_map(0.5) == (
            built.required_probes_map(0.5)
        )
        with pytest.raises(ValueError, match=r"cell \(2, 4\) listed twice"):
            ConfidenceTable.from_cells(rows + rows[:1])


@st.composite
def observation_maps(draw, min_size=4, max_size=100):
    """Per-address last-hop sets drawn from a small palette over 1-12
    routers: single routers, multi-router sets (routers that always
    co-occur give equal group ranges), identical sets everywhere, and
    addresses with no last hop."""
    routers = draw(st.integers(1, 12))
    palette = draw(st.lists(
        st.frozensets(st.integers(1, routers), max_size=3),
        min_size=1, max_size=4,
    ))
    addresses = draw(st.lists(
        st.integers(0, 255), min_size=min_size, max_size=max_size,
        unique=True,
    ))
    return {
        address: draw(st.sampled_from(palette)) for address in addresses
    }


def cell_list(table):
    """Cells with their counts, in insertion order."""
    return [
        (key, cell.successes, cell.trials)
        for key, cell in table.cells().items()
    ]


class TestBatchedBuild:
    """``ConfidenceTable.build`` decides every subset of a /24 at once;
    ``tests/oracle.py`` decides them one at a time."""

    @settings(max_examples=300, deadline=None)
    @given(
        observations=observation_maps(),
        size=st.integers(0, 255),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(observations={a: fs(1) for a in range(10)}, size=1, seed=1)
    @example(observations={a: fs(1, 2) for a in range(10)}, size=3, seed=2)
    @example(
        observations={0: fs(1, 2), 5: fs(3), 9: fs(1, 2), 12: fs(3)},
        size=0, seed=3,
    )
    @example(observations=_nested_observations(), size=0, seed=4)
    @example(
        observations={0: fs(), 1: fs(1), 2: fs(), 3: fs(2), 4: fs(1)},
        size=1, seed=5,
    )
    def test_each_draw_matches_oracle(self, observations, size, seed):
        addresses = sorted(observations)
        probed = 4 + size % (len(addresses) - 3)
        subset = random.Random(seed).sample(addresses, probed)
        expected = oracle.recognised({a: observations[a] for a in subset})
        lasthop_sets = [observations[a] for a in addresses]
        decided = _recognised_per_size(
            lasthop_sets, sorted(frozenset().union(*lasthop_sets)),
            range(probed, probed + 1), 1, random.Random(seed),
        )
        assert decided == [int(expected)]

    @settings(max_examples=60, deadline=None)
    @given(
        datasets=st.lists(
            observation_maps(min_size=1, max_size=40), max_size=4
        ),
        seed=st.integers(0, 2**16),
        samples=st.integers(1, 6),
        max_probed=st.integers(4, 40),
    )
    def test_build_matches_oracle(self, datasets, seed, samples, max_probed):
        keyed = dict(enumerate(datasets))
        options = dict(
            seed=seed, samples_per_block=samples, max_probed=max_probed,
            min_trials=1,
        )
        assert cell_list(ConfidenceTable.build(keyed, **options)) == (
            cell_list(oracle.build_confidence_table(keyed, **options))
        )

    def test_tiny_profile_cells_match_oracle(self):
        workspace = get_workspace("tiny")
        options = dict(
            seed=workspace.internet.config.seed ^ 0xF1D0,
            samples_per_block=(
                workspace.profile.confidence_samples_per_block
            ),
            min_trials=40,
        )
        dataset = workspace.confidence_dataset
        built = cell_list(ConfidenceTable.build(dataset, **options))
        assert built == cell_list(
            oracle.build_confidence_table(dataset, **options)
        )
        assert built == cell_list(workspace.confidence_table)
        assert any(successes < trials for _, successes, trials in built)

    def test_both_sampling_branches_match_oracle(self):
        # random.sample draws from a copied pool while n <= 21 +
        # 4**ceil(log4(3k)) and from a rejection set above it: with 120
        # addresses, k = 4..5 and 6..21 take the set branch and k >= 22
        # the pool branch. The cardinality-1 /24 first passes without
        # grouping, but its draws must still advance the shared stream.
        rng = random.Random(9)
        datasets = {
            "flat": {address: fs(7) for address in range(12)},
            "block": {
                address: fs(*rng.sample(range(1, 7), rng.choice((1, 1, 2))))
                for address in range(0, 240, 2)
            },
        }
        options = dict(seed=3, samples_per_block=20, min_trials=1)
        built = cell_list(ConfidenceTable.build(datasets, **options))
        assert built == cell_list(
            oracle.build_confidence_table(datasets, **options)
        )
        assert [key for key, _, _ in built] == (
            [(1, k) for k in range(4, 13)] + [(6, k) for k in range(4, 51)]
        )
        assert any(0 < successes < trials for _, successes, trials in built)


class TestTerminationPolicy:
    def test_non_hierarchical_stop(self):
        policy = TerminationPolicy()
        reason = policy.should_stop(_interleaved_observations(6))
        assert reason is StopReason.NON_HIERARCHICAL

    def test_single_lasthop_stop_at_six(self):
        policy = TerminationPolicy()
        assert policy.should_stop(_single_lasthop_observations(5)) is None
        assert (
            policy.should_stop(_single_lasthop_observations(6))
            is StopReason.SINGLE_LASTHOP
        )

    def test_identical_multi_sets_stop_as_non_hierarchical(self):
        policy = TerminationPolicy()
        observations = {100 + i: fs(1, 2) for i in range(6)}
        assert (
            policy.should_stop(observations)
            is StopReason.NON_HIERARCHICAL
        )

    def test_confidence_stop(self):
        table = ConfidenceTable(min_trials=1)
        table.record(2, 5, True)
        policy = TerminationPolicy(
            confidence_table=table, stop_on_non_hierarchical=False,
            single_lasthop_rule=False,
        )
        nested = _nested_observations()
        assert policy.should_stop(nested) is None  # only 4 probed
        more = dict(nested)
        more[140] = fs(1)
        assert policy.should_stop(more) is StopReason.CONFIDENCE_REACHED

    def test_rules_can_be_disabled(self):
        policy = TerminationPolicy(
            single_lasthop_rule=False, stop_on_non_hierarchical=False
        )
        assert policy.should_stop(_single_lasthop_observations(10)) is None
        assert policy.should_stop(_interleaved_observations(10)) is None

    def test_empty_observations_never_stop(self):
        assert TerminationPolicy().should_stop({}) is None

    def test_required_probes_helper(self):
        table = ConfidenceTable(min_trials=1)
        table.record(2, 7, True)
        policy = TerminationPolicy(confidence_table=table)
        assert policy.required_probes(_nested_observations()) == 7
        assert TerminationPolicy().required_probes({}) is None


class TestReprobePolicy:
    def test_stops_at_enumeration_budget(self):
        policy = ReprobePolicy()
        # One last hop observed → budget is probes_required(1) = 6.
        assert policy.should_stop(_single_lasthop_observations(5)) is None
        assert (
            policy.should_stop(_single_lasthop_observations(6))
            is StopReason.ENUMERATION_COMPLETE
        )

    def test_budget_grows_with_cardinality(self):
        policy = ReprobePolicy()
        observations = _interleaved_observations(10)
        # Two last hops → needs probes_required(2) = 11 destinations.
        assert policy.should_stop(observations) is None
        observations = _interleaved_observations(probes_required(2))
        assert (
            policy.should_stop(observations)
            is StopReason.ENUMERATION_COMPLETE
        )

    def test_does_not_stop_on_non_hierarchy(self):
        policy = ReprobePolicy()
        assert policy.should_stop(_interleaved_observations(6)) is None


class TestExhaustivePolicy:
    def test_never_stops(self):
        policy = ExhaustivePolicy()
        assert policy.should_stop(_single_lasthop_observations(50)) is None
        assert policy.should_stop(_interleaved_observations(50)) is None
