"""Validated env-knob parsing: malformed operational knobs must fail
loudly, at the knob, naming the variable — not twelve frames deep in
the campaign executor, and never silently disarming fault injection."""

import re
from pathlib import Path

import pytest

from repro.util.envknobs import (
    EnvKnobError,
    event_intensity_env,
    float_env,
    kill_after_for_worker,
    parse_kill_spec,
    positive_int_env,
)


ROOT = Path(__file__).resolve().parents[2]


class TestKnobInventory:
    def test_src_knobs_match_readme_table(self):
        # A knob read in src/ but missing from README's table, or a
        # table row whose knob src/ no longer reads, fails here.
        in_src = set()
        for path in (ROOT / "src").rglob("*.py"):
            source = path.read_text(encoding="utf-8")
            in_src.update(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']", source))
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Environment knobs", 1)[1].split("\n#", 1)[0]
        documented = set(
            re.findall(r"^\|\s*`(REPRO_[A-Z_]+)`", table, re.MULTILINE)
        )
        assert in_src
        assert in_src == documented


class TestFloatEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert float_env("REPRO_X", 3.5) == 3.5

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "  ")
        assert float_env("REPRO_X", 3.5) == 3.5

    def test_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "2.25")
        assert float_env("REPRO_X", 3.5) == 2.25

    def test_non_numeric_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "soon")
        with pytest.raises(EnvKnobError, match="REPRO_X"):
            float_env("REPRO_X", 3.5)

    def test_nan_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "nan")
        with pytest.raises(EnvKnobError, match="NaN"):
            float_env("REPRO_X", 3.5)

    def test_bounds_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "1.5")
        with pytest.raises(EnvKnobError, match="maximum"):
            float_env("REPRO_X", 0.0, minimum=0.0, maximum=1.0)
        monkeypatch.setenv("REPRO_X", "-0.1")
        with pytest.raises(EnvKnobError, match="minimum"):
            float_env("REPRO_X", 0.0, minimum=0.0, maximum=1.0)

    def test_envknoberror_is_a_valueerror(self):
        assert issubclass(EnvKnobError, ValueError)


class TestPositiveIntEnv:
    def test_unset_and_empty_return_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert positive_int_env("REPRO_X", 1) == 1
        monkeypatch.setenv("REPRO_X", " ")
        assert positive_int_env("REPRO_X", 1) == 1

    def test_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "4")
        assert positive_int_env("REPRO_X", 1) == 4

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_worker_count_rejected(self, monkeypatch, raw):
        """A malformed worker count fails naming the variable instead of
        running serially without a word."""
        from repro.experiments.common import active_worker_count

        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(EnvKnobError, match="REPRO_WORKERS"):
            active_worker_count()


class TestParseKillSpec:
    def test_none_and_empty_mean_no_kills(self):
        assert parse_kill_spec(None) == []
        assert parse_kill_spec("") == []
        assert parse_kill_spec("  ") == []

    def test_single_entry(self):
        assert parse_kill_spec("0:3") == [(0, 3)]

    def test_multiple_entries(self):
        assert parse_kill_spec("0:1,2:5") == [(0, 1), (2, 5)]

    def test_zero_count_clamped_to_one(self):
        # Killing before the first measured /24 would test nothing.
        assert parse_kill_spec("1:0") == [(1, 1)]

    def test_missing_colon_raises(self):
        with pytest.raises(EnvKnobError, match="missing ':'"):
            parse_kill_spec("3")

    def test_non_numeric_raises(self):
        with pytest.raises(EnvKnobError, match="not numeric"):
            parse_kill_spec("zero:1")
        with pytest.raises(EnvKnobError, match="not numeric"):
            parse_kill_spec("0:one")

    def test_negative_raises(self):
        with pytest.raises(EnvKnobError, match="negative"):
            parse_kill_spec("-1:2")

    def test_error_names_the_variable(self):
        with pytest.raises(EnvKnobError, match="REPRO_WORKER_KILL"):
            parse_kill_spec("oops", name="REPRO_WORKER_KILL")
        with pytest.raises(EnvKnobError, match="CUSTOM_KNOB"):
            parse_kill_spec("oops", name="CUSTOM_KNOB")

    def test_trailing_commas_tolerated(self):
        assert parse_kill_spec("0:1,") == [(0, 1)]


class TestKillAfterForWorker:
    def test_targeted_worker(self):
        assert kill_after_for_worker("0:2,3:7", 3) == 7

    def test_untargeted_worker(self):
        assert kill_after_for_worker("0:2", 1) is None

    def test_no_spec(self):
        assert kill_after_for_worker(None, 0) is None


class TestEventIntensityEnv:
    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        assert event_intensity_env() is None

    def test_value_in_range(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS", "0.6")
        assert event_intensity_env() == 0.6

    def test_out_of_range_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS", "1.5")
        with pytest.raises(EnvKnobError, match="REPRO_EVENTS"):
            event_intensity_env()
        monkeypatch.setenv("REPRO_EVENTS", "-0.2")
        with pytest.raises(EnvKnobError):
            event_intensity_env()

    def test_junk_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS", "lots")
        with pytest.raises(EnvKnobError, match="REPRO_EVENTS"):
            event_intensity_env()


class TestCampaignIntegration:
    """The parent validates knobs *before* forking workers: a worker
    dying at startup on a bad knob would silently disarm the very fault
    injection the knob was meant to drive."""

    def _tiny_campaign(self, workers):
        from repro.core import TerminationPolicy, run_campaign
        from repro.netsim import SimulatedInternet, tiny_scenario
        from repro.probing import scan

        internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
        snapshot = scan(internet)
        return run_campaign(
            internet,
            TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:4],
            snapshot=snapshot,
            seed=5,
            max_destinations_per_slash24=16,
            workers=workers,
        )

    def test_bad_kill_spec_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_KILL", "first-worker")
        with pytest.raises(EnvKnobError, match="REPRO_WORKER_KILL"):
            self._tiny_campaign(workers=2)
