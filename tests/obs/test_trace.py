"""Tests for the trace journal: write → read → summarize round-trip,
truncated-tail tolerance, and the zero-cost disabled path."""

import json

import pytest

from repro.obs.trace import (
    Tracer,
    configure_tracing,
    span,
    summarize_trace,
    trace_event,
    trace_path_from_env,
    trace_warning,
    tracer,
)


@pytest.fixture(autouse=True)
def _reset_tracing():
    """Tests install their own tracer; always restore the disabled one."""
    yield
    configure_tracing(None)


def _read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestJournal:
    def test_records_are_self_contained_json_lines(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        active = Tracer(str(journal))
        active.event("store.opened", records=3)
        with active.span("campaign.run", slash24s=24):
            active.warning("mcl.unconverged", "hit the cap", vertices=9)
        active.close()

        records = _read_records(journal)
        assert [r["kind"] for r in records] == [
            "event", "begin", "warning", "end",
        ]
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert records[0]["records"] == 3
        assert records[1]["name"] == "campaign.run"
        assert records[1]["span"] == records[3]["span"]
        assert records[3]["seconds"] >= 0.0
        assert records[2]["message"] == "hit the cap"

    def test_span_records_error_and_propagates(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        active = Tracer(str(journal))
        with pytest.raises(ValueError):
            with active.span("experiment", id="fig5"):
                raise ValueError("broken runner")
        active.close()
        end = _read_records(journal)[-1]
        assert end["kind"] == "end"
        assert "broken runner" in end["error"]

    def test_rich_attribute_values_stringify(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        active = Tracer(str(journal))
        active.event("store.replay", prefix=object())
        active.close()
        assert isinstance(_read_records(journal)[0]["prefix"], str)

    def test_append_only_across_reconfigure(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        trace_event("first")
        configure_tracing(str(journal))  # closes, then reopens appending
        trace_event("second")
        configure_tracing(None)
        names = [r["name"] for r in _read_records(journal)]
        assert names == ["first", "second"]


class TestSummarize:
    def test_round_trip(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        for _ in range(3):
            with span("campaign.slash24", prefix="10.0.0.0/24"):
                pass
        trace_event("store.replay")
        trace_event("store.replay")
        configure_tracing(None)

        summary = summarize_trace(str(journal))
        assert summary.clean
        assert summary.corrupt_lines == 0
        assert summary.unclosed_spans == 0
        assert summary.event_counts == {"store.replay": 2}
        entry = summary.spans["campaign.slash24"]
        assert entry.count == 3
        assert entry.errors == 0
        assert entry.total_seconds >= entry.max_seconds >= 0.0
        assert entry.mean_seconds == pytest.approx(entry.total_seconds / 3)

    def test_warnings_make_summary_unclean(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        trace_warning("campaign.parallel_fallback", "degraded to serial")
        configure_tracing(None)
        summary = summarize_trace(str(journal))
        assert not summary.clean
        assert summary.warnings[0]["message"] == "degraded to serial"

    def test_truncated_tail_tolerated(self, tmp_path):
        """A killed writer leaves at most one partial final line; the
        summary skips it instead of failing."""
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        with span("campaign.run"):
            pass
        configure_tracing(None)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"seq":99,"kind":"eve')  # no newline: torn write
        summary = summarize_trace(str(journal))
        assert summary.corrupt_lines == 1
        assert not summary.clean
        assert summary.spans["campaign.run"].count == 1

    def test_unclosed_span_reported(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        journal.write_text(
            '{"seq":1,"ts":0,"kind":"begin","name":"phase.campaign","span":1}\n'
        )
        summary = summarize_trace(str(journal))
        assert summary.unclosed_spans == 1

    def test_errored_span_counted(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        configure_tracing(str(journal))
        with pytest.raises(RuntimeError):
            with span("experiment"):
                raise RuntimeError("boom")
        configure_tracing(None)
        assert summarize_trace(str(journal)).spans["experiment"].errors == 1


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not tracer().enabled

    def test_span_returns_shared_null_context(self):
        """Zero-cost-when-off: the module-level span() helper hands back
        one shared no-op context manager — no per-call allocation."""
        first = span("campaign.run", slash24s=10)
        second = span("campaign.slash24", prefix=object())
        assert first is second

    def test_emitters_write_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace_event("store.replay", prefix="10.0.0.0/24")
        trace_warning("mcl.unconverged", "never journaled")
        with span("campaign.run"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_disabled_tracer_opens_no_file(self, tmp_path):
        inert = Tracer(None)
        inert.event("x")
        inert.warning("y", "z")
        with inert.span("s"):
            pass
        inert.close()
        assert inert._handle is None


class TestEnvironment:
    def test_env_names_the_journal(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "/tmp/somewhere.jsonl")
        assert trace_path_from_env() == "/tmp/somewhere.jsonl"

    def test_unset_and_empty_mean_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_path_from_env() is None
        monkeypatch.setenv("REPRO_TRACE", "")
        assert trace_path_from_env() is None
