"""CLI-level observability: failure reporting in ``--json`` documents,
the ``--trace``/``run.json`` plumbing, and ``trace summarize``."""

import json

import pytest

import repro.cli as cli
from repro.experiments.common import ExperimentResult
from repro.obs.trace import Tracer, configure_tracing


@pytest.fixture(autouse=True)
def _reset_tracing():
    yield
    configure_tracing(None)


def _fake_result(experiment_id):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"Fake {experiment_id}",
        headers=["quantity", "value"],
        rows=[["blocks", 3]],
    )


class TestRunFailureReporting:
    def test_failed_experiment_stays_in_json_document(
        self, tmp_path, monkeypatch, capsys
    ):
        """The silent-drop regression: a failed experiment used to
        vanish from ``--json`` output, indistinguishable from one that
        was never requested."""

        def runner(experiment_id, workspace):
            raise RuntimeError("synthetic runner failure")

        monkeypatch.setattr(cli, "run_experiment", runner)
        json_path = tmp_path / "out.json"
        exit_code = cli.main(
            ["run", "table1", "--profile", "tiny", "--json", str(json_path)]
        )
        assert exit_code == 1
        assert "[table1] FAILED" in capsys.readouterr().err

        document = json.loads(json_path.read_text())
        assert document["failures"] == 1
        entry = document["experiments"][0]
        assert entry["experiment"] == "table1"
        assert entry["error"] == "synthetic runner failure"
        assert entry["seconds"] >= 0

    def test_mixed_run_keeps_successes_and_failures(
        self, tmp_path, monkeypatch, capsys
    ):
        def runner(experiment_id, workspace):
            if experiment_id == "table2":
                raise RuntimeError("table2 broke")
            return _fake_result(experiment_id)

        monkeypatch.setattr(cli, "run_experiment", runner)
        json_path = tmp_path / "out.json"
        exit_code = cli.main(
            [
                "run", "table1", "table2", "table3",
                "--profile", "tiny", "--json", str(json_path),
            ]
        )
        assert exit_code == 1
        document = json.loads(json_path.read_text())
        assert document["failures"] == 1
        by_id = {
            entry["experiment"]: entry
            for entry in document["experiments"]
        }
        assert set(by_id) == {"table1", "table2", "table3"}
        assert "error" in by_id["table2"]
        assert by_id["table1"]["rows"] == [["blocks", "3"]]
        capsys.readouterr()

    def test_clean_run_reports_zero_failures(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            cli, "run_experiment", lambda i, w: _fake_result(i)
        )
        json_path = tmp_path / "out.json"
        assert cli.main(
            ["run", "table1", "--profile", "tiny", "--json", str(json_path)]
        ) == 0
        assert json.loads(json_path.read_text())["failures"] == 0
        capsys.readouterr()


class TestRunManifest:
    def test_trace_flag_writes_run_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            cli, "run_experiment", lambda i, w: _fake_result(i)
        )
        trace_path = tmp_path / "t.jsonl"
        exit_code = cli.main(
            [
                "run", "table1", "--profile", "tiny",
                "--workers", "2", "--trace", str(trace_path),
            ]
        )
        assert exit_code == 0
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["profile"] == "tiny"
        assert manifest["workers"] == 2
        assert "engine" not in manifest
        assert "engines" not in manifest
        assert manifest["failures"] == 0
        assert manifest["experiments"] == ["table1"]
        assert "wrote trace" in capsys.readouterr().out


class TestTraceSummarizeCommand:
    def _journal(self, tmp_path, with_warning=False):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(str(path))
        with tracer.span("phase.campaign"):
            tracer.event("store.replay")
        if with_warning:
            tracer.warning("campaign.parallel_fallback", "degraded")
        tracer.close()
        return str(path)

    def test_clean_journal_exits_zero(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        assert cli.main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "phase.campaign" in out
        assert "store.replay" in out

    def test_warnings_exit_nonzero(self, tmp_path, capsys):
        path = self._journal(tmp_path, with_warning=True)
        assert cli.main(["trace", "summarize", path]) == 1
        assert "campaign.parallel_fallback" in capsys.readouterr().err

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert cli.main(["trace", "summarize", missing]) == 2
        assert "no trace journal" in capsys.readouterr().err
