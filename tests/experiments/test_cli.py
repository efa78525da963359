"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.store.store import FORMAT_VERSION


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(
            ["run", "table1", "fig5", "--profile", "tiny"]
        )
        assert args.experiments == ["table1", "fig5"]
        assert args.profile == "tiny"

    def test_run_requires_experiments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_bad_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--profile", "huge"])

    def test_count_flags_parse_as_whole_numbers(self):
        args = build_parser().parse_args(
            ["campaign", "--workers", "2", "--limit", "8",
             "--max-destinations", "3"]
        )
        assert (args.workers, args.limit, args.max_destinations) == (2, 8, 3)


class TestCountFlagsRejected:
    """``--workers``, ``--limit`` and ``--max-destinations`` take a whole
    number >= 1; anything else is a usage error before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig5", "--profile", "tiny", "--workers", "0"],
            ["export", "out", "--workers", "-2"],
            ["validate", "--workers", "-2"],
            ["campaign", "--workers", "0"],
            ["campaign", "--limit", "0"],
            ["campaign", "--max-destinations", "-1"],
            ["campaign", "--limit", "2.5"],
            ["run", "fig5", "--workers", "abc"],
        ],
    )
    def test_exits_two_without_building_a_workspace(
        self, argv, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a bad flag reached the workspace")

        monkeypatch.setattr("repro.cli.get_workspace", no_work)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        flag = argv[-2]
        assert f"argument {flag}:" in capsys.readouterr().err


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig11" in out

    def test_scenario(self, capsys):
        assert main(["scenario", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "universe_slash24s" in out

    def test_run_single(self, capsys):
        assert main(["run", "fig5", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "bogus", "--profile", "tiny"]) == 2


class TestJsonExport:
    def test_json_document(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(
            ["run", "fig5", "--profile", "tiny", "--json", str(path)]
        ) == 0
        import json

        document = json.loads(path.read_text())
        assert document["profile"] == "tiny"
        entry = document["experiments"][0]
        assert entry["experiment"] == "fig5"
        assert entry["headers"]
        assert entry["rows"]


class TestRefusedStore:
    """A store in another format fails as a one-line usage error that
    names the path, both versions and the remedy — not a traceback."""

    @pytest.fixture
    def v1_store(self, tmp_path):
        root = tmp_path / "old-store"
        (root / "segments").mkdir(parents=True)
        (root / "store.json").write_text('{"version": 1, "shards": 16}\n')
        return root

    def _assert_refused(self, capsys, root):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert str(root) in lines[0]
        assert "v1" in lines[0]
        assert f"v{FORMAT_VERSION}" in lines[0]
        assert "new --store directory" in lines[0]
        assert "Traceback" not in captured.err

    def test_store_info(self, v1_store, capsys):
        assert main(["store", "info", str(v1_store)]) == 2
        self._assert_refused(capsys, v1_store)

    def test_campaign(self, v1_store, capsys):
        argv = [
            "campaign", "--profile", "tiny", "--limit", "2",
            "--store", str(v1_store),
        ]
        assert main(argv) == 2
        self._assert_refused(capsys, v1_store)
        # Refused, not rewritten: the old store is left as it was.
        assert '"version": 1' in (v1_store / "store.json").read_text()
