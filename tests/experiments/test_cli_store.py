"""CLI coverage for --store plumbing and the store subcommand."""

import pytest

from repro.cli import build_parser, main
from repro.core import TerminationPolicy, run_campaign
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.probing import scan
from repro.store import MeasurementStore
from repro.store.codec import HEADER_SIZE


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    """A store populated by one small campaign."""
    root = tmp_path_factory.mktemp("cli-store") / "s"
    internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
    snapshot = scan(internet)
    with MeasurementStore(root) as store:
        run_campaign(
            internet,
            TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:6],
            snapshot=snapshot,
            seed=5,
            max_destinations_per_slash24=48,
            store=store,
        )
    return root


class TestParser:
    def test_run_accepts_store(self):
        args = build_parser().parse_args(
            ["run", "table1", "--store", "/tmp/s"]
        )
        assert args.store == "/tmp/s"

    def test_store_subcommand(self):
        args = build_parser().parse_args(["store", "verify", "/tmp/s"])
        assert args.action == "verify"
        assert args.path == "/tmp/s"

    def test_store_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_store_bad_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "drop", "/tmp/s"])


class TestStoreCommand:
    def test_info(self, store_root, capsys):
        assert main(["store", "info", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "slash24_records" in out
        assert "6" in out

    def test_ls(self, store_root, capsys):
        assert main(["store", "ls", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "probes" in out

    def test_verify_clean(self, store_root, capsys):
        assert main(["store", "verify", str(store_root)]) == 0
        assert "records ok: 6" in capsys.readouterr().out

    def test_verify_flags_corruption(self, store_root, capsys):
        for path in sorted((store_root / "segments").iterdir()):
            if path.stat().st_size > 0:
                data = bytearray(path.read_bytes())
                data[HEADER_SIZE + 2] ^= 0xFF
                path.write_bytes(bytes(data))
                break
        assert main(["store", "verify", str(store_root)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out

    def test_gc_compacts(self, store_root, capsys):
        assert main(["store", "gc", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "dropped 1 damaged" in out
        # After compaction the store verifies clean again.
        assert main(["store", "verify", str(store_root)]) == 0

    @pytest.mark.parametrize("action", ["ls", "info", "verify", "gc"])
    def test_missing_store_refused_and_not_created(
        self, tmp_path, capsys, action
    ):
        """A mistyped path must not pass as an empty, clean store."""
        typo = tmp_path / "typo"
        assert main(["store", action, str(typo)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"hobbit-repro: no store at {typo}"
        assert not typo.exists()

    def test_no_path_and_no_env(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "info"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err

    def test_env_fallback(self, store_root, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(store_root))
        assert main(["store", "info"]) == 0
