"""Checkpoint/resume: a campaign killed mid-run and resumed from its
store must be bit-identical to an uninterrupted run — measurements,
insertion order, and probe accounting — serially and in parallel."""

import math
import multiprocessing
import os
import re
import signal

import pytest

from repro.core import TerminationPolicy, run_campaign
from repro.core.fastengine import FastCampaignEngine, RouteTemplateError
from repro.net import Prefix
from repro.netsim import SimulatedInternet, tiny_scenario
from repro.probing import scan
from repro.store import MeasurementStore
from repro.store import campaign as campaign_module
from repro.store import segment as segmod
from repro.store.codec import HEADER_SIZE
from tests.oracle import decode_slash24_record

SEED = 5
MAX_DESTINATIONS = 48


def _fresh_internet():
    internet = SimulatedInternet.from_config(tiny_scenario(seed=11))
    snapshot = scan(internet)
    return internet, snapshot


def _run(internet, snapshot, slash24s, workers=1, store=None):
    return run_campaign(
        internet,
        TerminationPolicy(),
        slash24s=slash24s,
        snapshot=snapshot,
        seed=SEED,
        max_destinations_per_slash24=MAX_DESTINATIONS,
        workers=workers,
        store=store,
    )


@pytest.fixture(scope="module")
def selection():
    internet, snapshot = _fresh_internet()
    return snapshot.eligible_slash24s()[:16]


@pytest.fixture(scope="module")
def baseline(selection):
    """The uninterrupted, storeless run every variant must reproduce."""
    internet, snapshot = _fresh_internet()
    result = _run(internet, snapshot, selection)
    return result, internet.probe_count, internet.clock_seconds


def assert_bit_identical(result, internet, baseline):
    base_result, base_probes, base_clock = baseline
    assert result.measurements == base_result.measurements
    assert list(result.measurements) == list(base_result.measurements)
    assert result.probes_used == base_result.probes_used
    assert internet.clock_seconds == base_clock


class CrashInjected(RuntimeError):
    pass


class FlakyStore:
    """Store wrapper whose writes die after a budget of checkpoints —
    the injected fault simulating a run killed mid-campaign. A group
    commit stores its documents one by one against the same budget, so
    it dies partway through."""

    def __init__(self, store, puts_allowed):
        self.store = store
        self.puts_left = puts_allowed

    def get(self, key):
        return self.store.get(key)

    def put(self, document):
        if self.puts_left <= 0:
            raise CrashInjected("injected crash during checkpoint")
        self.puts_left -= 1
        self.store.put(document)

    def put_many(self, documents):
        for document in documents:
            self.put(document)


class TestColdAndWarm:
    def test_cold_run_matches_storeless(self, selection, baseline, tmp_path):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            result = _run(internet, snapshot, selection, store=store)
        assert_bit_identical(result, internet, baseline)
        assert internet.probe_count == baseline[1]

    def test_warm_run_sends_zero_probes(self, selection, baseline, tmp_path):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            _run(internet, snapshot, selection, store=store)
        warm_internet, warm_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            result = _run(warm_internet, warm_snapshot, selection, store=store)
        assert_bit_identical(result, warm_internet, baseline)
        assert warm_internet.probe_count == 0

    def test_warm_parallel_run_sends_zero_probes(
        self, selection, baseline, tmp_path
    ):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            _run(internet, snapshot, selection, workers=2, store=store)
        warm_internet, warm_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            result = _run(
                warm_internet, warm_snapshot, selection, workers=2,
                store=store,
            )
        assert_bit_identical(result, warm_internet, baseline)
        assert warm_internet.probe_count == 0

    def test_different_seed_misses_cache(self, selection, tmp_path):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            _run(internet, snapshot, selection, store=store)
        other_internet, other_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            run_campaign(
                other_internet,
                TerminationPolicy(),
                slash24s=selection,
                snapshot=other_snapshot,
                seed=SEED + 1,
                max_destinations_per_slash24=MAX_DESTINATIONS,
                store=store,
            )
        assert other_internet.probe_count > 0  # nothing replayed


class TestCrashResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_resumes_bit_identical(
        self, selection, baseline, tmp_path, workers
    ):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            flaky = FlakyStore(store, puts_allowed=5)
            with pytest.raises(CrashInjected):
                _run(
                    internet, snapshot, selection, workers=workers,
                    store=flaky,
                )
        # Reopen the store and resume with a fresh process state.
        resumed_internet, resumed_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            assert 0 < len(store) < len(selection)  # partial checkpoint
            result = _run(
                resumed_internet, resumed_snapshot, selection,
                workers=workers, store=store,
            )
        assert_bit_identical(result, resumed_internet, baseline)
        # The resumed run only paid for the /24s the crash lost.
        assert 0 < resumed_internet.probe_count < baseline[1]

    def test_repeated_crashes_eventually_finish(
        self, selection, baseline, tmp_path
    ):
        finished = None
        for attempt in range(len(selection) + 1):
            internet, snapshot = _fresh_internet()
            with MeasurementStore(tmp_path / "s") as store:
                flaky = FlakyStore(store, puts_allowed=2)
                try:
                    finished = _run(
                        internet, snapshot, selection, store=flaky
                    )
                    break
                except CrashInjected:
                    continue
        assert finished is not None
        assert_bit_identical(finished, internet, baseline)


def _corrupt_one_stored_record(root):
    """Flip a payload byte of the first record of the first non-empty
    segment; returns nothing — exactly one record becomes unreadable."""
    for path in sorted((root / "segments").iterdir()):
        if path.stat().st_size > 0:
            data = bytearray(path.read_bytes())
            data[HEADER_SIZE + 4] ^= 0xFF
            path.write_bytes(bytes(data))
            return
    raise AssertionError("no segment to corrupt")


class TestCorruption:
    def test_flipped_byte_is_flagged_and_remeasured(
        self, selection, baseline, tmp_path
    ):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            _run(internet, snapshot, selection, store=store)
        _corrupt_one_stored_record(tmp_path / "s")
        warm_internet, warm_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            report = store.verify()
            assert not report.clean
            assert len(report.corrupt) == 1
            result = _run(warm_internet, warm_snapshot, selection, store=store)
        assert_bit_identical(result, warm_internet, baseline)
        # Only the damaged /24 was re-measured; the rest replayed.
        assert 0 < warm_internet.probe_count < baseline[1]

    def test_truncated_tail_is_recovered_silently(
        self, selection, baseline, tmp_path
    ):
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            _run(internet, snapshot, selection, store=store)
        for path in sorted((tmp_path / "s" / "segments").iterdir()):
            if path.stat().st_size > 0:
                with open(path, "ab") as handle:
                    handle.write(b"\xde\xad\xbe")  # interrupted append
                break
        warm_internet, warm_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            result = _run(warm_internet, warm_snapshot, selection, store=store)
            assert store.verify().clean  # the tail was trimmed on open
        assert_bit_identical(result, warm_internet, baseline)
        assert warm_internet.probe_count == 0


def _serial_campaign_killed_mid_commit(root, prefixes, commit_every, kill_at):
    """Child-process body: a serial campaign over a one-shard store that
    SIGKILLs itself halfway through the ``write`` of its ``kill_at``-th
    group commit (of ``commit_every`` /24s each)."""
    campaign_module.COMMIT_EVERY = commit_every
    real_append = segmod.append
    appends = []

    def tearing_append(handle, frames, fsync=True):
        appends.append(len(frames))
        if len(appends) == kill_at:
            handle.write(frames[: len(frames) // 2])
            handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return real_append(handle, frames, fsync=fsync)

    segmod.append = tearing_append
    internet, snapshot = _fresh_internet()
    with MeasurementStore(root, shards=1) as store:
        _run(internet, snapshot, [Prefix.parse(p) for p in prefixes],
             store=store)


def _segment(root):
    return root / "segments" / "shard-00.seg"


class TestGroupCommits:
    def test_sigkill_mid_commit_write_resumes_bit_identical(
        self, selection, baseline, tmp_path
    ):
        # The uninterrupted run's segment: the byte stream every commit
        # grouping must reproduce, and its frame boundaries.
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "whole", shards=1) as store:
            _run(internet, snapshot, selection, store=store)
        whole = _segment(tmp_path / "whole").read_bytes()
        boundaries = [
            offset for offset, _ in segmod.scan(
                str(_segment(tmp_path / "whole"))
            ).records
        ] + [len(whole)]

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("this platform has no fork start method")
        child = context.Process(
            target=_serial_campaign_killed_mid_commit,
            args=(
                str(tmp_path / "s"), [str(p) for p in selection], 4, 3,
            ),
        )
        child.start()
        child.join(timeout=120)
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL
        torn = _segment(tmp_path / "s").read_bytes()
        # Two whole commits of four /24s, then half of the third.
        third_start, third_end = boundaries[8], boundaries[12]
        assert len(torn) == third_start + (third_end - third_start) // 2
        assert torn == whole[: len(torn)]
        assert len(torn) not in boundaries  # the tail is mid-frame
        kept = max(offset for offset in boundaries if offset <= len(torn))

        resumed_internet, resumed_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            # Reopening trims the torn tail and keeps every complete
            # frame before it.
            assert _segment(tmp_path / "s").read_bytes() == whole[:kept]
            assert len(store) == boundaries.index(kept) >= 8
            result = _run(
                resumed_internet, resumed_snapshot, selection, store=store,
            )
        assert_bit_identical(result, resumed_internet, baseline)
        assert 0 < resumed_internet.probe_count < baseline[1]
        assert _segment(tmp_path / "s").read_bytes() == whole

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_slash24_mid_campaign_commits_measured(
        self, selection, tmp_path, monkeypatch, workers
    ):
        """The route template of the (N/2+1)-th /24 cannot be built: the
        campaign raises an error naming it, serially and from the
        workers' chunks, and commits what was measured before it."""
        internet, snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "whole") as whole:
            _run(internet, snapshot, selection, store=whole)
            records = {
                decode_slash24_record(document)[0].slash24: document
                for document in whole.documents()
            }
        measured = len(selection) // 2
        victim = selection[measured]
        real = FastCampaignEngine._program_for

        def failing(self, dst, src, host=None):
            if dst >> 8 == victim.network >> 8:
                raise RouteTemplateError("injected for the test")
            return real(self, dst, src, host)

        # A class attribute, so forked workers inherit the patch.
        monkeypatch.setattr(FastCampaignEngine, "_program_for", failing)
        failing_internet, failing_snapshot = _fresh_internet()
        with MeasurementStore(tmp_path / "s") as store:
            with pytest.raises(
                RouteTemplateError, match=re.escape(str(victim))
            ):
                _run(
                    failing_internet, failing_snapshot, selection,
                    workers=workers, store=store,
                )
        with MeasurementStore(tmp_path / "s") as store:
            stored = {key: store.get(key) for key in store.keys()}
        if workers == 1:
            assert stored == {
                records[slash24]["key"]: records[slash24]
                for slash24 in selection[:measured]
            }
        else:
            by_key = {
                document["key"]: document for document in records.values()
            }
            assert stored
            assert all(stored[key] == by_key[key] for key in stored)
            assert records[victim]["key"] not in stored

    def test_one_fsync_per_commit_on_one_shard_store(
        self, tmp_path, monkeypatch
    ):
        internet, snapshot = _fresh_internet()
        slash24s = snapshot.eligible_slash24s()
        assert len(slash24s) > campaign_module.COMMIT_EVERY
        fsynced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsynced.append(fd)
            real_fsync(fd)

        with MeasurementStore(tmp_path / "s", shards=1) as store:
            monkeypatch.setattr(segmod.os, "fsync", counting_fsync)
            _run(internet, snapshot, slash24s, store=store)
            assert len(store) == len(slash24s)
        assert len(fsynced) == math.ceil(
            len(slash24s) / campaign_module.COMMIT_EVERY
        )
