"""MeasurementStore: persistence, verification, and compaction."""

import hashlib
import json
import os

import pytest

from repro.store import MeasurementStore, StoreError
from repro.store import segment as segmod
from repro.store.codec import HEADER_SIZE, frame_record
from repro.net.prefix import Prefix
from repro.store.fingerprint import (
    active_list_fingerprint,
    digest,
    observation_map_fingerprint,
)
from repro.store.store import FORMAT_VERSION


def doc(key, value=0):
    return {"key": key, "kind": "artifact", "value": value}


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("k1", 41))
            assert store.get("k1") == doc("k1", 41)
            assert "k1" in store
            assert len(store) == 1
        assert store.get("missing") is None

    def test_survives_reopen(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            for index in range(40):
                store.put(doc(f"{index:02x}", index))
        with MeasurementStore(tmp_path / "s") as store:
            assert len(store) == 40
            assert store.get("07") == doc("07", 7)

    def test_records_spread_across_shards(self, tmp_path):
        with MeasurementStore(tmp_path / "s", shards=4) as store:
            for index in range(64):
                store.put(doc(f"{index * 7919:08x}", index))
            used = {store._shard_of(key) for key in store.keys()}
        assert len(used) > 1

    def test_same_key_last_write_wins(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("k", "old"))
            store.put(doc("k", "new"))
            assert store.get("k") == doc("k", "new")
            assert store.superseded == 1
        with MeasurementStore(tmp_path / "s") as store:
            assert store.get("k") == doc("k", "new")
            assert store.superseded == 1

    def test_shard_count_fixed_at_creation(self, tmp_path):
        MeasurementStore(tmp_path / "s", shards=4).close()
        # A different requested count is ignored for an existing store.
        store = MeasurementStore(tmp_path / "s", shards=32)
        assert store.shards == 4
        store.close()

    def test_version_mismatch_rejected(self, tmp_path):
        MeasurementStore(tmp_path / "s").close()
        meta = tmp_path / "s" / "store.json"
        # v1 keyed records with the splitmix64 string hash; its keys
        # must never be looked up with today's.
        for version in (1, 99):
            meta.write_text(json.dumps({"version": version, "shards": 16}))
            refused = f"v{version} at .*reads v{FORMAT_VERSION}.*new --store"
            with pytest.raises(StoreError, match=refused):
                MeasurementStore(tmp_path / "s")

    def test_unreadable_metadata_rejected(self, tmp_path):
        MeasurementStore(tmp_path / "s").close()
        (tmp_path / "s" / "store.json").write_text("not json")
        with pytest.raises(StoreError):
            MeasurementStore(tmp_path / "s")


def _flip_byte_in_record(store_root, key):
    """Flip one payload byte of ``key``'s record on disk."""
    probe = MeasurementStore(store_root)
    shard = probe._shard_of(key)
    probe.close()
    path = store_root / "segments" / f"shard-{shard:02x}.seg"
    target = frame_record(doc(key, "victim"))
    data = bytearray(path.read_bytes())
    start = bytes(data).index(target)
    data[start + HEADER_SIZE] ^= 0xFF
    path.write_bytes(bytes(data))


class TestVerifyAndGc:
    def test_verify_clean(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("k1"))
            report = store.verify()
        assert report.clean
        assert report.records_ok == 1

    def test_verify_flags_flipped_byte(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("aa", "victim"))
            store.put(doc("bb", "bystander"))
        _flip_byte_in_record(tmp_path / "s", "aa")
        with MeasurementStore(tmp_path / "s") as store:
            report = store.verify()
            assert not report.clean
            assert len(report.corrupt) == 1
            assert "checksum" in report.corrupt[0].reason
            # The damaged record is gone from the index, not the store.
            assert store.get("aa") is None
            assert store.get("bb") == doc("bb", "bystander")

    def test_gc_drops_corrupt_and_superseded(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("aa", "victim"))
            store.put(doc("bb", "old"))
            store.put(doc("bb", "new"))
            store.put(doc("cc", 3))
        _flip_byte_in_record(tmp_path / "s", "aa")
        with MeasurementStore(tmp_path / "s") as store:
            dropped = store.gc()
            assert dropped == {
                "dropped_corrupt": 1, "dropped_superseded": 1,
            }
            assert store.verify().clean
            assert store.get("bb") == doc("bb", "new")
            assert store.get("cc") == doc("cc", 3)
            assert len(store) == 2
        # Still clean and complete after reopen.
        with MeasurementStore(tmp_path / "s") as store:
            assert len(store) == 2
            assert store.verify().clean

    def test_gc_noop_on_clean_store(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("k1"))
            assert store.gc() == {
                "dropped_corrupt": 0, "dropped_superseded": 0,
            }
            assert store.get("k1") == doc("k1")

    def test_truncated_tail_recovered_on_open(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("k1", 1))
            shard = store._shard_of("k1")
        path = tmp_path / "s" / "segments" / f"shard-{shard:02x}.seg"
        with open(path, "ab") as handle:
            handle.write(frame_record(doc("k2", 2))[:-4])  # crash mid-append
        with MeasurementStore(tmp_path / "s") as store:
            assert store.get("k1") == doc("k1", 1)
            assert store.get("k2") is None
            assert store.verify().clean  # tail was trimmed on open


def _segment_bytes(root):
    return {
        path.name: path.read_bytes()
        for path in sorted((root / "segments").iterdir())
    }


class TestGroupCommit:
    #: Keys over several shards, one of them written twice.
    DOCUMENTS = [
        doc(f"{index * 0x9E3779B1 & 0xFFFFFFFF:08x}", index)
        for index in range(40)
    ] + [doc(f"{7 * 0x9E3779B1 & 0xFFFFFFFF:08x}", "again")]

    def test_put_many_equals_one_put_per_record(self, tmp_path):
        with MeasurementStore(tmp_path / "one") as one:
            for document in self.DOCUMENTS:
                one.put(document)
        with MeasurementStore(tmp_path / "many") as many:
            many.put_many(self.DOCUMENTS[:25])
            many.put_many(self.DOCUMENTS[25:])
        assert _segment_bytes(tmp_path / "many") == _segment_bytes(
            tmp_path / "one"
        )
        assert many._index == one._index
        assert list(many.keys()) == list(one.keys())
        assert many.appended == one.appended == {"artifact": 41}
        assert many.superseded == one.superseded == 1
        with MeasurementStore(tmp_path / "many") as reopened:
            assert reopened._index == one._index

    def test_one_fsync_per_touched_shard(self, tmp_path, monkeypatch):
        fsynced = []
        real_fsync = os.fsync
        documents = self.DOCUMENTS[:8] + self.DOCUMENTS[-1:]
        with MeasurementStore(tmp_path / "s") as store:
            shards = {
                store._shard_of(document["key"]) for document in documents
            }
            assert 1 < len(shards) < len(documents)

            def counting_fsync(fd):
                fsynced.append(fd)
                real_fsync(fd)

            monkeypatch.setattr(segmod.os, "fsync", counting_fsync)
            store.put_many(documents)
            assert len(fsynced) == len(shards)
            store.put_many([])
            assert len(fsynced) == len(shards)


class TestInfo:
    def test_info_counts(self, tmp_path):
        with MeasurementStore(tmp_path / "s") as store:
            store.put(doc("k1"))
            store.put(doc("k2"))
            info = store.info()
        assert info["records"] == 2
        assert info["artifact_records"] == 2
        assert info["slash24_records"] == 0
        assert info["format_version"] == FORMAT_VERSION
        assert info["bytes"] > 0


class TestKeyFingerprints:
    """Known answers: a store written by one process must be found by
    every other, so the key functions may never drift silently."""

    def test_digest_is_blake2b_128(self):
        # The published BLAKE2b-128 digest of the empty string.
        assert digest("") == "cae66941d9efbd404e4d88758ea67670"
        assert (
            digest("slash24::abc::10.0.0.0/24::00")
            == "ab42b8939020f494be631464d8b4f5ec"
        )

    def test_active_list_fingerprint(self):
        assert active_list_fingerprint([]) == 0xB4B2797457A0A6E4
        assert (
            active_list_fingerprint([0x0A000001, 0x0A000042, 0x0A0000FE])
            == 0xB8181BC55A755B5D
        )
        packed = bytes([1, 0, 0, 0, 0, 1, 0, 0])  # 1 and 256, <u4
        assert active_list_fingerprint([1, 256]) == int.from_bytes(
            hashlib.blake2b(packed, digest_size=8).digest(), "little"
        )
        assert active_list_fingerprint([1, 256]) != active_list_fingerprint(
            [256, 1]
        )

    def test_observation_map_fingerprint(self):
        # The digest of the dataset's canonical JSON, as the store keeps it.
        dataset = {Prefix.parse("10.0.0.0/24"): {5: frozenset({2, 1})}}
        assert observation_map_fingerprint(dataset) == (
            digest('{"10.0.0.0/24":{"5":[1,2]}}')
        ) == "4500bd4583998ef6da74721ad0ab8b8f"
