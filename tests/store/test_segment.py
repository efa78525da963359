"""Segment framing, scanning, and crash recovery."""

import zlib

import pytest

from repro.store.codec import (
    HEADER_SIZE,
    RecordCorrupt,
    decode_payload,
    frame_record,
    parse_header,
)
from repro.store.segment import append, recover, scan


def write_segment(path, documents):
    with open(path, "wb") as handle:
        for document in documents:
            append(handle, frame_record(document), fsync=False)


DOCS = [
    {"key": "aa", "kind": "artifact", "value": 1},
    {"key": "bb", "kind": "artifact", "value": [2, 3]},
    {"key": "cc", "kind": "artifact", "value": {"x": "y"}},
]


class TestFraming:
    def test_round_trip(self):
        frame = frame_record(DOCS[0])
        length, crc = parse_header(frame[:HEADER_SIZE])
        payload = frame[HEADER_SIZE:]
        assert len(payload) == length
        assert decode_payload(payload, crc) == DOCS[0]

    def test_canonical_bytes_are_stable(self):
        assert frame_record({"b": 1, "a": 2}) == frame_record({"a": 2, "b": 1})

    def test_bad_magic_rejected(self):
        with pytest.raises(RecordCorrupt):
            parse_header(b"XXXX" + b"\x00" * (HEADER_SIZE - 4))

    def test_crc_mismatch_rejected(self):
        frame = frame_record(DOCS[0])
        _, crc = parse_header(frame[:HEADER_SIZE])
        with pytest.raises(RecordCorrupt):
            decode_payload(frame[HEADER_SIZE:] + b"", crc ^ 1)

    @pytest.mark.parametrize("payload", [
        b'{"key":"aa"}{"key":"bb"}',
        b'{"key":"aa"} ',
        b'{"key":"aa"',
        b"\xff\xfe",
        b"[1,2]",
    ], ids=["second-document", "trailing-space", "unterminated",
            "not-utf8", "not-an-object"])
    def test_undecodable_payload_rejected(self, payload):
        """A payload whose checksum holds but which is not exactly one
        JSON object is corrupt."""
        with pytest.raises(RecordCorrupt):
            decode_payload(payload, zlib.crc32(payload))


class TestScan:
    def test_intact_segment(self, tmp_path):
        path = tmp_path / "seg"
        write_segment(path, DOCS)
        outcome = scan(path)
        assert [doc for _, doc in outcome.records] == DOCS
        assert outcome.corrupt == []
        assert not outcome.has_truncated_tail

    def test_truncated_tail_detected(self, tmp_path):
        path = tmp_path / "seg"
        write_segment(path, DOCS)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(frame_record(DOCS[0])[:-3])  # interrupted append
        outcome = scan(path)
        assert outcome.has_truncated_tail
        assert outcome.tail_offset == intact_size
        assert [doc for _, doc in outcome.records] == DOCS

    def test_flipped_byte_flags_one_record(self, tmp_path):
        path = tmp_path / "seg"
        write_segment(path, DOCS)
        first_length = len(frame_record(DOCS[0]))
        data = bytearray(path.read_bytes())
        data[first_length + HEADER_SIZE + 2] ^= 0xFF  # inside record 2
        path.write_bytes(bytes(data))
        outcome = scan(path)
        # Exactly the damaged record is lost; its neighbours survive.
        assert [doc for _, doc in outcome.records] == [DOCS[0], DOCS[2]]
        assert len(outcome.corrupt) == 1
        assert outcome.corrupt[0].offset == first_length
        assert not outcome.has_truncated_tail

    def test_garbled_header_stops_scan(self, tmp_path):
        path = tmp_path / "seg"
        write_segment(path, DOCS)
        first_length = len(frame_record(DOCS[0]))
        data = bytearray(path.read_bytes())
        data[first_length] ^= 0xFF  # corrupt record 2's magic
        path.write_bytes(bytes(data))
        outcome = scan(path)
        assert [doc for _, doc in outcome.records] == [DOCS[0]]
        assert len(outcome.corrupt) == 1
        assert outcome.has_truncated_tail  # rest is unreadable


class TestRecover:
    def test_trims_truncated_tail(self, tmp_path):
        path = tmp_path / "seg"
        write_segment(path, DOCS)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01\x02")
        outcome = recover(path)
        assert path.stat().st_size == intact_size
        assert outcome.size == intact_size
        assert [doc for _, doc in outcome.records] == DOCS
        # Appending after recovery yields a clean segment again.
        with open(path, "ab") as handle:
            append(handle, frame_record({"key": "dd"}), fsync=False)
        assert not scan(path).has_truncated_tail

    def test_noop_on_clean_segment(self, tmp_path):
        path = tmp_path / "seg"
        write_segment(path, DOCS)
        size = path.stat().st_size
        recover(path)
        assert path.stat().st_size == size
