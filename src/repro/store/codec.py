"""Canonical record encoding for the measurement store.

Records are JSON documents rendered canonically (sorted keys, compact
separators, UTF-8) and framed for the append-only segment files as::

    MAGIC(4) | payload length (4, big-endian) | CRC32(payload) (4) | payload

The CRC protects each record independently, so one flipped byte damages
exactly one record; the length prefix lets a reader skip a damaged
record and keep scanning. JSON keeps records inspectable with standard
tools, and canonical rendering makes the bytes — and hence the CRC — a
pure function of the record's content.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, Mapping, Tuple

from ..core.classifier import Slash24Measurement
from ..core.confidence import ConfidenceTable
from ..net.prefix import Prefix
from ..probing.session import ProbeStats

MAGIC = b"HBS1"
_HEADER = struct.Struct(">4sII")
HEADER_SIZE = _HEADER.size

#: Record kinds. ``slash24`` records hold one /24's measurement and its
#: probe accounting; ``artifact`` records hold arbitrary JSON payloads
#: (e.g. the exhaustive confidence dataset) under a fingerprint key.
KIND_SLASH24 = "slash24"
KIND_ARTIFACT = "artifact"


class RecordCorrupt(ValueError):
    """A framed record failed its checksum or could not be decoded."""


#: The C scanner behind ``json.loads``, called once per payload without
#: ``loads``'s whitespace handling: canonical payloads have none, so
#: anything after the one document is trailing data.
_raw_decode = json.JSONDecoder().raw_decode


def canonical_json_bytes(document: Mapping[str, Any]) -> bytes:
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


def frame_record(document: Mapping[str, Any]) -> bytes:
    """One record's full on-disk bytes (header + payload)."""
    payload = canonical_json_bytes(document)
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def parse_header(header: bytes) -> Tuple[int, int]:
    """(payload length, expected CRC) from a 12-byte header."""
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise RecordCorrupt(f"bad record magic {magic!r}")
    return length, crc


def decode_payload(payload: bytes, expected_crc: int) -> Dict[str, Any]:
    if zlib.crc32(payload) != expected_crc:
        raise RecordCorrupt("record checksum mismatch")
    try:
        text = payload.decode("utf-8")
        document, end = _raw_decode(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RecordCorrupt(f"record payload undecodable: {error}") from error
    if end != len(text):
        raise RecordCorrupt(
            f"record payload has trailing data at offset {end}"
        )
    if not isinstance(document, dict):
        raise RecordCorrupt("record payload is not an object")
    return document


# -- measurement round-trip -------------------------------------------------


def measurement_to_dict(measurement: Slash24Measurement) -> Dict[str, Any]:
    """Plain-JSON form of one /24's measurement. A warm campaign
    appends it straight into its columns
    (:meth:`repro.core.columnar.CampaignResult.add_stored`), with the
    rows :meth:`~repro.core.columnar.CampaignResult.add` of the
    measurement would give."""
    return {
        "slash24": str(measurement.slash24),
        "category": measurement.category.value,
        # JSON objects need string keys; router sets are sorted so the
        # canonical bytes are content-determined.
        "observations": {
            str(dst): sorted(lasthops)
            for dst, lasthops in measurement.observations.items()
        },
        "destinations_probed": measurement.destinations_probed,
        "hosts_responsive": measurement.hosts_responsive,
        "probes_used": measurement.probes_used,
        "stop_reason": (
            measurement.stop_reason.value
            if measurement.stop_reason is not None
            else None
        ),
    }


def slash24_record(
    key: str,
    campaign: str,
    measurement: Slash24Measurement,
    stats: ProbeStats,
) -> Dict[str, Any]:
    return {
        "kind": KIND_SLASH24,
        "key": key,
        "campaign": campaign,
        "measurement": measurement_to_dict(measurement),
        "stats": stats.to_dict(),
    }


def artifact_record(key: str, value: Any) -> Dict[str, Any]:
    return {"kind": KIND_ARTIFACT, "key": key, "value": value}


# -- auxiliary dataset round-trips ------------------------------------------
#
# The probe-heavy workspace artifacts (the exhaustive confidence dataset
# and the full-path traceroute dataset) and the confidence table trained
# on the first are cached as artifact records; their nested
# prefix/address/frozenset structures flatten to JSON here.


def canonical_dataset_order(datasets: Mapping) -> Dict:
    """Same contents, canonical iteration order: prefixes ascending,
    addresses ascending within each /24. Dict order feeds downstream
    sampling RNGs (confidence-table training, Figure 11 curves), so a
    fresh build and a cache restore must iterate identically — JSON's
    string-sorted keys would otherwise scramble it."""
    return {
        slash24: {dst: per_dst[dst] for dst in sorted(per_dst)}
        for slash24, per_dst in sorted(datasets.items())
    }


def observation_map_to_dict(
    datasets: Mapping[Prefix, Mapping[int, frozenset]],
) -> Dict[str, Dict[str, list]]:
    """/24 → address → last-hop set, flattened for JSON."""
    return {
        str(slash24): {
            str(dst): sorted(lasthops)
            for dst, lasthops in observations.items()
        }
        for slash24, observations in datasets.items()
    }


def observation_map_from_dict(
    data: Mapping[str, Mapping[str, list]],
) -> Dict[Prefix, Dict[int, frozenset]]:
    return canonical_dataset_order({
        Prefix.parse(slash24): {
            int(dst): frozenset(lasthops)
            for dst, lasthops in observations.items()
        }
        for slash24, observations in data.items()
    })


def _route_sort_key(route) -> Tuple[int, Tuple[int, ...]]:
    # Routes are tuples of hop addresses with None for silent hops.
    return (len(route), tuple(-1 if hop is None else hop for hop in route))


def route_dataset_to_dict(
    datasets: Mapping[Prefix, Mapping[int, frozenset]],
) -> Dict[str, Dict[str, list]]:
    """/24 → address → route set (tuples of optional hop addresses)."""
    return {
        str(slash24): {
            str(dst): [list(route) for route in sorted(routes, key=_route_sort_key)]
            for dst, routes in per_dst.items()
        }
        for slash24, per_dst in datasets.items()
    }


def route_dataset_from_dict(
    data: Mapping[str, Mapping[str, list]],
) -> Dict[Prefix, Dict[int, frozenset]]:
    return canonical_dataset_order({
        Prefix.parse(slash24): {
            int(dst): frozenset(
                tuple(None if hop is None else int(hop) for hop in route)
                for route in routes
            )
            for dst, routes in per_dst.items()
        }
        for slash24, per_dst in data.items()
    })


def confidence_table_to_dict(table: ConfidenceTable) -> Dict[str, Any]:
    """A trained table's ``min_trials`` and its cells, as
    [cardinality, probed, successes, trials] rows in insertion order."""
    return {
        "min_trials": table.min_trials,
        "cells": [
            [cardinality, probed, cell.successes, cell.trials]
            for (cardinality, probed), cell in table.cells().items()
        ],
    }


def confidence_table_from_dict(data: Mapping[str, Any]) -> ConfidenceTable:
    return ConfidenceTable.from_cells(
        (
            (int(cardinality), int(probed), int(successes), int(trials))
            for cardinality, probed, successes, trials in data["cells"]
        ),
        min_trials=int(data["min_trials"]),
    )
