"""Canonical digest of one pipeline run's outputs.

Every run of a seed, on every workload, must produce the same digest:
the store, the worker count and tracing may change how the pipeline
runs, never what it finds. The digest covers each /24's category,
last-hop set and probe count, the final blocks, and the strict
heterogeneity verdicts, each in an order fixed by the data alone.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Tuple


def outputs_document(
    measurements: Iterable[Tuple[str, str, Iterable[int], int]],
    blocks: Iterable[Tuple[Iterable[str], Iterable[int]]],
    strict_het: Mapping[str, bool],
) -> dict:
    """The canonical form of a run's outputs.

    ``measurements`` holds (/24, category, last-hop set, probes) rows,
    ``blocks`` (member /24s, last-hop set) pairs and ``strict_het``
    maps a /24 to its strict-heterogeneity verdict. Every collection
    is sorted, so neither the program's iteration order nor dict
    insertion order reaches the digest.
    """
    return {
        "slash24s": sorted(
            [prefix, category, sorted(lasthops), int(probes)]
            for prefix, category, lasthops, probes in measurements
        ),
        "blocks": sorted(
            [sorted(members), sorted(lasthops)] for members, lasthops in blocks
        ),
        "strict_het": sorted(
            [prefix, bool(verdict)] for prefix, verdict in strict_het.items()
        ),
    }


def digest(document: dict) -> str:
    """SHA-256 of the document's canonical JSON."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
