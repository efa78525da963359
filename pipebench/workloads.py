"""The benchmark's workloads and the scenario scale they share."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Scenario scale of every workload (``paper-smoke`` is 2.2): about
#: 5.3k eligible /24s, a cold-store sample of 30-50 s of wall time on a
#: 2-vCPU shared host, so that a few dozen runs per workload fit in an
#: hour.
SCALE = 0.25

#: Store kinds: a fresh empty store, or a copy of a store filled
#: beforehand by an untimed run of the same seed.
FRESH_STORE, PREFILLED_STORE = "fresh", "prefilled"


@dataclass(frozen=True)
class Workload:
    store: str
    why: str


#: Every workload runs one worker with the ``paper-smoke`` knobs at
#: ``SCALE``, events off.
WORKLOADS: Dict[str, Workload] = {
    "cold-store": Workload(
        FRESH_STORE,
        "every layer probes from scratch and writes each /24 and "
        "artifact to a fresh store; probe-engine and store-write work "
        "show here",
    ),
    "warm": Workload(
        PREFILLED_STORE,
        "re-analysis from a filled store, 0 probes; store reads, codec, "
        "confidence table and MCL show here",
    ),
}
