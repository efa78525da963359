"""Content fingerprints for cache keys.

A stored measurement is only reusable if *every* input that shaped it is
identical: the simulated Internet (scenario config), the termination /
confidence policy (including the trained confidence table the policy
consults), the campaign seed, the virtual-clock base the campaign
started from, the per-/24 destination cap, and the /24's snapshot active
list. Each of those is reduced to a stable fingerprint here, and the
per-/24 cache key mixes them all — so any drift in any input produces a
clean cache miss and a fresh measurement, never a silently stale hit.

Fingerprints are 128-bit BLAKE2b digests of a canonical description
string, as 32 hex digits (64 bits would make birthday collisions
plausible over long-lived stores). An active list is hashed as its
addresses packed little-endian, four bytes each, into a 64-bit BLAKE2b
digest. Every key the store holds is built from these two functions, so
changing either changes every key: the store's ``FORMAT_VERSION`` goes
up with them, and an older store is refused rather than missed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..core.confidence import ConfidenceTable
from ..core.termination import ExhaustivePolicy, ReprobePolicy, TerminationPolicy
from ..net.prefix import Prefix
from .codec import canonical_json_bytes, observation_map_to_dict


def digest(text: str) -> str:
    """128-bit hex fingerprint of a canonical description string."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def scenario_fingerprint(config) -> str:
    """Fingerprint of a :class:`ScenarioConfig`.

    The config is a frozen dataclass tree of primitives and tuples, so
    its repr is a complete, deterministic description of the scenario
    (``seed`` included — same orgs with a different seed is a different
    simulated Internet).
    """
    return digest(f"scenario::{config!r}")


def confidence_table_fingerprint(table: Optional[ConfidenceTable]) -> str:
    """Fingerprint of a trained confidence table's full contents."""
    if table is None:
        return digest("confidence-table::none")
    cells = sorted(
        (card, probed, cell.successes, cell.trials)
        for (card, probed), cell in table.cells().items()
    )
    return digest(f"confidence-table::{table.min_trials}::{cells!r}")


def observation_map_fingerprint(
    datasets: Mapping[Prefix, Mapping[int, frozenset]],
) -> str:
    """Fingerprint of an observation dataset's canonical JSON, the form
    the store keeps it in: a changed /24, address or last hop changes
    it."""
    document = observation_map_to_dict(datasets)
    return digest(canonical_json_bytes(document).decode("ascii"))


def policy_fingerprint(policy) -> str:
    """Fingerprint of a termination/reprobe policy, confidence table
    included.

    Policies outside the built-in trio may provide their own token via a
    ``store_fingerprint()`` method; otherwise their repr is used (fine
    for parameter-only dataclasses, and any instability there only costs
    cache hits, never correctness).
    """
    token = getattr(policy, "store_fingerprint", None)
    if callable(token):
        return digest(f"policy-custom::{token()}")
    if isinstance(policy, TerminationPolicy):
        table = confidence_table_fingerprint(policy.confidence_table)
        return digest(
            "policy-termination::"
            f"{policy.confidence_level!r}::{policy.single_lasthop_rule}::"
            f"{policy.single_lasthop_probes}::"
            f"{policy.stop_on_non_hierarchical}::{table}"
        )
    if isinstance(policy, ReprobePolicy):
        return digest(f"policy-reprobe::{policy.confidence_level!r}")
    if isinstance(policy, ExhaustivePolicy):
        return digest("policy-exhaustive")
    return digest(f"policy-{type(policy).__qualname__}::{policy!r}")


def campaign_fingerprint(
    scenario: str,
    policy: str,
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
) -> str:
    """Fingerprint shared by every /24 of one campaign configuration;
    recorded on each measurement record so ``store ls`` can group them."""
    return digest(
        f"campaign::{scenario}::{policy}::{seed}::"
        f"{clock_base!r}::{max_destinations!r}"
    )


def active_list_fingerprint(active: Sequence[int]) -> int:
    """64-bit hash of one /24's snapshot active addresses: a list of
    ints, or the snapshot's ``<u4`` slice, whose bytes are hashed as
    they are."""
    packed = np.asarray(active, dtype="<u4")
    return int.from_bytes(
        hashlib.blake2b(packed, digest_size=8).digest(), "little"
    )


def measurement_key(
    campaign: str, slash24: "Prefix | str", active: Sequence[int]
) -> str:
    """Cache key of one /24's measurement within a campaign; the /24
    enters by its text, so its ``str`` may be passed instead."""
    return digest(
        f"slash24::{campaign}::{slash24}::{active_list_fingerprint(active):016x}"
    )


def artifact_key(scenario: str, name: str, params: Iterable[object]) -> str:
    """Cache key for a named auxiliary artifact (e.g. the exhaustive
    confidence dataset) built from a scenario with given parameters."""
    rendered = "::".join(repr(p) for p in params)
    return digest(f"artifact::{scenario}::{name}::{rendered}")
