"""Crash-safe on-disk measurement store (checkpoint/resume campaigns).

PR 2 made each /24's measurement a pure function of (campaign seed,
policy, scenario, prefix); this package makes those results *durable*:
an append-only, sharded, checksummed journal keyed by a content hash of
the full measurement inputs. Campaigns checkpoint every completed /24
and skip already-stored ones on restart, turning warm reruns into pure
re-analysis with zero re-probing.
"""

from .campaign import CampaignCache
from .codec import (
    KIND_ARTIFACT,
    KIND_SLASH24,
    RecordCorrupt,
    artifact_record,
    canonical_dataset_order,
    confidence_table_from_dict,
    confidence_table_to_dict,
    measurement_to_dict,
    observation_map_from_dict,
    observation_map_to_dict,
    route_dataset_from_dict,
    route_dataset_to_dict,
    slash24_record,
)
from .fingerprint import (
    artifact_key,
    campaign_fingerprint,
    confidence_table_fingerprint,
    measurement_key,
    observation_map_fingerprint,
    policy_fingerprint,
    scenario_fingerprint,
)
from .locking import FileLock
from .segment import CorruptRecord
from .store import MeasurementStore, StoreError, VerifyReport

__all__ = [
    "CampaignCache",
    "CorruptRecord",
    "FileLock",
    "KIND_ARTIFACT",
    "KIND_SLASH24",
    "MeasurementStore",
    "RecordCorrupt",
    "StoreError",
    "VerifyReport",
    "artifact_key",
    "artifact_record",
    "campaign_fingerprint",
    "canonical_dataset_order",
    "confidence_table_fingerprint",
    "confidence_table_from_dict",
    "confidence_table_to_dict",
    "measurement_key",
    "measurement_to_dict",
    "observation_map_fingerprint",
    "observation_map_from_dict",
    "observation_map_to_dict",
    "policy_fingerprint",
    "route_dataset_from_dict",
    "route_dataset_to_dict",
    "scenario_fingerprint",
    "slash24_record",
]
