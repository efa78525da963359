"""Binding between a campaign run and the measurement store.

:class:`CampaignCache` pins one campaign's full input fingerprint
(scenario, policy, seed, clock base, destination cap) and exposes the
operations the campaign executor needs: look up a /24's stored
measurement, record a freshly measured one, and commit the recorded
/24s durably. A lookup hands back the stored mapping itself, which the
executor appends straight into its columnar result
(:meth:`repro.core.columnar.CampaignResult.add_stored`). Keys also
cover the /24's snapshot active list, so a snapshot taken at a
different epoch can never satisfy a lookup.

Checkpoints are group commits: :meth:`CampaignCache.record` buffers,
and :meth:`CampaignCache.commit` writes the buffer with one
:meth:`MeasurementStore.put_many` — one lock, one tail check and one
fsync per touched shard. ``record`` commits by itself every
:data:`COMMIT_EVERY` /24s, so a crash loses at most that many
uncommitted /24s, which the resumed campaign re-measures
byte-identically. A ``workers=N`` campaign records the chunks its
workers send back through the parent's one cache, so a campaign always
has a single writer.

The campaign executor binds the store it is given to a
:class:`CampaignCache` itself, importing this package only then, which
keeps ``repro.core`` free of a dependency cycle on ``repro.store``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.classifier import Slash24Measurement
from ..net.prefix import Prefix
from ..obs.trace import trace_event
from ..probing.session import ProbeStats
from .codec import KIND_SLASH24, slash24_record
from .fingerprint import (
    campaign_fingerprint,
    measurement_key,
    policy_fingerprint,
    scenario_fingerprint,
)
from .store import MeasurementStore

#: /24s a campaign buffers before :meth:`CampaignCache.record` commits
#: them by itself, and so the most a crash can lose. At 256, a serial
#: 5,331-/24 campaign over a 16-shard store makes 336 fsyncs instead of
#: 5,331; groups of 1,024 ran only a few percent faster. It also caps
#: the chunks a ``workers=N`` campaign hands its workers.
COMMIT_EVERY = 256


class CampaignCache:
    """One campaign's view of a store: lookups and checkpoints."""

    def __init__(
        self, store: MeasurementStore, campaign: str
    ) -> None:
        self.store = store
        self.campaign = campaign
        #: Cache hits / fresh checkpoints this run (diagnostics and the
        #: warm-run assertions in CI).
        self.hits = 0
        self.misses = 0
        #: Recorded, not yet committed: (document, prefix, probes sent).
        self._pending: List[Tuple[Dict[str, Any], Prefix, int]] = []

    @classmethod
    def bind(
        cls,
        store: MeasurementStore,
        internet,
        policy,
        seed: int,
        clock_base: float,
        max_destinations: Optional[int],
    ) -> "CampaignCache":
        """Fingerprint a campaign configuration against a store."""
        campaign = campaign_fingerprint(
            scenario_fingerprint(internet.config),
            policy_fingerprint(policy),
            seed,
            clock_base,
            max_destinations,
        )
        return cls(store, campaign)

    def key_for(self, slash24: "Prefix | str", active: Sequence[int]) -> str:
        """The store key of ``slash24`` (a /24, or its text) with
        snapshot active addresses ``active`` (a list, or the snapshot's
        ``<u4`` slice)."""
        return measurement_key(self.campaign, slash24, active)

    def lookup(
        self, text: str, key: str
    ) -> Optional[Tuple[Mapping[str, Any], ProbeStats]]:
        """The stored measurement mapping (the
        :func:`~repro.store.codec.measurement_to_dict` form) and probe
        stats of the /24 whose text is ``text``, under its
        :meth:`key_for` key, if stored."""
        document = self.store.get(key)
        if document is None or document.get("kind") != KIND_SLASH24:
            self.misses += 1
            return None
        measurement = document["measurement"]
        if measurement["slash24"] != text:
            # A (vanishingly unlikely) key collision or a hand-edited
            # store; never serve another /24's data.
            self.misses += 1
            return None
        stats = ProbeStats.from_dict(document["stats"])
        self.hits += 1
        trace_event("store.replay", prefix=text, probes_saved=stats.sent)
        return measurement, stats

    def record(
        self,
        slash24: Prefix,
        key: str,
        measurement: Slash24Measurement,
        stats: ProbeStats,
    ) -> None:
        """Buffer one freshly measured /24 under its :meth:`key_for` key
        for the next commit; every :data:`COMMIT_EVERY` buffered /24s are
        committed here."""
        document = slash24_record(key, self.campaign, measurement, stats)
        self._pending.append((document, slash24, stats.sent))
        if len(self._pending) >= COMMIT_EVERY:
            self.commit()

    def commit(self) -> None:
        """Durably write every buffered /24 in one group commit.

        The buffer is emptied before the write, so a commit that raises
        is not retried: its /24s are lost like any uncommitted ones, and
        a resumed campaign re-measures them.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.store.put_many([document for document, _, _ in pending])
        for _, slash24, sent in pending:
            trace_event("store.checkpoint", prefix=slash24, probes=sent)
