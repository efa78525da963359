"""Campaign results as flat numpy arrays instead of objects.

A paper-scale campaign covers millions of /24s; holding one
:class:`~repro.core.classifier.Slash24Measurement` (a dataclass, a dict,
and a frozenset per destination) per /24 costs hundreds of bytes of
Python object headers each and makes whole-campaign summaries
(Table 1 counts, homogeneous masks) walk millions of attribute lookups.
:class:`CampaignResult` stores the same information as ten flat
arrays:

====================  ======  ===============================================
column                dtype   meaning (one row per measured /24)
====================  ======  ===============================================
``nets``              uint32  /24 network address
``cats``              uint8   category code (``classifier.CATEGORY_ORDER``)
``stops``             int8    stop-reason code, ``NO_STOP_CODE`` if none
``dests``             int32   destinations probed
``hosts``             int32   responsive hosts
``probes``            int64   probes used
``obs_lo``/``obs_hi`` int64   this /24's row range in the destination pool
====================  ======  ===============================================

plus a two-level ragged pool shared by every row: ``dst_pool`` (uint32
destination addresses, one row per observed destination) with
``lh_lo``/``lh_hi`` indices into ``lh_pool`` (uint32 last-hop router
addresses, stored sorted). Category/stop enums round-trip through the
positional code tables in :mod:`repro.core.classifier`; whole-campaign
classification summaries reduce to ``np.bincount`` over the code column
with the ``ANALYZABLE_BY_CODE``/``HOMOGENEOUS_BY_CODE`` masks.

Rows come in through one private row writer: ``add`` folds a measured
:class:`Slash24Measurement` in, and ``add_stored`` appends a /24
replayed from the measurement store straight from its stored mapping,
building no object. The API (``subset``, iteration, a
``measurements`` mapping, ``get``, ``by_category``) materializes
:class:`Slash24Measurement` objects lazily, one at a time, only where a
caller asks for them; the Table 1 counts, the masks, ``lasthop_sets``
and scoring read the columns.
``subset`` is a **view**: the selected rows' fixed-width columns are
fancy-indexed (O(selection)) while the ragged pools are shared with the
parent by reference, so carving a handful of /24s out of a million-row
result does not copy the campaign.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..net.prefix import Prefix
from .classifier import (
    ANALYZABLE_BY_CODE,
    CATEGORY_CODES,
    CATEGORY_CODES_BY_VALUE,
    CATEGORY_ORDER,
    HOMOGENEOUS_BY_CODE,
    NO_STOP_CODE,
    STOP_REASON_CODES,
    STOP_REASON_CODES_BY_VALUE,
    STOP_REASON_ORDER,
    Category,
    Slash24Measurement,
)

_ANALYZABLE_MASK = np.array(ANALYZABLE_BY_CODE, dtype=bool)
_HOMOGENEOUS_MASK = np.array(HOMOGENEOUS_BY_CODE, dtype=bool)


def _stored_code(codes: Mapping, value, field: str, key: str) -> int:
    """The code of a stored enum string; ValueError naming the record's
    store key if the string is unknown."""
    try:
        return codes[value]
    except (KeyError, TypeError):
        raise ValueError(
            f"store record {key} has an unknown {field} {value!r}"
        ) from None


class CampaignResult:
    """Outcome of measuring a set of /24s, stored as flat arrays (see
    module docstring)."""

    def __init__(self) -> None:
        self.probes_used = 0
        #: network address → row; insertion order is row order.
        self._index: Dict[int, int] = {}
        self._arrays: Optional[dict] = None
        # Staged (not yet finalized) rows, as plain Python lists.
        self._s_nets: List[int] = []
        self._s_cats: List[int] = []
        self._s_stops: List[int] = []
        self._s_dests: List[int] = []
        self._s_hosts: List[int] = []
        self._s_probes: List[int] = []
        self._s_obs_lo: List[int] = []
        self._s_obs_hi: List[int] = []
        self._s_dst_pool: List[int] = []
        self._s_lh_lo: List[int] = []
        self._s_lh_hi: List[int] = []
        self._s_lh_pool: List[int] = []

    # -- construction -----------------------------------------------------

    def add(self, measurement: Slash24Measurement) -> None:
        """Fold one /24's measurement into the columns and drop the
        object.

        Raises ValueError on a duplicate prefix: accepting it would
        count its probes twice in the campaign's headline probe-cost
        numbers.
        """
        slash24 = measurement.slash24
        if slash24.length != 24:
            raise ValueError(
                f"campaign results hold /24 measurements, got {slash24}"
            )
        self._append_row(
            slash24.network,
            CATEGORY_CODES[measurement.category],
            NO_STOP_CODE
            if measurement.stop_reason is None
            else STOP_REASON_CODES[measurement.stop_reason],
            measurement.destinations_probed,
            measurement.hosts_responsive,
            measurement.probes_used,
            [
                (dst, sorted(lasthops))
                for dst, lasthops in measurement.observations.items()
            ],
        )

    def add_stored(
        self, network: int, data: Mapping, key: str
    ) -> Category:
        """Append the /24 at ``network`` from its stored form (the
        mapping :func:`repro.store.codec.measurement_to_dict` writes,
        under store key ``key``) without building a measurement, and
        return its category.

        Destinations keep their stored order, and each one's last hops
        become sorted unique values, as :meth:`add` of the decoded
        measurement would store them. An unknown category or stop-reason
        string raises ValueError naming ``key``; a duplicate prefix
        raises as in :meth:`add`.
        """
        category = _stored_code(
            CATEGORY_CODES_BY_VALUE, data["category"], "category", key
        )
        stop_reason = data["stop_reason"]
        stop = NO_STOP_CODE if stop_reason is None else _stored_code(
            STOP_REASON_CODES_BY_VALUE, stop_reason, "stop reason", key
        )
        self._append_row(
            network,
            category,
            stop,
            int(data["destinations_probed"]),
            int(data["hosts_responsive"]),
            int(data["probes_used"]),
            [
                (int(dst), sorted(set(lasthops)))
                for dst, lasthops in data["observations"].items()
            ],
        )
        return CATEGORY_ORDER[category]

    def _append_row(
        self,
        network: int,
        category: int,
        stop: int,
        dests: int,
        hosts: int,
        probes: int,
        observations: List[Tuple[int, List[int]]],
    ) -> None:
        """Stage one /24's row: its codes and counts, and its
        (destination, sorted last hops) pairs in order."""
        if network in self._index:
            raise ValueError(
                f"duplicate measurement for {Prefix(network, 24)}: "
                "each /24 is measured exactly once per campaign"
            )
        self._index[network] = self.total
        self._s_nets.append(network)
        self._s_cats.append(category)
        self._s_stops.append(stop)
        self._s_dests.append(dests)
        self._s_hosts.append(hosts)
        self._s_probes.append(probes)
        dst_pool, lh_pool = self._s_dst_pool, self._s_lh_pool
        lh_lo, lh_hi = self._s_lh_lo, self._s_lh_hi
        base = self._pool_base()
        lh_base = self._lh_base()
        self._s_obs_lo.append(base + len(dst_pool))
        for dst, lasthops in observations:
            dst_pool.append(dst)
            lh_lo.append(lh_base + len(lh_pool))
            lh_pool.extend(lasthops)
            lh_hi.append(lh_base + len(lh_pool))
        self._s_obs_hi.append(base + len(dst_pool))
        self.probes_used += probes

    # -- storage ----------------------------------------------------------

    def _pool_base(self) -> int:
        arrays = self._arrays
        return len(arrays["dst_pool"]) if arrays is not None else 0

    def _lh_base(self) -> int:
        arrays = self._arrays
        return len(arrays["lh_pool"]) if arrays is not None else 0

    def _finalize(self) -> dict:
        """Convert staged rows into the array form (amortized; staged
        lists are cleared). Returns the array dict."""
        arrays = self._arrays
        if not self._s_nets and arrays is not None:
            return arrays
        staged = {
            "nets": np.array(self._s_nets, dtype=np.uint32),
            "cats": np.array(self._s_cats, dtype=np.uint8),
            "stops": np.array(self._s_stops, dtype=np.int8),
            "dests": np.array(self._s_dests, dtype=np.int32),
            "hosts": np.array(self._s_hosts, dtype=np.int32),
            "probes": np.array(self._s_probes, dtype=np.int64),
            "obs_lo": np.array(self._s_obs_lo, dtype=np.int64),
            "obs_hi": np.array(self._s_obs_hi, dtype=np.int64),
            "dst_pool": np.array(self._s_dst_pool, dtype=np.uint32),
            "lh_lo": np.array(self._s_lh_lo, dtype=np.int64),
            "lh_hi": np.array(self._s_lh_hi, dtype=np.int64),
            "lh_pool": np.array(self._s_lh_pool, dtype=np.uint32),
        }
        if arrays is None:
            self._arrays = staged
        else:
            # Staged offsets were recorded relative to the arrays they
            # now extend, so plain concatenation keeps them valid.
            self._arrays = {
                key: np.concatenate((arrays[key], staged[key]))
                for key in staged
            }
        for name in (
            "_s_nets", "_s_cats", "_s_stops", "_s_dests", "_s_hosts",
            "_s_probes", "_s_obs_lo", "_s_obs_hi", "_s_dst_pool",
            "_s_lh_lo", "_s_lh_hi", "_s_lh_pool",
        ):
            getattr(self, name).clear()
        return self._arrays

    def columns(self) -> dict:
        """The finalized column arrays (shared, do not mutate)."""
        return self._finalize()

    # -- materialization --------------------------------------------------

    def _materialize(self, arrays: dict, row: int) -> Slash24Measurement:
        observations: Dict[int, FrozenSet[int]] = {}
        lh_lo = arrays["lh_lo"]
        lh_hi = arrays["lh_hi"]
        lh_pool = arrays["lh_pool"]
        dst_pool = arrays["dst_pool"]
        for position in range(
            int(arrays["obs_lo"][row]), int(arrays["obs_hi"][row])
        ):
            lasthops = frozenset(
                int(a)
                for a in lh_pool[
                    int(lh_lo[position]): int(lh_hi[position])
                ]
            )
            observations[int(dst_pool[position])] = lasthops
        stop_code = int(arrays["stops"][row])
        return Slash24Measurement(
            slash24=Prefix(int(arrays["nets"][row]), 24),
            category=CATEGORY_ORDER[int(arrays["cats"][row])],
            observations=observations,
            destinations_probed=int(arrays["dests"][row]),
            hosts_responsive=int(arrays["hosts"][row]),
            probes_used=int(arrays["probes"][row]),
            stop_reason=(
                None if stop_code == NO_STOP_CODE
                else STOP_REASON_ORDER[stop_code]
            ),
        )

    # -- Table 1 ----------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self._index)

    def category_counts(self) -> Dict[Category, int]:
        arrays = self._finalize()
        counts = np.bincount(
            arrays["cats"], minlength=len(CATEGORY_ORDER)
        )
        return {
            category: int(counts[code])
            for code, category in enumerate(CATEGORY_ORDER)
        }

    def analyzable_mask(self) -> np.ndarray:
        """Boolean row mask of analyzable categories (vectorised)."""
        return _ANALYZABLE_MASK[self._finalize()["cats"]]

    def homogeneous_mask(self) -> np.ndarray:
        """Boolean row mask of homogeneous categories (vectorised)."""
        return _HOMOGENEOUS_MASK[self._finalize()["cats"]]

    def by_category(self, category: Category) -> List[Slash24Measurement]:
        arrays = self._finalize()
        code = CATEGORY_CODES[category]
        return [
            self._materialize(arrays, row)
            for row in np.flatnonzero(arrays["cats"] == code)
        ]

    def homogeneous_fraction_of_analyzable(self) -> float:
        analyzable = self.analyzable_mask()
        total = int(analyzable.sum())
        if not total:
            return 0.0
        return int(self.homogeneous_mask().sum()) / total

    def lasthop_sets(self) -> Dict[Prefix, FrozenSet[int]]:
        """Homogeneous /24 → union of its last-hop sets (the aggregation
        input of Section 5), straight off the pools (no per-/24 object
        materialization).

        A row's destinations hold consecutive runs of ``lh_pool``, so
        its last hops are the one slice from its first destination's
        start to its last one's end.
        """
        arrays = self._finalize()
        rows = np.flatnonzero(self.homogeneous_mask())
        obs_lo, obs_hi = arrays["obs_lo"][rows], arrays["obs_hi"][rows]
        observed = obs_hi > obs_lo
        rows = rows[observed]
        starts = arrays["lh_lo"][obs_lo[observed]]
        ends = arrays["lh_hi"][obs_hi[observed] - 1]
        lh_pool = arrays["lh_pool"]
        out: Dict[Prefix, FrozenSet[int]] = {}
        for network, start, end in zip(
            arrays["nets"][rows].tolist(), starts.tolist(), ends.tolist()
        ):
            if end > start:
                out[Prefix(network, 24)] = frozenset(
                    lh_pool[start:end].tolist()
                )
        return out

    # -- lookup & slicing -------------------------------------------------

    @property
    def measurements(self) -> "Mapping[Prefix, Slash24Measurement]":
        """Lazy prefix → measurement mapping: keys iterate in campaign
        input order, values materialize one at a time on access."""
        return _MeasurementsView(self)

    def __contains__(self, slash24: Prefix) -> bool:
        return slash24.length == 24 and slash24.network in self._index

    def __iter__(self) -> Iterator[Slash24Measurement]:
        """Lazily materialize measurements in campaign input order."""
        arrays = self._finalize()
        for row in range(self.total):
            yield self._materialize(arrays, row)

    def get(self, slash24: Prefix) -> Optional[Slash24Measurement]:
        row = self._index.get(slash24.network)
        if row is None or slash24.length != 24:
            return None
        return self._materialize(self._finalize(), row)

    def subset(self, slash24s: Iterable[Prefix]) -> "CampaignResult":
        """A view of just the given /24s (KeyError if one was never
        measured). Fixed-width columns are fancy-indexed —
        O(selection) — and the ragged destination/last-hop pools are
        shared with the parent by reference, so the cost is independent
        of the campaign size."""
        arrays = self._finalize()
        rows = []
        index: Dict[int, int] = {}
        for slash24 in slash24s:
            row = self._index.get(slash24.network)
            if row is None or slash24.length != 24:
                raise KeyError(
                    f"{slash24} was not measured in this campaign"
                )
            if slash24.network in index:
                raise ValueError(
                    f"duplicate measurement for {slash24}: "
                    "each /24 is measured exactly once per campaign"
                )
            index[slash24.network] = len(rows)
            rows.append(row)
        selector = np.array(rows, dtype=np.int64)
        view = CampaignResult()
        view._index = index
        view._arrays = {
            "nets": arrays["nets"][selector],
            "cats": arrays["cats"][selector],
            "stops": arrays["stops"][selector],
            "dests": arrays["dests"][selector],
            "hosts": arrays["hosts"][selector],
            "probes": arrays["probes"][selector],
            "obs_lo": arrays["obs_lo"][selector],
            "obs_hi": arrays["obs_hi"][selector],
            # Shared by reference: row ranges index into the parent's
            # pools unchanged.
            "dst_pool": arrays["dst_pool"],
            "lh_lo": arrays["lh_lo"],
            "lh_hi": arrays["lh_hi"],
            "lh_pool": arrays["lh_pool"],
        }
        view.probes_used = int(view._arrays["probes"].sum())
        return view


class _MeasurementsView(Mapping):
    """Read-only dict-shaped facade over a campaign result."""

    __slots__ = ("_result",)

    def __init__(self, result: CampaignResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return self._result.total

    def __iter__(self) -> Iterator[Prefix]:
        for network in self._result._index:
            yield Prefix(network, 24)

    def __getitem__(self, slash24: Prefix) -> Slash24Measurement:
        measurement = self._result.get(slash24)
        if measurement is None:
            raise KeyError(slash24)
        return measurement
