"""Shared experiment infrastructure.

A :class:`Workspace` lazily builds and caches the heavy artifacts every
experiment consumes — the simulated Internet, the ZMap snapshot, the
exhaustive training datasets, the confidence table, the measurement
campaign and the aggregation outcome — so that running every
experiment shares one build per profile.

Profiles scale the scenario: ``tiny`` for tests, ``small`` for the
default experiment runs, ``paper`` for the fullest (still scaled-down)
reproduction. Select with the ``REPRO_PROFILE`` environment variable.

A workspace can also run in *persistent* mode (``--store PATH`` /
``REPRO_STORE``): the measurement campaign checkpoints each /24 into an
on-disk :class:`repro.store.MeasurementStore`, and the probe-heavy
training datasets, and the confidence table trained on one of them,
are cached there as artifacts — so experiment runs share one
campaign across processes, and a warm rerun of the classification
experiments is pure re-analysis with zero probing and no table draws.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional

from ..aggregation import AggregationOutcome, run_aggregation
from ..core import (
    CampaignResult,
    ConfidenceTable,
    ExhaustivePolicy,
    TerminationPolicy,
    run_campaign,
)
from ..core.heterogeneity import SubBlockAnalysis, analyze_sub_blocks
from ..core.pipeline import check_count, enumerate_paths, measure
from ..net.prefix import Prefix
from ..netsim import (
    EventConfig,
    ScenarioConfig,
    SimulatedInternet,
    paper_scenario,
    tiny_scenario,
)
from ..netsim.config import check_intensity, check_scale
from ..obs.metrics import current_metrics
from ..obs.trace import span
from ..probing import ActivitySnapshot, Prober, scan
from ..probing.traceroute import Route
from ..util.envknobs import event_intensity_env, positive_int_env
from ..util.hashing import mix, stable_string_hash
from ..util.tables import render_table


@dataclass(frozen=True)
class Profile:
    """Sizing knobs for one experiment profile."""

    name: str
    scenario_seed: int = 2016
    scenario_scale: float = 0.07
    use_tiny_scenario: bool = False
    #: /24s probed exhaustively to train the confidence table.
    confidence_sample_slash24s: int = 32
    confidence_samples_per_block: int = 48
    #: /24s (ground-truth homogeneous) in the full-path dataset.
    path_dataset_slash24s: int = 40
    path_dataset_max_addresses: int = 32
    #: Cap on destinations per /24 during the campaign.
    campaign_max_destinations: int = 64
    reprobe_max_pairs: int = 48
    cellular_slash24_sample: int = 12
    cellular_max_addresses: int = 6
    sampling_repetitions: int = 25

    def __post_init__(self) -> None:
        # A bad profile fails where it is made, before a workspace
        # builds anything from it.
        check_scale(self.scenario_scale, "scenario_scale")
        for name in _COUNT_FIELDS:
            check_count(getattr(self, name), name)


#: The :class:`Profile` fields that count something, so must be >= 1.
_COUNT_FIELDS = (
    "confidence_sample_slash24s",
    "confidence_samples_per_block",
    "path_dataset_slash24s",
    "path_dataset_max_addresses",
    "campaign_max_destinations",
    "reprobe_max_pairs",
    "cellular_slash24_sample",
    "cellular_max_addresses",
    "sampling_repetitions",
)


PROFILES: Dict[str, Profile] = {
    "tiny": Profile(
        name="tiny",
        use_tiny_scenario=True,
        confidence_sample_slash24s=16,
        confidence_samples_per_block=24,
        path_dataset_slash24s=16,
        path_dataset_max_addresses=20,
        campaign_max_destinations=48,
        reprobe_max_pairs=24,
        cellular_slash24_sample=6,
        cellular_max_addresses=4,
        sampling_repetitions=10,
    ),
    "small": Profile(
        name="small", scenario_scale=0.07,
        confidence_sample_slash24s=64,
        path_dataset_slash24s=72,
    ),
    "medium": Profile(
        name="medium",
        scenario_scale=0.18,
        confidence_sample_slash24s=48,
        path_dataset_slash24s=64,
    ),
    # Reduced-scale image of the paper profile (~60k /24s): same code
    # path — columnar campaign over a lazily-built universe — at a size
    # CI can afford. CI's snapshot-memory check and aggregation perf gate
    # run here.
    "paper-smoke": Profile(
        name="paper-smoke",
        scenario_scale=2.2,
        confidence_sample_slash24s=48,
        path_dataset_slash24s=48,
    ),
    # The paper's measured Internet: ≥1M allocated /24s (scale 37 ≈
    # 1.0M). The full 3.37M of the paper is scale ≈ 124 — the builder
    # and columnar campaign both scale linearly, so it is only a matter
    # of wall-clock (and ~2KB of RSS per /24) beyond this point.
    "paper": Profile(
        name="paper",
        scenario_scale=37.0,
        confidence_sample_slash24s=64,
        confidence_samples_per_block=64,
        path_dataset_slash24s=96,
        cellular_slash24_sample=24,
    ),
}

DEFAULT_PROFILE_ENV = "REPRO_PROFILE"
DEFAULT_WORKERS_ENV = "REPRO_WORKERS"
DEFAULT_STORE_ENV = "REPRO_STORE"
DEFAULT_EVENTS_ENV = "REPRO_EVENTS"


def active_profile_name() -> str:
    return os.environ.get(DEFAULT_PROFILE_ENV, "small")


def active_store_path() -> Optional[str]:
    """Persistent store directory: ``REPRO_STORE`` (default: none)."""
    return os.environ.get(DEFAULT_STORE_ENV) or None


def active_event_intensity() -> Optional[float]:
    """Dynamic-internet event intensity: ``REPRO_EVENTS`` in [0, 1]
    (default: unset → events off; raises EnvKnobError on junk)."""
    return event_intensity_env(DEFAULT_EVENTS_ENV)


def active_worker_count() -> int:
    """Campaign worker processes: ``REPRO_WORKERS`` (default 1/serial;
    raises EnvKnobError unless it is a whole number >= 1).

    Results are guaranteed identical at any worker count, so this knob
    only trades wall-clock time for cores."""
    return positive_int_env(DEFAULT_WORKERS_ENV, 1)


class Workspace:
    """Lazily-built shared artifacts for one profile.

    With a store attached, the confidence dataset, the confidence table,
    the campaign's /24s, the reprobe validation, the path dataset and
    the strict-het observations are each replayed from the store when
    their key is there, and built and stored when it is not.
    """

    def __init__(
        self,
        profile: Profile,
        workers: Optional[int] = None,
        store_path: Optional[str] = None,
        event_intensity: Optional[float] = None,
    ) -> None:
        # Out-of-domain arguments fail here, before anything is built;
        # the env-knob defaults below are checked where they are read.
        if workers is not None:
            check_count(workers, "workers")
        if event_intensity is not None:
            check_intensity(event_intensity, "event_intensity")
        self.profile = profile
        #: Worker processes for the measurement campaign (serial when 1).
        self.workers = workers if workers is not None else active_worker_count()
        #: Persistent-store directory (None → in-process caching only).
        self.store_path = (
            store_path if store_path is not None else active_store_path()
        )
        #: Dynamic-internet event intensity in [0, 1]; None/0 → the
        #: scenario's (static) default — pay-for-what-you-use.
        self.event_intensity = (
            event_intensity
            if event_intensity is not None
            else active_event_intensity()
        )
        self._store = None
        self._internet: Optional[SimulatedInternet] = None
        self._snapshot: Optional[ActivitySnapshot] = None
        self._confidence_dataset: Optional[
            Dict[Prefix, Dict[int, FrozenSet[int]]]
        ] = None
        self._confidence_table: Optional[ConfidenceTable] = None
        self._campaign: Optional[CampaignResult] = None
        self._aggregation: Optional[AggregationOutcome] = None
        self._path_dataset: Optional[
            Dict[Prefix, Dict[int, FrozenSet[Route]]]
        ] = None
        self._strict_het: Optional[Dict[Prefix, SubBlockAnalysis]] = None

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release the workspace's on-disk store handles (idempotent).

        Only file handles close — in-memory artifacts survive, and the
        ``store`` property reopens lazily if used again. Long-running
        processes (the CLI, tools) must close workspaces they opened
        with a persistent store, or segment append handles leak."""
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scenario ---------------------------------------------------------

    def scenario_config(self) -> ScenarioConfig:
        if self.profile.use_tiny_scenario:
            config = tiny_scenario(seed=self.profile.scenario_seed)
        else:
            config = paper_scenario(
                scale=self.profile.scenario_scale,
                seed=self.profile.scenario_seed,
            )
        if self.event_intensity:
            config = dataclasses.replace(
                config,
                events=EventConfig.at_intensity(self.event_intensity),
            )
        return config

    @property
    def internet(self) -> SimulatedInternet:
        if self._internet is None:
            self._internet = SimulatedInternet.from_config(
                self.scenario_config()
            )
        return self._internet

    @property
    def snapshot(self) -> ActivitySnapshot:
        if self._snapshot is None:
            self._snapshot = scan(self.internet)
        return self._snapshot

    # -- persistent store --------------------------------------------------

    @property
    def store(self):
        """The on-disk measurement store, or None (in-process only)."""
        if self.store_path is None:
            return None
        if self._store is None:
            from ..store import MeasurementStore

            self._store = MeasurementStore(self.store_path)
        return self._store

    def _artifact_key(self, name: str, params: tuple) -> str:
        from ..store import artifact_key, scenario_fingerprint

        return artifact_key(
            scenario_fingerprint(self.internet.config), name, params
        )

    def _load_artifact(self, name: str, params: tuple):
        """A cached artifact's payload, or None (no store / cache miss).

        With a store, each lookup counts ``store.artifact.hits`` or
        ``store.artifact.misses`` in the ambient registry, so a run's
        ``run.json`` shows what it replayed."""
        if self.store is None:
            return None
        document = self.store.get(self._artifact_key(name, params))
        current_metrics().count(
            "store.artifact.misses" if document is None
            else "store.artifact.hits"
        )
        return None if document is None else document["value"]

    def _save_artifact(self, name: str, params: tuple, value) -> None:
        if self.store is None:
            return
        from ..store import artifact_record

        self.store.put(
            artifact_record(self._artifact_key(name, params), value)
        )

    def _probe_context(self, label: str, clock_seconds: float) -> None:
        """Bracket a probe-heavy artifact build in a deterministic
        measurement context, making the build — and the transient state
        it leaves behind — a pure function of (scenario, build
        parameters, clock position). That purity is what lets a cached
        artifact replay restore the exact post-build world."""
        self.internet.begin_measurement_context(
            clock_seconds=clock_seconds,
            nonce=mix(
                self.internet.config.seed, stable_string_hash(label)
            ),
        )

    def _probe_artifact(
        self,
        name: str,
        label: str,
        params: tuple,
        build: Callable[[], Mapping],
        key: str,
        encode: Callable[[Mapping], dict],
        decode: Callable[[dict], Dict],
    ) -> Dict:
        """A probe-heavy artifact: replayed from the store, or built.

        The artifact is keyed by ``name``, ``params`` and the clock
        position before the build. A miss builds it with ``build()`` in
        the ``label`` probe context, puts it in canonical order and, in
        persistent mode, stores ``encode(value)`` under ``key`` together
        with ``clock_seconds_after``. A hit decodes the stored value
        without sending a probe. Either way the ``<label>/end`` context
        is then pinned at the clock the build left, so later phases see
        the same world after a replay as after a build.
        """
        clock_start = self.internet.clock_seconds
        params = params + (clock_start,)
        cached = self._load_artifact(name, params)
        if cached is not None:
            value = decode(cached[key])
            self._probe_context(
                f"{label}/end", float(cached["clock_seconds_after"])
            )
            return value
        self._probe_context(label, clock_start)
        from ..store.codec import canonical_dataset_order

        # Canonical order so downstream RNG-driven sampling sees the
        # same iteration whether the value is fresh or restored.
        value = canonical_dataset_order(build())
        self._probe_context(f"{label}/end", self.internet.clock_seconds)
        if self.store is not None:
            self._save_artifact(
                name, params,
                {
                    key: encode(value),
                    "clock_seconds_after": self.internet.clock_seconds,
                },
            )
        return value

    def eligible_slash24s(self) -> List[Prefix]:
        return self.snapshot.eligible_slash24s()

    def ensure_built(self) -> None:
        """Build the shared artifacts in a canonical order.

        The simulated Internet is stateful (virtual clock, rate-limiter
        buckets), so artifact contents depend on *when* they are
        measured. Building everything up front — snapshot, confidence
        table, campaign, aggregation, path dataset — before any
        experiment's ad-hoc probing makes results independent of which
        experiment runs first.

        Each phase is timed into the ambient metrics registry
        (``phase.<name>``) and spanned in the trace journal; phases
        already built in this process cost (and report) ~nothing, so
        the timers read as this process's true build wall-clocks.
        """
        registry = current_metrics()
        phases = (
            ("scenario", lambda: self.internet),
            ("snapshot", lambda: self.snapshot),
            ("confidence_table", lambda: self.confidence_table),
            ("campaign", lambda: self.campaign),
            ("aggregation", lambda: self.aggregation),
            ("path_dataset", lambda: self.path_dataset),
            ("strict_het", lambda: self.strict_het_analyses),
        )
        for name, build in phases:
            with span(f"phase.{name}"), registry.time(f"phase.{name}"):
                build()

    # -- exhaustive training data (Sections 3.1-3.2) ------------------------

    @property
    def confidence_dataset(self) -> Dict[Prefix, Dict[int, FrozenSet[int]]]:
        """Exhaustive per-address last-hop observations over a sample of
        ground-truth homogeneous /24s.

        The build is bracketed in a deterministic probe context and, in
        persistent mode, cached in the store — a warm workspace replays
        it (and the clock position it left) without sending a probe.
        """
        if self._confidence_dataset is None:
            from ..store import (
                observation_map_from_dict,
                observation_map_to_dict,
            )

            def build() -> Dict[Prefix, Dict[int, FrozenSet[int]]]:
                rng = random.Random(self.internet.config.seed ^ 0xC0FFEE)
                truth = self.internet.ground_truth
                candidates = [
                    p for p in self.eligible_slash24s()
                    if truth.is_homogeneous(p)
                ]
                # Stride the candidate list so the training sample spans
                # organizations (and hence cardinalities) rather than
                # whatever /8 happens to sort first.
                budget = self.profile.confidence_sample_slash24s
                stride = max(1, len(candidates) // max(budget, 1))
                sample = candidates[::stride][:budget]
                prober = Prober(self.internet)
                dataset: Dict[Prefix, Dict[int, FrozenSet[int]]] = {}
                policy = ExhaustivePolicy()
                for slash24 in sample:
                    measurement = measure(
                        prober, slash24, self.snapshot, policy, rng,
                    )
                    if len(measurement.observations) >= 4:
                        dataset[slash24] = dict(measurement.observations)
                return dataset

            self._confidence_dataset = self._probe_artifact(
                "confidence-dataset", "workspace/confidence-dataset",
                (self.profile.confidence_sample_slash24s,), build,
                "dataset", observation_map_to_dict, observation_map_from_dict,
            )
        return self._confidence_dataset

    @property
    def confidence_table(self) -> ConfidenceTable:
        """The <cardinality, probed addresses> table trained on
        :attr:`confidence_dataset` (Section 3.2).

        In persistent mode the built table is stored beside its dataset,
        keyed by the dataset's canonical-JSON fingerprint and the build
        parameters, and a warm workspace rebuilds it from the stored
        cells without drawing a subset.
        """
        if self._confidence_table is None:
            dataset = self.confidence_dataset
            options = dict(
                seed=self.internet.config.seed ^ 0xF1D0,
                samples_per_block=self.profile.confidence_samples_per_block,
                max_probed=50,
                min_trials=40,
            )
            if self.store is None:
                table = ConfidenceTable.build(dataset, **options)
            else:
                from ..store import (
                    confidence_table_from_dict,
                    confidence_table_to_dict,
                    observation_map_fingerprint,
                )

                params = (
                    observation_map_fingerprint(dataset), *options.values()
                )
                cached = self._load_artifact("confidence-table", params)
                if cached is None:
                    table = ConfidenceTable.build(dataset, **options)
                    self._save_artifact(
                        "confidence-table", params,
                        confidence_table_to_dict(table),
                    )
                else:
                    table = confidence_table_from_dict(cached)
            self._confidence_table = table
        return self._confidence_table

    # -- the measurement campaign (Section 4) --------------------------------

    @property
    def campaign(self) -> CampaignResult:
        if self._campaign is None:
            policy = TerminationPolicy(
                confidence_table=self.confidence_table
            )
            self._campaign = run_campaign(
                self.internet,
                policy,
                snapshot=self.snapshot,
                seed=self.internet.config.seed ^ 0xCA11,
                max_destinations_per_slash24=(
                    self.profile.campaign_max_destinations
                ),
                workers=self.workers,
                store=self.store,
            )
        return self._campaign

    # -- aggregation (Sections 5-6) ------------------------------------------

    @property
    def aggregation(self) -> AggregationOutcome:
        """Sections 5-6 end to end; the probe-heavy part is the cluster
        validation reprobing, whose per-/24 results are cached in the
        store (with their probe accounting) so a warm workspace replays
        the validation — same outcome, same reported probe counts —
        without going back on the wire."""
        if self._aggregation is None:
            lasthop_sets = self.campaign.lasthop_sets()
            clock_start = self.internet.clock_seconds
            params = (self.profile.reprobe_max_pairs, clock_start)
            cached = self._load_artifact("aggregation-reprobe", params)
            preload = None
            if cached is not None:
                preload = {
                    Prefix.parse(slash24): (
                        frozenset(entry["lasthops"]), int(entry["probes"])
                    )
                    for slash24, entry in cached["reprobe"].items()
                }
            self._probe_context("workspace/aggregation", clock_start)
            outcome = run_aggregation(
                lasthop_sets,
                internet=self.internet,
                snapshot=self.snapshot,
                max_pairs_per_cluster=self.profile.reprobe_max_pairs,
                seed=self.internet.config.seed ^ 0xA66,
                reprobe_preload=preload,
            )
            if cached is not None:
                clock_after = float(cached["clock_seconds_after"])
            else:
                clock_after = self.internet.clock_seconds
                self._save_artifact(
                    "aggregation-reprobe", params,
                    {
                        "reprobe": {
                            str(slash24): {
                                "lasthops": sorted(lasthops),
                                "probes": probes,
                            }
                            for slash24, (lasthops, probes)
                            in outcome.reprobe_records.items()
                        },
                        "clock_seconds_after": clock_after,
                    },
                )
            self._probe_context("workspace/aggregation/end", clock_after)
            self._aggregation = outcome
        return self._aggregation

    # -- full-path traceroute dataset (Sections 3.1, 7.1) ---------------------

    @property
    def path_dataset(self) -> Dict[Prefix, Dict[int, FrozenSet[Route]]]:
        """/24 → destination → set of routes, over a sample of
        ground-truth homogeneous /24s, tracing every sampled active
        address with MDA.

        Bracketed and cached exactly like :attr:`confidence_dataset`.
        """
        if self._path_dataset is None:
            from ..store import route_dataset_from_dict, route_dataset_to_dict

            def build() -> Dict[Prefix, Dict[int, FrozenSet[Route]]]:
                truth = self.internet.ground_truth
                eligible = set(self.eligible_slash24s())
                candidates = [p for p in eligible if truth.is_homogeneous(p)]
                budget = self.profile.path_dataset_slash24s
                # Include whole multi-/24 blocks (the paper's dataset
                # covers complete homogeneous blocks — that is what makes
                # per-block destination selection pay off in Figure 11)
                # ...
                sample: list = []
                chosen: set = set()
                blocks = sorted(
                    truth.true_blocks(), key=lambda b: -b.size
                )
                for block in blocks:
                    if len(sample) >= budget // 2:
                        break
                    if block.size < 3:
                        break
                    members = [
                        p for p in block.slash24s if p in eligible
                    ][:12]
                    if len(members) >= 3:
                        sample.extend(members)
                        chosen.update(members)
                # ... then fill with /24s spread across the universe.
                remainder = [p for p in candidates if p not in chosen]
                stride = max(
                    1, len(remainder) // max(budget - len(sample), 1)
                )
                sample.extend(remainder[::stride][: budget - len(sample)])
                prober = Prober(self.internet)
                dataset: Dict[Prefix, Dict[int, FrozenSet[Route]]] = {}
                for slash24 in sample:
                    actives = self.snapshot.active_in(slash24)[
                        : self.profile.path_dataset_max_addresses
                    ]
                    per_dst: Dict[int, FrozenSet[Route]] = {}
                    for dst in actives:
                        mp = enumerate_paths(
                            prober, dst, flow_seed=dst & 0xFFFF
                        )
                        if mp.reached and mp.routes:
                            per_dst[dst] = frozenset(mp.routes)
                    if len(per_dst) >= 4:
                        dataset[slash24] = per_dst
                return dataset

            self._path_dataset = self._probe_artifact(
                "path-dataset", "workspace/path-dataset",
                (
                    self.profile.path_dataset_slash24s,
                    self.profile.path_dataset_max_addresses,
                ),
                build,
                "dataset", route_dataset_to_dict, route_dataset_from_dict,
            )
        return self._path_dataset

    # -- strict heterogeneity (Section 4.2) -----------------------------------

    @property
    def strict_het_analyses(self) -> Dict[Prefix, SubBlockAnalysis]:
        """Section 4.2 analyses of the "different but hierarchical"
        /24s, re-probed exhaustively first (the strict criteria need
        full sub-block evidence, not the early-terminated campaign
        observations).

        The exhaustive observations are cached in the store; the
        sub-block analysis itself is pure CPU, so a warm workspace
        rebuilds identical analyses with zero probes."""
        if self._strict_het is None:
            from ..core.classifier import Category
            from ..store import (
                observation_map_from_dict,
                observation_map_to_dict,
            )

            # The campaign is built (advancing the clock) before the
            # artifact's clock position is read.
            hierarchical = self.campaign.by_category(Category.HIERARCHICAL)

            def build() -> Dict[Prefix, Dict[int, FrozenSet[int]]]:
                prober = Prober(self.internet)
                rng = random.Random(self.internet.config.seed ^ 0x5E7)
                observed: Dict[Prefix, Dict[int, FrozenSet[int]]] = {}
                for measurement in hierarchical:
                    slash24 = measurement.slash24
                    full = measure(
                        prober, slash24, self.snapshot,
                        ExhaustivePolicy(), rng,
                        max_destinations=(
                            self.profile.campaign_max_destinations
                        ),
                    )
                    observed[slash24] = dict(
                        full.observations or measurement.observations
                    )
                return observed

            observed = self._probe_artifact(
                "strict-het-observations", "workspace/strict-het",
                (self.profile.campaign_max_destinations,), build,
                "observations",
                observation_map_to_dict, observation_map_from_dict,
            )
            self._strict_het = {
                slash24: analyze_sub_blocks(observations)
                for slash24, observations in observed.items()
            }
        return self._strict_het

    def strictly_heterogeneous_slash24s(self) -> List[Prefix]:
        return sorted(
            slash24
            for slash24, analysis in self.strict_het_analyses.items()
            if analysis.strictly_heterogeneous
        )


_WORKSPACES: Dict[str, Workspace] = {}


def get_workspace(
    profile_name: Optional[str] = None,
    workers: Optional[int] = None,
    store_path: Optional[str] = None,
    event_intensity: Optional[float] = None,
) -> Workspace:
    """The shared workspace for a profile (built once per process).

    ``workers`` overrides the campaign worker count; safe to change on
    a cached workspace because results are worker-count-invariant.
    ``store_path`` attaches a persistent measurement store; it only
    affects artifacts not yet built in this process.
    ``event_intensity`` selects the dynamic-internet stress level; it
    changes the scenario itself, so asking a cached workspace for a
    different intensity discards it and builds fresh."""
    name = profile_name or active_profile_name()
    if name not in PROFILES:
        raise KeyError(
            f"unknown profile {name!r}; choose from {sorted(PROFILES)}"
        )
    resolved_intensity = (
        event_intensity
        if event_intensity is not None
        else active_event_intensity()
    )
    cached = _WORKSPACES.get(name)
    if cached is not None and (
        (cached.event_intensity or 0.0) != (resolved_intensity or 0.0)
    ):
        cached.close()
        del _WORKSPACES[name]
        cached = None
    if cached is None:
        _WORKSPACES[name] = Workspace(
            PROFILES[name], workers=workers, store_path=store_path,
            event_intensity=resolved_intensity,
        )
    else:
        if workers is not None:
            _WORKSPACES[name].workers = workers
        if store_path is not None and (
            store_path != _WORKSPACES[name].store_path
        ):
            _WORKSPACES[name].close()
            _WORKSPACES[name].store_path = store_path
    return _WORKSPACES[name]


def close_workspaces() -> None:
    """Close every cached workspace's store handles (idempotent).

    The CLI calls this on its way out of any command that may have
    opened a persistent store; tests use it to keep handle-leak checks
    (ResourceWarning-as-error) honest."""
    for workspace in _WORKSPACES.values():
        workspace.close()


@dataclass
class ExperimentResult:
    """Uniform output of every experiment runner."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""

    def render(self) -> str:
        text = render_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text
