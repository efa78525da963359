"""The end-to-end Hobbit measurement campaign.

Mirrors the paper's pipeline: take a ZMap activity snapshot, select the
/24s meeting the Section 3.3 criteria, measure each with the classifier,
and summarise into Table 1 counts. The campaign result carries each
/24's last-hop router set onward to the aggregation stage (Sections 5
and 6).

The paper measures ~3.37M /24s *independently* — no /24's probing
touches another /24 — and this module preserves that independence: each
/24 is measured inside its own deterministic context (RNG stream, probe
nonce, virtual-clock position, reply-side router state) derived from the
campaign seed and the prefix alone. A /24's measurement is therefore a
pure function of the scenario and its context, which buys two things at
once:

* **order independence** — reordering or truncating the selection list
  never changes any individual /24's classification; and
* **parallelism** — shards of the /24 list can run on worker processes
  and merge into a result byte-identical to the serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import warnings
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Dict, Iterable, List, Optional, Tuple

from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet
from ..obs.metrics import MetricsRegistry, current_metrics
from ..obs.progress import ProgressReporter, progress_enabled
from ..obs.trace import configure_tracing, span, trace_event, trace_warning
from ..probing.session import ProbeBudgetExceeded, Prober, ProbeStats
from ..probing.zmap import ActivitySnapshot, scan
from ..util.envknobs import kill_after_for_worker
from ..util.hashing import mix, stable_string_hash
from .classifier import Slash24Measurement, measure_slash24
from .columnar import CampaignResult
from .fastengine import FastPathUnsupported, fast_engine_for
from .termination import ReprobePolicy, TerminationPolicy


class ParallelFallbackWarning(RuntimeWarning):
    """A ``workers=N`` campaign degraded to the serial path.

    Results are identical either way (the executor's core contract),
    but the wall-clock gain the caller asked for silently vanished —
    which is exactly the kind of degradation a measurement study must
    be able to see. Raised as a *warning* (not an error) because the
    serial result is still correct."""

#: Domain separators for the campaign's derived randomness, so the RNG
#: stream, the probe-nonce stream and the end-of-campaign state never
#: collide even for the same (seed, prefix).
_RNG_SALT = stable_string_hash("campaign/slash24-rng")
_NONCE_SALT = stable_string_hash("campaign/slash24-nonce")
_END_SALT = stable_string_hash("campaign/end-state")


def slash24_seed(campaign_seed: int, slash24: Prefix) -> int:
    """Stable per-/24 RNG seed: a /24's probing order and flow ids
    depend only on the campaign seed and its own prefix, never on which
    (or how many) other /24s were measured before it."""
    return mix(campaign_seed, _RNG_SALT, slash24.network, slash24.length)


def slash24_nonce(campaign_seed: int, slash24: Prefix) -> int:
    """Stable starting probe nonce for one /24's measurement context."""
    return mix(campaign_seed, _NONCE_SALT, slash24.network, slash24.length)


def measure(
    prober: Prober,
    slash24: Prefix,
    snapshot_active: List[int],
    policy: TerminationPolicy | ReprobePolicy,
    rng: random.Random,
    max_destinations: Optional[int] = None,
) -> Slash24Measurement:
    """Measure and classify one /24 through ``prober``: every phase's
    per-/24 entry point.

    Bit-identical to :func:`repro.core.classifier.measure_slash24` on
    the same prober and RNG — the measurement, the RNG's draws, the
    prober's stats and the simulator's clock, nonce, token buckets,
    radio tracker and event counters — but on the compiled engine
    (:mod:`repro.core.fastengine`) whenever it accepts the policy and
    the prober has no budget. It continues the simulator's running
    measurement context, so a phase may measure a sequence of /24s in
    one context with one RNG. A /24 the engine declines is counted in
    ``campaign.fastpath_fallback`` and measured on the object path from
    where the RNG stood before the call.
    """
    engine = fast_engine_for(prober.internet, policy, prober.max_probes)
    if engine is not None:
        rng_state = rng.getstate()
        try:
            measurement, stats = engine.measure(
                policy, slash24, snapshot_active, rng, max_destinations,
                prober.source,
            )
        except FastPathUnsupported as unsupported:
            # The engine touched no simulator state; only the RNG moved.
            # Loudly: a fallback is correct but slower, and a phase that
            # silently degrades per-/24 is invisible in benchmarks.
            rng.setstate(rng_state)
            current_metrics().count("campaign.fastpath_fallback")
            trace_warning(
                "campaign.fastpath_fallback",
                f"compiled engine declined {slash24}; measured on the "
                "object path (identical result, slower)",
                prefix=str(slash24),
                reason=str(unsupported),
            )
        else:
            prober.stats.merge(stats)
            return measurement
    return measure_slash24(
        prober, slash24, snapshot_active, policy, rng,
        max_destinations=max_destinations,
    )


def _measure_in_context(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24: Prefix,
    snapshot_active: List[int],
    campaign_seed: int,
    clock_base: float,
    max_destinations: Optional[int],
    max_probes: Optional[int] = None,
) -> Tuple[Slash24Measurement, ProbeStats]:
    """Measure one /24 inside its own deterministic context."""
    internet.begin_measurement_context(
        clock_seconds=clock_base,
        nonce=slash24_nonce(campaign_seed, slash24),
    )
    prober = Prober(internet, max_probes=max_probes)
    measurement = measure(
        prober, slash24, snapshot_active, policy,
        random.Random(slash24_seed(campaign_seed, slash24)),
        max_destinations,
    )
    return measurement, prober.stats


# -- parallel execution ------------------------------------------------------
#
# ``workers=N`` forks N worker processes and hands each one chunk of the
# pending /24s at a time over its own pipe. Workers only measure: they
# open no store and send each measured chunk back, and the parent, the
# store's only writer, records it and hands out the next chunk. A worker
# that dies (its pipe hits EOF) forfeits only its in-flight chunk, which
# goes to a live worker or, once none is left, is measured by the parent
# itself. Measuring a chunk again is byte-identical, because each /24's
# measurement is a pure function of its deterministic context.

#: Chunks planned per worker. More chunks than workers balances the
#: load: a fast worker drains several while a slow one holds one, and a
#: death costs at most the one chunk in flight.
_CHUNKS_PER_WORKER = 4

#: Fault injection: comma-separated ``"<worker_index>:<slash24s>"``
#: entries. Each named worker SIGKILLs itself right after measuring the
#: chunk that brings its measured /24s to that many, before sending that
#: chunk back. ``"0:1"`` kills one worker after its first chunk (a live
#: peer measures the chunk again); ``"0:1,1:1"`` with ``workers=2`` kills
#: them all (the parent finishes). The crash-consistency tests and the
#: CI faulty-worker smoke job drive this.
_WORKER_KILL_ENV = "REPRO_WORKER_KILL"


def _measure_chunk(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    chunk: List[Tuple[str, List[int]]],
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
) -> List[Tuple[Slash24Measurement, ProbeStats]]:
    """Measure a chunk of ``(prefix text, active list)`` pairs in order."""
    return [
        _measure_in_context(
            internet, policy, Prefix.parse(text), active,
            seed, clock_base, max_destinations,
        )
        for text, active in chunk
    ]


def _worker_main(
    link: Connection,
    payload: bytes,
    kill_after: Optional[int],
    inherited: List[Connection],
) -> None:
    """One worker process: measure each chunk the parent sends and send
    back its results with the engine and event counter deltas they cost;
    exit on ``None``.

    The deltas travel with their chunk so that a chunk lost with a dead
    worker costs its counters too, and the chunk measured again in its
    place brings them back: the parent's totals match the serial run's.
    ``kill_after`` is this worker's :data:`_WORKER_KILL_ENV` count.
    ``inherited`` are the parent's ends of the pipes, which a forked
    worker holds copies of; closing them lets every worker see EOF, and
    exit, if the parent dies.
    """
    for end in inherited:
        end.close()
    # Workers never write the parent's trace journal: concurrent appends
    # from several processes would interleave.
    configure_tracing(None)
    internet, policy, seed, clock_base, max_destinations = pickle.loads(
        payload
    )
    events = internet.events
    measured = 0
    while True:
        chunk = link.recv()
        if chunk is None:
            return
        engine_base = (
            internet.probe_seconds, internet.probe_batches,
            internet.batched_probes,
        )
        events_base = events.counter_snapshot() if events is not None else None
        done = _measure_chunk(
            internet, policy, chunk, seed, clock_base, max_destinations
        )
        measured += len(done)
        if kill_after is not None and measured >= kill_after:
            # Die the hard way, chunk measured but not reported: exactly
            # what the parent's reassignment must survive.
            os.kill(os.getpid(), signal.SIGKILL)
        link.send((
            done,
            internet.probe_seconds - engine_base[0],
            internet.probe_batches - engine_base[1],
            internet.batched_probes - engine_base[2],
            events.counter_deltas(events_base) if events is not None else {},
        ))


class _ParallelUnavailable(Exception):
    """Internal: the parallel path cannot run; carries why."""

    def __init__(self, reason: str, cause: BaseException) -> None:
        super().__init__(reason)
        self.reason = reason
        self.cause = cause


def _note_parallel_fallback(
    registry: MetricsRegistry, fallback: "_ParallelUnavailable"
) -> None:
    """Make a degraded-to-serial run visible on every channel: a Python
    warning for interactive and test runs, a trace journal entry, and
    ``campaign.parallel_fallback`` counters for programmatic checks."""
    message = (
        f"parallel campaign unavailable ({fallback.reason}): "
        f"{fallback.cause!r}; continuing serially — results are "
        "identical, but the requested parallel speedup was not applied"
    )
    warnings.warn(ParallelFallbackWarning(message), stacklevel=4)
    registry.count("campaign.parallel_fallback")
    registry.count(f"campaign.parallel_fallback.{fallback.reason}")
    trace_warning(
        "campaign.parallel_fallback",
        message,
        reason=fallback.reason,
        error=repr(fallback.cause),
    )


def _run_parallel(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    pending: List[Prefix],
    snapshot: ActivitySnapshot,
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
    workers: int,
    registry: MetricsRegistry,
    cache=None,
    progress: Optional[ProgressReporter] = None,
) -> Dict[Prefix, Tuple[Slash24Measurement, ProbeStats]]:
    """Measure the pending /24s on ``workers`` worker processes.

    Each returned chunk is recorded in ``cache`` (when bound) as it
    arrives, with the serial loop's group commits; the caller commits
    the rest. The workers' probes, engine timing and event activity are
    folded into ``internet``, so its counters match the serial run's.

    Returns every pending /24's (measurement, probe stats). Raises
    :class:`_ParallelUnavailable` when the simulator or policy cannot
    ship to workers (unpicklable scenario, process start failure) — the
    caller then falls back to the serial path, which produces identical
    results anyway, and reports the degradation.
    """
    try:
        payload = pickle.dumps(
            (internet, policy, seed, clock_base, max_destinations),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception as error:
        raise _ParallelUnavailable("unpicklable", error) from error
    from ..store import campaign as store_campaign

    worker_count = min(workers, len(pending))
    # Read the kill knob here, in the parent, before any worker forks: a
    # malformed value raises one clear EnvKnobError instead of killing
    # workers at startup (which would look like an ordinary worker death
    # and silently disarm fault injection).
    kill_spec = os.environ.get(_WORKER_KILL_ENV)
    kill_after = [
        kill_after_for_worker(kill_spec, index, name=_WORKER_KILL_ENV)
        for index in range(worker_count)
    ]
    chunk_count = max(
        -(-len(pending) // store_campaign.COMMIT_EVERY),
        min(len(pending), worker_count * _CHUNKS_PER_WORKER),
    )
    # Interleave assignment: adjacent prefixes have correlated probing
    # cost (same organization), so striding balances chunk loads.
    chunks = [pending[index::chunk_count] for index in range(chunk_count)]
    queue = deque(range(chunk_count))
    fresh: Dict[Prefix, Tuple[Slash24Measurement, ProbeStats]] = {}

    def wire(index: int) -> List[Tuple[str, List[int]]]:
        return [(str(p), snapshot.active_in(p)) for p in chunks[index]]

    def record(index: int, done) -> None:
        for slash24, (measurement, stats) in zip(chunks[index], done):
            fresh[slash24] = (measurement, stats)
            if cache is not None:
                cache.record(
                    slash24, snapshot.active_in(slash24), measurement, stats
                )
        if progress is not None:
            progress.update(progress.total - len(pending) + len(fresh))

    # fork keeps worker start cheap; the explicit payload round-trip
    # above still guarantees the campaign *could* ship to a spawned
    # process.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    links: List[Connection] = []
    procs: List[multiprocessing.Process] = []
    lost = 0
    try:
        try:
            for index in range(worker_count):
                link, child_link = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    args=(
                        child_link, payload, kill_after[index],
                        links + [link],
                    ),
                    daemon=True,
                )
                proc.start()
                child_link.close()
                procs.append(proc)
                links.append(link)
        except OSError as error:
            raise _ParallelUnavailable("pool_failure", error) from error
        del payload
        idle = list(reversed(links))
        busy: Dict[Connection, int] = {}
        while queue or busy:
            while queue and idle:
                link = idle.pop()
                index = queue.popleft()
                try:
                    link.send(wire(index))
                    busy[link] = index
                except OSError:
                    queue.appendleft(index)
                    lost += 1
            if not busy:
                break  # chunks left, but no worker to run them
            for link in wait(list(busy)):
                index = busy.pop(link)
                try:
                    done, seconds, batches, batched, event_deltas = (
                        link.recv()
                    )
                except (EOFError, OSError):
                    queue.appendleft(index)
                    lost += 1
                    continue
                # The workers probe pickled copies of the simulator;
                # fold what this chunk cost into the parent's, so its
                # counters and event schedule count the whole campaign.
                internet.probe_count += sum(stats.sent for _, stats in done)
                internet.probe_seconds += seconds
                internet.probe_batches += batches
                internet.batched_probes += batched
                if internet.events is not None:
                    internet.events.add_counter_deltas(event_deltas)
                record(index, done)
                idle.append(link)
        if queue:
            # Every worker died: the parent measures the rest itself,
            # on its own simulator (so its counters need no folding).
            registry.count("campaign.parallel.takeover")
            with span("campaign.takeover", chunks=len(queue)):
                while queue:
                    index = queue.popleft()
                    record(index, _measure_chunk(
                        internet, policy, wire(index), seed, clock_base,
                        max_destinations,
                    ))
        for link in idle:
            try:
                link.send(None)
            except OSError:
                pass  # already gone, and owed nothing
        registry.count("campaign.parallel.chunks", chunk_count)
        if lost:
            registry.count("campaign.parallel.workers_lost", lost)
            trace_warning(
                "campaign.worker_lost",
                f"{lost} of {worker_count} campaign workers died; their "
                "chunks were measured again and the campaign completed",
                workers_lost=lost,
            )
        return fresh
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for link in links:
            link.close()


def _bind_store(
    store,
    internet: SimulatedInternet,
    policy,
    seed: int,
    clock_base: float,
    max_destinations: Optional[int],
):
    """Bind the ``store`` argument to this campaign as a
    :class:`repro.store.campaign.CampaignCache`, or None without one.

    Accepts a :class:`repro.store.MeasurementStore` or anything with its
    ``get``/``put_many`` surface. Imported lazily so :mod:`repro.core`
    never depends on :mod:`repro.store` at import time.
    """
    if store is None:
        return None
    from ..store.campaign import CampaignCache

    return CampaignCache.bind(
        store, internet, policy, seed, clock_base, max_destinations
    )


def run_campaign(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24s: Optional[Iterable[Prefix]] = None,
    snapshot: Optional[ActivitySnapshot] = None,
    seed: int = 0,
    max_probes: Optional[int] = None,
    max_destinations_per_slash24: Optional[int] = None,
    workers: int = 1,
    store=None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Measure every selected /24 and classify it.

    When ``slash24s`` is None, all snapshot-eligible /24s are measured
    (the paper's 3.37M, at our scenario's scale). The result is a
    flat-array :class:`repro.core.columnar.CampaignResult`, filled row
    by row so million-/24 campaigns never hold per-/24 objects.

    ``workers`` > 1 measures the /24s in worker processes that the
    parent feeds chunks over pipes (see :func:`_run_parallel`); the
    merged result (measurements, their insertion order, and probe
    accounting) is identical to the serial run with the same seed.
    A campaign-wide ``max_probes`` budget requires serial accounting —
    when both are given, the campaign runs serially.

    ``store`` attaches an on-disk measurement store (see
    :mod:`repro.store`): completed /24s are durably checkpointed in
    group commits (every :data:`repro.store.campaign.COMMIT_EVERY`
    /24s, at the end of the run and when it raises), and /24s whose
    full input fingerprint (scenario, policy, seed, clock base,
    destination cap, snapshot active list) is already stored are
    replayed without sending a single probe. A run killed
    mid-campaign therefore resumes where it left off, and the resumed
    result — measurements, insertion order and ``probes_used`` — is
    bit-identical to an uninterrupted run. Replayed /24s still advance
    the deterministic end-of-campaign clock (downstream stages see the
    same world), but ``internet.probe_count`` only counts probes this
    run actually sent.

    ``metrics`` names the registry campaign accounting folds into
    (default: the ambient :func:`repro.obs.metrics.current_metrics`).
    The totals are identical — bit for bit — between the serial and
    parallel paths; the execution path itself is recorded under
    ``campaign.parallel`` / ``campaign.parallel_fallback`` so a
    degraded run is distinguishable from the one that was asked for.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    registry = metrics if metrics is not None else current_metrics()
    if snapshot is None:
        snapshot = scan(internet)
    if slash24s is None:
        slash24s = snapshot.eligible_slash24s()
    slash24s = list(slash24s)
    with span("campaign.run", slash24s=len(slash24s), workers=workers):
        result = _run_campaign_observed(
            internet, policy, slash24s, snapshot, seed, max_probes,
            max_destinations_per_slash24, workers, store, registry,
        )
    return result


def _run_campaign_observed(
    internet: SimulatedInternet,
    policy: TerminationPolicy | ReprobePolicy,
    slash24s: List[Prefix],
    snapshot: ActivitySnapshot,
    seed: int,
    max_probes: Optional[int],
    max_destinations_per_slash24: Optional[int],
    workers: int,
    store,
    registry: MetricsRegistry,
) -> CampaignResult:
    # Routing shifts land between the snapshot and the campaign's first
    # probe — before the clock base and the worker payload are taken, so
    # serial, parallel and resumed runs all probe the same shifted FIBs
    # (the application itself is idempotent and deterministic).
    if internet.events is not None:
        rerouted = internet.apply_event_reroutes()
        if rerouted:
            trace_event("campaign.event_reroutes", pods=rerouted)
    events_base = (
        internet.events.counter_snapshot()
        if internet.events is not None
        else None
    )
    clock_base = internet.clock_seconds
    engine_base = (
        internet.probe_count, internet.probe_seconds,
        internet.probe_batches, internet.batched_probes,
    )
    cache = _bind_store(
        store, internet, policy, seed, clock_base,
        max_destinations_per_slash24,
    )
    cache_base = (cache.hits, cache.misses) if cache is not None else None
    cached: Dict[Prefix, Tuple[Slash24Measurement, ProbeStats]] = {}
    pending: List[Prefix] = []
    if cache is not None:
        for slash24 in slash24s:
            hit = cache.lookup(slash24, snapshot.active_in(slash24))
            if hit is not None:
                cached[slash24] = hit
            else:
                pending.append(slash24)
    else:
        pending = slash24s
    progress = (
        ProgressReporter(len(slash24s)) if progress_enabled() else None
    )
    result = CampaignResult()
    stats = ProbeStats()

    fresh: Dict[Prefix, Tuple[Slash24Measurement, ProbeStats]] = {}
    remaining = max_probes
    done = 0
    try:
        if workers > 1 and pending:
            if max_probes is not None:
                # Documented behaviour (a campaign-wide budget needs
                # serial accounting), but still worth a breadcrumb in
                # the journal.
                registry.count("campaign.parallel_skipped.budget")
                trace_event(
                    "campaign.parallel_skipped", reason="max_probes",
                    workers=workers,
                )
            else:
                try:
                    fresh = _run_parallel(
                        internet, policy, pending, snapshot, seed,
                        clock_base, max_destinations_per_slash24, workers,
                        registry, cache=cache, progress=progress,
                    )
                    registry.count("campaign.parallel")
                except _ParallelUnavailable as fallback:
                    _note_parallel_fallback(registry, fallback)
        # One pass in input order, so even the measurement dict's
        # iteration order is the same whether a /24 was replayed,
        # measured by a worker or measured here.
        for slash24 in slash24s:
            if slash24 in cached:
                measurement, measure_stats = cached[slash24]
                # Replays charge the budget exactly what the original
                # measurement cost, so a budgeted run stops at the same
                # point whether or not its prefix was cached.
                if remaining is not None and measure_stats.sent > remaining:
                    raise ProbeBudgetExceeded(
                        f"budget exhausted replaying {slash24} from store"
                    )
            elif slash24 in fresh:
                measurement, measure_stats = fresh[slash24]
            else:
                with span("campaign.slash24", prefix=slash24):
                    measurement, measure_stats = _measure_in_context(
                        internet, policy, slash24,
                        snapshot.active_in(slash24),
                        seed, clock_base, max_destinations_per_slash24,
                        max_probes=remaining,
                    )
                if cache is not None:
                    cache.record(
                        slash24, snapshot.active_in(slash24),
                        measurement, measure_stats,
                    )
            if remaining is not None:
                remaining -= measure_stats.sent
            stats.merge(measure_stats)
            registry.count("campaign.slash24s")
            measure_stats.fold_into(registry, "campaign.probes")
            registry.count(
                f"campaign.categories.{measurement.category.name.lower()}"
            )
            result.add(measurement)
            done += 1
            if progress is not None and not fresh:
                progress.update(
                    done,
                    probes=stats.sent,
                    store_hits=len(cached),
                    store_lookups=len(slash24s) if cache is not None else 0,
                )
    finally:
        # Everything measured so far, here or by the workers, is
        # committed, also when the run raises (a probe budget running
        # out mid-campaign).
        if cache is not None:
            cache.commit()

    # Honest what-actually-ran accounting: netsim.* counts probes this
    # process (and its workers) physically sent, while campaign.probes.*
    # above includes store replays — the gap between the two *is* the
    # store's savings.
    registry.gauge("campaign.workers", workers)
    registry.count("netsim.probes", internet.probe_count - engine_base[0])
    registry.add_seconds(
        "netsim.probe_seconds", internet.probe_seconds - engine_base[1],
        calls=0,
    )
    registry.count(
        "netsim.probe_batches", internet.probe_batches - engine_base[2]
    )
    registry.count(
        "netsim.batched_probes", internet.batched_probes - engine_base[3]
    )
    if cache_base is not None:
        registry.count("campaign.store.hits", cache.hits - cache_base[0])
        registry.count("campaign.store.misses", cache.misses - cache_base[1])
    if events_base is not None:
        # Per-campaign dynamic-event activity (workers' deltas were
        # already folded back into the parent schedule).
        for name, delta in sorted(
            internet.events.counter_deltas(events_base).items()
        ):
            registry.count(f"events.{name}", delta)
    if progress is not None:
        progress.finish(probes=stats.sent)

    # Leave the simulator in a deterministic end state — virtual time
    # advanced by the campaign's (order-invariant) total probe count —
    # so downstream stages see the same world whether the campaign ran
    # serially or sharded.
    internet.begin_measurement_context(
        clock_seconds=(
            clock_base + stats.sent * internet.config.probe_clock_step_seconds
        ),
        nonce=mix(seed, _END_SALT),
    )
    return result
