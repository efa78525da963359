"""Job specs, job records, and the spec executors.

A *spec* is the client-submitted JSON description of one unit of work.
Three kinds exist:

* ``campaign`` — run a Hobbit measurement campaign for a profile
  (optionally capped to the first N eligible /24s, optionally without
  the trained confidence table for cheap probing policies);
* ``experiment`` — run one or more named paper experiments end to end;
* ``sleep`` — a diagnostic no-op that holds a worker slot for a given
  duration (queue/backpressure/cancellation testing, exactly like a
  health-check job on a production queue).

Specs are *normalized* (defaults filled, unknown keys rejected) and
then *fingerprinted* over their canonical JSON, the same content-hash
discipline the measurement store applies to campaigns: two submissions
of the same work share one fingerprint, which is what lets the daemon
serve a repeat query straight from the store — the completed result is
stored under :func:`result_key_for` as an ordinary artifact record.

The executors here are plain synchronous functions. The daemon never
calls them on its event loop; they run inside executor worker
processes (:mod:`repro.service.worker`) or inside the one-shot CLI —
and because both paths call the *same* function with the same
normalized spec, a campaign submitted to the daemon is bit-identical
(store records, category counts, virtual clock) to the same campaign
run one-shot.

Job *records* are the daemon's durable bookkeeping: one JSON file per
job under ``<store>/service/jobs/``, written atomically on every state
transition, so a killed daemon restarts knowing exactly which jobs
were in flight and requeues them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..util.fileio import atomic_writer

#: Job lifecycle states. ``queued`` and ``running`` are live;
#: ``paused``/``interrupted`` (and, via explicit resume, ``cancelled``
#: and ``failed``) can be requeued — per-/24 checkpoints make a resumed
#: campaign bit-identical to an uninterrupted one.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
STATE_PAUSED = "paused"
STATE_INTERRUPTED = "interrupted"

JOB_STATES = (
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_FAILED,
    STATE_CANCELLED,
    STATE_PAUSED,
    STATE_INTERRUPTED,
)

#: States a job never leaves on its own.
TERMINAL_STATES = frozenset(
    {STATE_DONE, STATE_FAILED, STATE_CANCELLED, STATE_PAUSED,
     STATE_INTERRUPTED}
)

#: States :func:`ServiceDaemon` will requeue on restart, and states the
#: ``resume`` endpoint accepts.
RESUMABLE_STATES = frozenset(
    {STATE_PAUSED, STATE_INTERRUPTED, STATE_CANCELLED, STATE_FAILED}
)

JOB_KINDS = ("campaign", "experiment", "sleep")

#: Longest a ``sleep`` job may hold a worker slot.
MAX_SLEEP_SECONDS = 600.0


# -- service directory layout ------------------------------------------------
#
# Everything the service persists lives under <store>/service/ — jobs
# coordinate with workers exclusively through this directory (plus the
# measurement store's own segments), never over pipes, which is what
# makes both worker loss and daemon restart recoverable.


def service_dir(store_root: str) -> str:
    return os.path.join(os.path.abspath(store_root), "service")


def jobs_dir(store_root: str) -> str:
    return os.path.join(service_dir(store_root), "jobs")


def job_path(store_root: str, job_id: str) -> str:
    return os.path.join(jobs_dir(store_root), f"{job_id}.json")


def stream_path(store_root: str, job_id: str) -> str:
    """The job's NDJSON stream journal: the worker's trace journal plus
    the daemon's state-transition records, in append order."""
    return os.path.join(jobs_dir(store_root), f"{job_id}.stream.jsonl")


def manifest_path(store_root: str, job_id: str) -> str:
    return os.path.join(jobs_dir(store_root), f"{job_id}.run.json")


def log_path(store_root: str, job_id: str) -> str:
    return os.path.join(jobs_dir(store_root), f"{job_id}.log")


def error_path(store_root: str, job_id: str) -> str:
    return os.path.join(jobs_dir(store_root), f"{job_id}.error")


def daemon_info_path(store_root: str) -> str:
    """Where a running daemon advertises its address (host, port, pid);
    written atomically on startup, removed on graceful shutdown, so
    clients and tests can discover the bound port (``--port 0``)."""
    return os.path.join(service_dir(store_root), "daemon.json")


# -- specs -------------------------------------------------------------------


class SpecError(ValueError):
    """A submitted job spec is invalid (daemon answers 400)."""


def _require_profile(name: object) -> str:
    from ..experiments import PROFILES

    if not isinstance(name, str) or name not in PROFILES:
        raise SpecError(
            f"unknown profile {name!r}; choose from {sorted(PROFILES)}"
        )
    return name


def _optional_int(spec: Dict, key: str, minimum: int) -> Optional[int]:
    value = spec.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise SpecError(f"{key} must be an integer >= {minimum}")
    return value


def normalize_spec(raw: Dict) -> Dict:
    """Validate a submitted spec and fill every default, so the
    canonical form (and hence the fingerprint) is independent of which
    optional keys the client spelled out."""
    if not isinstance(raw, dict):
        raise SpecError("job spec must be a JSON object")
    kind = raw.get("kind")
    if kind not in JOB_KINDS:
        raise SpecError(
            f"unknown job kind {kind!r}; choose from {list(JOB_KINDS)}"
        )
    known = {"kind", "fresh"}
    spec: Dict[str, object] = {"kind": kind}
    if kind == "sleep":
        known |= {"seconds"}
        seconds = raw.get("seconds", 1.0)
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool) \
                or not 0 <= float(seconds) <= MAX_SLEEP_SECONDS:
            raise SpecError(
                f"seconds must be a number in [0, {MAX_SLEEP_SECONDS}]"
            )
        spec["seconds"] = float(seconds)
    elif kind == "campaign":
        from ..experiments import PROFILES

        known |= {
            "profile", "seed", "limit", "max_destinations", "workers",
            "confidence", "pace_seconds",
        }
        profile = _require_profile(raw.get("profile", "small"))
        spec["profile"] = profile
        seed = raw.get("seed")
        if seed is not None and (
            not isinstance(seed, int) or isinstance(seed, bool)
        ):
            raise SpecError("seed must be an integer")
        spec["seed"] = seed
        spec["limit"] = _optional_int(raw, "limit", 1)
        max_destinations = _optional_int(raw, "max_destinations", 1)
        spec["max_destinations"] = (
            max_destinations
            if max_destinations is not None
            else PROFILES[profile].campaign_max_destinations
        )
        workers = _optional_int(raw, "workers", 1)
        spec["workers"] = workers if workers is not None else 1
        confidence = raw.get("confidence", True)
        if not isinstance(confidence, bool):
            raise SpecError("confidence must be a boolean")
        spec["confidence"] = confidence
        pace = raw.get("pace_seconds", 0.0)
        if not isinstance(pace, (int, float)) or isinstance(pace, bool) \
                or not 0 <= float(pace) <= 60:
            raise SpecError("pace_seconds must be a number in [0, 60]")
        spec["pace_seconds"] = float(pace)
    else:  # experiment
        known |= {"profile", "experiments", "workers"}
        spec["profile"] = _require_profile(raw.get("profile", "small"))
        from ..experiments import experiment_ids

        wanted = raw.get("experiments")
        if wanted == ["all"] or wanted == "all" or wanted is None:
            wanted = experiment_ids()
        if not isinstance(wanted, list) or not wanted:
            raise SpecError("experiments must be a non-empty list of ids")
        valid = set(experiment_ids())
        for experiment_id in wanted:
            if experiment_id not in valid:
                raise SpecError(
                    f"unknown experiment {experiment_id!r}; "
                    f"known: {sorted(valid)}"
                )
        spec["experiments"] = list(wanted)
        workers = _optional_int(raw, "workers", 1)
        spec["workers"] = workers if workers is not None else 1
    fresh = raw.get("fresh", False)
    if not isinstance(fresh, bool):
        raise SpecError("fresh must be a boolean")
    spec["fresh"] = fresh
    unknown = set(raw) - known
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    return spec


def spec_fingerprint(spec: Dict) -> str:
    """Content fingerprint of a normalized spec.

    ``fresh`` is excluded: it changes *whether* the daemon may serve a
    cached answer, never *what* the answer is."""
    from ..store.fingerprint import digest

    canonical = {
        key: value for key, value in spec.items() if key != "fresh"
    }
    return digest(
        "service-job::" + json.dumps(canonical, sort_keys=True)
    )


def result_key_for(spec: Dict) -> str:
    """Store key under which a completed job's result document lives —
    the fingerprint-keyed warm path for repeat queries."""
    from ..store.fingerprint import digest

    return digest(f"service-result::{spec_fingerprint(spec)}")


# -- executors ---------------------------------------------------------------
#
# Payloads split into a deterministic part (compared bit-for-bit across
# daemon/one-shot/resumed runs) and an ``io`` sub-document of
# run-dependent accounting (probes physically sent this run, store
# hits, wall-clocks) — a warm replay legitimately differs there.

#: Callback invoked per completed /24: (measurement, stats, done,
#: total). Threaded into :func:`repro.core.pipeline.run_campaign`.
MeasurementHook = Callable[..., None]


def deterministic_payload(payload: Dict) -> Dict:
    """The payload minus its run-dependent ``io`` accounting — the part
    every execution of the same spec must reproduce exactly."""
    return {key: value for key, value in payload.items() if key != "io"}


def execute_spec(
    spec: Dict,
    store_root: Optional[str],
    on_measurement: Optional[MeasurementHook] = None,
) -> Dict:
    """Run one normalized spec to completion; returns its payload.

    Synchronous and process-agnostic: the daemon's executor workers,
    the one-shot CLI and the test suite all come through here, which is
    the bit-identity guarantee — there is only one execution path.
    """
    kind = spec["kind"]
    if kind == "sleep":
        return _execute_sleep(spec)
    if kind == "campaign":
        return _execute_campaign(spec, store_root, on_measurement)
    return _execute_experiments(spec, store_root)


def _execute_sleep(spec: Dict) -> Dict:
    from ..obs.trace import trace_event

    deadline = time.monotonic() + float(spec["seconds"])
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        trace_event("service.sleep_tick", remaining=round(remaining, 3))
        time.sleep(min(remaining, 0.1))
    return {"kind": "sleep", "seconds": spec["seconds"], "io": {}}


def _execute_campaign(
    spec: Dict,
    store_root: Optional[str],
    on_measurement: Optional[MeasurementHook],
) -> Dict:
    from ..core import TerminationPolicy
    from ..core.pipeline import run_campaign
    from ..experiments import PROFILES, Workspace
    from ..store.fingerprint import (
        campaign_fingerprint,
        policy_fingerprint,
        scenario_fingerprint,
    )

    profile = PROFILES[spec["profile"]]
    workers = int(spec["workers"])
    hook = on_measurement
    pace = float(spec["pace_seconds"])
    if pace:
        inner = hook

        def hook(measurement, stats, done, total):  # noqa: ANN001
            if inner is not None:
                inner(measurement, stats, done, total)
            time.sleep(pace)

    with Workspace(profile, workers=workers, store_path=store_root) as ws:
        internet = ws.internet
        snapshot = ws.snapshot
        if spec["confidence"]:
            policy = TerminationPolicy(confidence_table=ws.confidence_table)
        else:
            policy = TerminationPolicy()
        seed = (
            int(spec["seed"])
            if spec["seed"] is not None
            else internet.config.seed ^ 0xCA11
        )
        slash24s = None
        if spec["limit"] is not None:
            slash24s = snapshot.eligible_slash24s()[: int(spec["limit"])]
        clock_base = internet.clock_seconds
        probes_base = internet.probe_count
        result = run_campaign(
            internet,
            policy,
            slash24s=slash24s,
            snapshot=snapshot,
            seed=seed,
            max_destinations_per_slash24=int(spec["max_destinations"]),
            workers=workers,
            store=ws.store,
            on_measurement=hook,
        )
        fingerprint = campaign_fingerprint(
            scenario_fingerprint(internet.config),
            policy_fingerprint(policy),
            seed,
            clock_base,
            int(spec["max_destinations"]),
        )
        counts = result.category_counts()
        return {
            "kind": "campaign",
            "profile": profile.name,
            "seed": seed,
            "confidence": spec["confidence"],
            "limit": spec["limit"],
            "max_destinations": int(spec["max_destinations"]),
            "campaign_fingerprint": fingerprint,
            "slash24s": result.total,
            "probes_used": result.probes_used,
            "category_counts": {
                category.name.lower(): count
                for category, count in sorted(
                    counts.items(), key=lambda item: item[0].name
                )
            },
            "homogeneous": sum(
                1 for m in result.measurements.values() if m.is_homogeneous
            ),
            "analyzable": len(result.analyzable()),
            "clock_seconds": internet.clock_seconds,
            "io": {
                "probes_sent": internet.probe_count - probes_base,
                "workers": workers,
            },
        }


def _execute_experiments(spec: Dict, store_root: Optional[str]) -> Dict:
    from ..experiments import PROFILES, Workspace, run_experiment

    profile = PROFILES[spec["profile"]]
    with Workspace(
        profile, workers=int(spec["workers"]), store_path=store_root
    ) as ws:
        documents: List[Dict] = []
        seconds: Dict[str, float] = {}
        failures = 0
        for experiment_id in spec["experiments"]:
            started = time.perf_counter()
            try:
                result = run_experiment(experiment_id, ws)
            except Exception as error:
                failures += 1
                documents.append(
                    {"experiment": experiment_id, "error": str(error)}
                )
            else:
                documents.append(
                    {
                        "experiment": result.experiment_id,
                        "title": result.title,
                        "headers": result.headers,
                        "rows": [
                            [str(cell) for cell in row]
                            for row in result.rows
                        ],
                        "notes": result.notes,
                    }
                )
            seconds[experiment_id] = round(
                time.perf_counter() - started, 3
            )
        return {
            "kind": "experiment",
            "profile": profile.name,
            "experiments": documents,
            "failures": failures,
            "io": {"seconds": seconds},
        }


# -- job records -------------------------------------------------------------


@dataclass
class JobRecord:
    """One job's durable bookkeeping entry."""

    id: str
    spec: Dict
    fingerprint: str
    result_key: str
    state: str = STATE_QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    pid: Optional[int] = None
    #: True when the daemon answered from the store without running a
    #: worker (zero simulator probes by construction).
    warm: bool = False
    #: How many times this job has entered ``running`` — a resumed job
    #: counts each attempt.
    attempts: int = 0

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "result_key": self.result_key,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "pid": self.pid,
            "warm": self.warm,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRecord":
        return cls(
            id=str(data["id"]),
            spec=dict(data["spec"]),
            fingerprint=str(data["fingerprint"]),
            result_key=str(data["result_key"]),
            state=str(data["state"]),
            created=float(data["created"]),
            started=data.get("started"),
            finished=data.get("finished"),
            error=data.get("error"),
            pid=data.get("pid"),
            warm=bool(data.get("warm", False)),
            attempts=int(data.get("attempts", 0)),
        )

    @classmethod
    def create(cls, job_id: str, spec: Dict) -> "JobRecord":
        return cls(
            id=job_id,
            spec=spec,
            fingerprint=spec_fingerprint(spec),
            result_key=result_key_for(spec),
        )

    def summary(self) -> Dict:
        """The status document ``GET /jobs`` rows carry."""
        return {
            "id": self.id,
            "kind": self.spec.get("kind"),
            "state": self.state,
            "fingerprint": self.fingerprint,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "warm": self.warm,
            "attempts": self.attempts,
            "error": self.error,
        }


def save_job(store_root: str, record: JobRecord) -> None:
    """Atomically persist a job record (every state transition)."""
    os.makedirs(jobs_dir(store_root), exist_ok=True)
    with atomic_writer(job_path(store_root, record.id)) as handle:
        json.dump(record.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_job(store_root: str, job_id: str) -> Optional[JobRecord]:
    path = job_path(store_root, job_id)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return JobRecord.from_dict(json.load(handle))


def list_jobs(store_root: str) -> List[JobRecord]:
    """Every persisted job, oldest id first."""
    directory = jobs_dir(store_root)
    if not os.path.isdir(directory):
        return []
    records = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith(".run.json"):
            continue
        record = load_job(store_root, name[: -len(".json")])
        if record is not None:
            records.append(record)
    return records


def next_job_id(store_root: str) -> str:
    """Monotonic job ids that survive daemon restarts (``j000001``…)."""
    highest = 0
    for record in list_jobs(store_root):
        try:
            highest = max(highest, int(record.id.lstrip("j")))
        except ValueError:
            continue
    return f"j{highest + 1:06d}"


def append_stream_record(
    store_root: str, job_id: str, document: Dict
) -> None:
    """Append one daemon-side record to the job's stream journal.

    Only called while no worker owns the journal (before spawn / after
    exit), so daemon and worker appends never interleave."""
    os.makedirs(jobs_dir(store_root), exist_ok=True)
    path = stream_path(store_root, job_id)
    line = json.dumps(
        {"ts": time.time(), **document}, separators=(",", ":"),
        default=str,
    )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
