"""Observability: metrics, tracing, progress and run manifests.

The subsystem exists to make degradations *visible*: which execution
path a campaign actually took (parallel or fallen-back serial), what
was actually probed versus replayed from the store, and where the wall
clock went — the honest-accounting counterpart to the paper's
measurement-load results.

Four small pieces:

* :mod:`.metrics` — a registry of counters, gauges and timers whose
  campaign totals match the serial run bit for bit, ``workers=N`` or
  not (the parent folds in what each worker's chunks cost).
* :mod:`.trace` — span tracing into an append-only JSONL journal,
  enabled by ``--trace PATH`` / ``$REPRO_TRACE`` and free when off.
* :mod:`.progress` — a rate-limited campaign progress line
  (``$REPRO_PROGRESS=1``).
* :mod:`.manifest` — the per-run ``run.json`` statement of record.
"""

from .manifest import (
    MANIFEST_NAME,
    build_manifest,
    manifest_path_for,
    phase_wall_clocks,
    write_run_manifest,
)
from .metrics import (
    MetricsRegistry,
    current_metrics,
    metrics_scope,
)
from .progress import PROGRESS_ENV, ProgressReporter, progress_enabled
from .trace import (
    TRACE_ENV,
    TraceSummary,
    Tracer,
    configure_tracing,
    span,
    summarize_trace,
    trace_event,
    trace_path_from_env,
    trace_warning,
    tracer,
)

__all__ = [
    "MANIFEST_NAME",
    "MetricsRegistry",
    "PROGRESS_ENV",
    "ProgressReporter",
    "TRACE_ENV",
    "TraceSummary",
    "Tracer",
    "build_manifest",
    "configure_tracing",
    "current_metrics",
    "manifest_path_for",
    "metrics_scope",
    "phase_wall_clocks",
    "progress_enabled",
    "span",
    "summarize_trace",
    "trace_event",
    "trace_path_from_env",
    "trace_warning",
    "tracer",
    "write_run_manifest",
]
