"""Observability layer for the co-verification stack.

Counters, histograms and span timers (:mod:`repro.obs.metrics`), a
structured JSON-lines trace of co-simulation decisions
(:mod:`repro.obs.trace`), causal cell provenance across the
abstraction interface (:mod:`repro.obs.provenance`), Chrome/Perfetto
trace export (:mod:`repro.obs.chrome`), kernel hot-path profiling
hooks (:mod:`repro.obs.profile`) and the observed E1 reference
scenario behind ``python -m repro stats`` (:mod:`repro.obs.scenario`
— imported lazily to keep this package free of a dependency cycle
with :mod:`repro.core`).

Wiring: :class:`repro.core.CoVerificationEnvironment` owns a
:class:`MetricsRegistry` (pass ``observe=False`` for the null
registry) and a :class:`ProvenanceTracker` (``provenance_sample``
knob) and hands instruments to the synchronisers and co-simulation
entities; ``env.metrics()`` composes the registry snapshot with the
kernel statistics of both simulators.  Metric names and the trace
schema are documented in DESIGN.md §"Observability".

Distributed telemetry (:mod:`repro.obs.distributed` /
:mod:`repro.obs.merge`): each shard worker builds one plain-data
telemetry payload (registry snapshot, provenance spans, coverage
counters) shipped over the shard wire's tag codec; the merge layer
folds N payloads into one coherent view, and the Chrome exporter
renders shard-labelled records as one Perfetto process group per
shard with cross-process flow arrows.
"""

from .chrome import (ChromeTraceError, export_chrome_trace,
                     load_trace_jsonl, validate_chrome_trace)
from .distributed import (TELEMETRY_SCHEMA, build_telemetry,
                          coverage_snapshot, fsm_coverage,
                          hop_tail_coverage, residual_backlog,
                          spans_from_tracker, sync_window_coverage)
from .merge import (merge_counters, merge_coverage, merge_histograms,
                    merge_instrument_snapshots, merge_spans,
                    merge_telemetry)
from .metrics import (Counter, DEFAULT_SECONDS_BOUNDS, Histogram,
                      MetricsRegistry, NULL_REGISTRY, SpanTimer)
from .profile import PROFILE_METRICS, attach_profiling
from .provenance import HOPS, ProvenanceTracker, TRACE_ID_FIELD
from .trace import TraceWriter

__all__ = ["ChromeTraceError", "Counter", "DEFAULT_SECONDS_BOUNDS",
           "HOPS", "Histogram", "MetricsRegistry", "NULL_REGISTRY",
           "PROFILE_METRICS", "ProvenanceTracker", "SpanTimer",
           "TELEMETRY_SCHEMA", "TRACE_ID_FIELD", "TraceWriter",
           "attach_profiling", "build_telemetry", "coverage_snapshot",
           "export_chrome_trace", "fsm_coverage",
           "hop_tail_coverage", "load_trace_jsonl", "merge_counters",
           "merge_coverage", "merge_histograms",
           "merge_instrument_snapshots", "merge_spans",
           "merge_telemetry",
           "residual_backlog", "spans_from_tracker",
           "sync_window_coverage", "validate_chrome_trace"]
