"""repro.telemetry — metrics, tracing, and a structured event log.

The measurement substrate for the whole stack (ROADMAP: "fast as the
hardware allows" is unprovable without numbers).  Solver backends,
the broker, the nmsccp interpreter and the fault/monitor loop all report
through the *active session*; by default that session is a set of null
objects, so the instrumented library costs nothing until a CLI flag,
bench hook, or test turns collection on:

    from repro.telemetry import telemetry_session
    with telemetry_session() as t:
        broker.negotiate(request)
        print(t.snapshot()["metrics"])
"""

from ..caching import DEFAULT_CACHE_SIZE, LRUCache, cache_stats
from .events import NULL_EVENT_LOG, EventLog, NullEventLog
from .exporters import (
    snapshot,
    to_prometheus,
    write_prometheus,
    write_snapshot,
    write_trace_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from .runtime import (
    TelemetrySession,
    enabled,
    get_events,
    get_registry,
    get_tracer,
    install,
    telemetry_session,
    uninstall,
)
from .tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "LRUCache",
    "DEFAULT_CACHE_SIZE",
    "cache_stats",
    "TelemetrySession",
    "get_registry",
    "get_tracer",
    "get_events",
    "enabled",
    "install",
    "uninstall",
    "telemetry_session",
    "snapshot",
    "write_snapshot",
    "to_prometheus",
    "write_prometheus",
    "write_trace_jsonl",
]
