"""The process-wide telemetry session.

Instrumented modules fetch the active registry/tracer/event log through
``get_registry()``/``get_tracer()``/``get_events()``.  By default those
return the null implementations, so all instrumentation in the library
is free until somebody calls :func:`install` (the CLI's ``--telemetry``,
the bench harness, or a test) — and everything reverts on
:func:`uninstall`.

``telemetry_session`` is the scoped form: install, yield the session,
restore whatever was active before (sessions nest).
``telemetry_suspended`` is its opposite: the null implementations for
the duration of a block, then whatever was active before.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from .events import NULL_EVENT_LOG, EventLog
from .metrics import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer


@dataclass
class TelemetrySession:
    """One coherent set of collection surfaces."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    events: EventLog = field(default_factory=EventLog)

    def snapshot(self) -> Dict[str, Any]:
        from .exporters import snapshot

        return snapshot(self.registry, self.tracer, self.events)


_registry: Any = NULL_REGISTRY
_tracer: Any = NULL_TRACER
_events: Any = NULL_EVENT_LOG


def get_registry() -> Any:
    """The active metrics registry (null when telemetry is off)."""
    return _registry


def get_tracer() -> Any:
    """The active tracer (null when telemetry is off)."""
    return _tracer


def get_events() -> Any:
    """The active event log (null when telemetry is off)."""
    return _events


def enabled() -> bool:
    return _registry.enabled


def install(session: Optional[TelemetrySession] = None) -> TelemetrySession:
    """Make ``session`` (a fresh one by default) the active telemetry."""
    global _registry, _tracer, _events
    session = session or TelemetrySession()
    _registry = session.registry
    _tracer = session.tracer
    _events = session.events
    return session


def uninstall() -> None:
    """Back to the null implementations."""
    global _registry, _tracer, _events
    _registry = NULL_REGISTRY
    _tracer = NULL_TRACER
    _events = NULL_EVENT_LOG


@contextmanager
def telemetry_session(
    session: Optional[TelemetrySession] = None,
) -> Iterator[TelemetrySession]:
    """Scoped install: restores the previously active surfaces on exit."""
    global _registry, _tracer, _events
    previous = (_registry, _tracer, _events)
    active = install(session)
    try:
        yield active
    finally:
        _registry, _tracer, _events = previous


@contextmanager
def telemetry_suspended() -> Iterator[None]:
    """Scoped uninstall: the block records nothing, and the previously
    active surfaces come back on exit."""
    global _registry, _tracer, _events
    previous = (_registry, _tracer, _events)
    uninstall()
    try:
        yield
    finally:
        _registry, _tracer, _events = previous
