"""Bulkhead isolation: bounded per-service-class compartments.

The runtime's worker pool is a shared resource; without isolation, one
pathological service class (an operation whose solves crawl, a provider
whose injected delays stall every attempt) can occupy every worker and
every queue slot, starving the classes that are perfectly healthy.  A
:class:`Bulkhead` caps how many *admitted-but-unfinished* sessions each
class may hold at once — since workers only ever hold admitted sessions,
the cap bounds the class's worker occupancy too, exactly the
compartmentalized-hull picture the pattern is named after.

Admission is synchronous and non-blocking (``try_acquire``): a full
compartment rejects the session immediately with a typed result
(``SessionStatus.BULKHEAD_REJECTED``) instead of letting it crowd the
shared queue — the same explicit-backpressure stance as the admission
queue itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import POSITIVE_INT, Config, knob
from ..telemetry import get_registry


class BulkheadError(Exception):
    """Raised on malformed bulkhead configurations."""


@dataclass(frozen=True)
class BulkheadConfig(Config):
    """Compartment sizing: ``default_limit`` caps every class alike."""

    error = BulkheadError

    default_limit: int = knob(
        16,
        range=POSITIVE_INT,
        flag="--bulkhead-limit",
        metavar="N",
        help="in-flight sessions allowed per service class "
        "(enables bulkheads)",
    )


class Bulkhead:
    """Non-blocking per-class admission slots.

    Single-threaded by design: acquire/release happen on the event loop
    (admission and completion callbacks), never from worker threads.
    """

    def __init__(self, config: Optional[BulkheadConfig] = None) -> None:
        self.config = config or BulkheadConfig()
        self._inflight: Dict[str, int] = {}
        self.rejections: Dict[str, int] = {}

    def try_acquire(self, cls: str) -> bool:
        """Take one slot of ``cls``; ``False`` = compartment full."""
        held = self._inflight.get(cls, 0)
        if held >= self.config.default_limit:
            self.rejections[cls] = self.rejections.get(cls, 0) + 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "bulkhead_rejections_total",
                    "Sessions bounced by a full service-class "
                    "compartment.",
                    labelnames=("service_class",),
                ).labels(cls).inc()
            return False
        self._inflight[cls] = held + 1
        self._gauge(cls)
        return True

    def release(self, cls: str) -> None:
        held = self._inflight.get(cls, 0)
        if held <= 0:
            raise BulkheadError(
                f"release of class {cls!r} without a matching acquire"
            )
        self._inflight[cls] = held - 1
        self._gauge(cls)

    def inflight(self, cls: str) -> int:
        return self._inflight.get(cls, 0)

    def _gauge(self, cls: str) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "bulkhead_inflight",
                "Admitted-but-unfinished sessions per service class.",
                labelnames=("service_class",),
            ).labels(cls).set(self._inflight.get(cls, 0))
