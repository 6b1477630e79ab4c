"""Resilience layer for the serving path (paper Sec. 4, dependability).

The paper's broker is "dependable" because agreements are checked,
monitored and re-negotiated; this package adds the serving-side
mechanisms that keep the broker *available* while providers misbehave:

* :mod:`~repro.resilience.breaker` — per-provider circuit breakers
  gating matchmaking (fail fast instead of negotiate-and-fail);
* :mod:`~repro.resilience.bulkhead` — bounded per-service-class
  compartments so one bad operation cannot starve the worker pool;
* :mod:`~repro.resilience.health` — heartbeat probes that quarantine
  sick providers in the registry before negotiation sees them;
* :mod:`~repro.resilience.dlq` — a dead-letter queue of terminal
  failures, serialized for offline inspection and deterministic replay.

Everything is seed-deterministic and observationally silent while idle:
with a fixed master seed, a run with resilience enabled is bit-identical
to one with it disabled as long as no breaker trips, no probe
quarantines a provider and no bulkhead turns a session away.
"""

from .breaker import (
    BreakerConfig,
    BreakerError,
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
)
from .bulkhead import Bulkhead, BulkheadConfig, BulkheadError
from .dlq import (
    DeadLetter,
    DeadLetterQueue,
    DLQConfig,
    DLQError,
    replay_letter,
)
from .health import HealthConfig, HealthError, HealthMonitor
from .policy import (
    NO_RESILIENCE,
    ResilienceConfig,
    ResiliencePolicy,
    build_resilience,
)

__all__ = [
    "BreakerConfig",
    "BreakerError",
    "BreakerRegistry",
    "BreakerState",
    "Bulkhead",
    "BulkheadConfig",
    "BulkheadError",
    "CircuitBreaker",
    "DLQConfig",
    "DLQError",
    "DeadLetter",
    "DeadLetterQueue",
    "HealthConfig",
    "HealthError",
    "HealthMonitor",
    "NO_RESILIENCE",
    "ResilienceConfig",
    "ResiliencePolicy",
    "build_resilience",
    "replay_letter",
]
