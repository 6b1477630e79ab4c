"""Composing the resilience patterns into one policy object.

:class:`ResilienceConfig` is the declarative half: a frozen bundle of
optional per-pattern configs, where ``None`` disables that pattern —
the all-``None`` default is byte-for-byte the pre-resilience serving
path.  :class:`ResiliencePolicy` is the runtime half: the live breaker
registry, bulkhead, health monitor and dead-letter queue built from a
config by :func:`build_resilience`.

One policy serves one :class:`~repro.runtime.server.RuntimeServer`.  A
fleet builds one policy per shard but passes ``shared_*`` instances for
the state that must be fleet-global (breakers and DLQ: a provider that
is down is down for every shard), while bulkheads stay per-shard (they
guard per-shard resources).  The fleet
runs the one health monitor and its probe loop itself, so a shard's
policy has no ``health``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional

from ..config import Config, subtree
from ..soa.faults import FaultInjector
from ..soa.registry import ServiceRegistry
from .breaker import BreakerConfig, BreakerRegistry
from .bulkhead import Bulkhead, BulkheadConfig
from .dlq import DeadLetterQueue, DLQConfig
from .health import HealthConfig, HealthMonitor


@dataclass(frozen=True)
class ResilienceConfig(Config):
    """Which patterns are on, and how they are tuned.

    Every field is optional; ``None`` disables the pattern entirely
    (no object built, no gate registered, no counters touched).
    """

    breaker: Optional[BreakerConfig] = subtree(BreakerConfig, optional=True)
    bulkhead: Optional[BulkheadConfig] = subtree(
        BulkheadConfig, optional=True
    )
    health: Optional[HealthConfig] = subtree(HealthConfig, optional=True)
    dlq: Optional[DLQConfig] = subtree(DLQConfig, optional=True)

    @property
    def any_enabled(self) -> bool:
        return any(
            (self.breaker, self.bulkhead, self.health, self.dlq)
        )

    @classmethod
    def all_defaults(cls) -> "ResilienceConfig":
        """Every pattern on, at its default tuning."""
        return cls(**{f.name: f.metadata["tree"]() for f in fields(cls)})


#: Disabled-everything singleton (the implicit default everywhere).
NO_RESILIENCE = ResilienceConfig()


@dataclass
class ResiliencePolicy:
    """Live resilience state for one serving surface."""

    config: ResilienceConfig
    breakers: Optional[BreakerRegistry] = None
    bulkhead: Optional[Bulkhead] = None
    health: Optional[HealthMonitor] = None
    dlq: Optional[DeadLetterQueue] = None
    _gated_registry: Optional[ServiceRegistry] = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------

    def attach(self, registry: ServiceRegistry) -> None:
        """Register the breaker gate on the matchmaking registry."""
        if self.breakers is not None and self._gated_registry is None:
            registry.add_gate(self.breakers.admit)
            self._gated_registry = registry

    def detach(self) -> None:
        if self.breakers is not None and self._gated_registry is not None:
            self._gated_registry.remove_gate(self.breakers.admit)
            self._gated_registry = None

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view for CLI summaries and bench artifacts."""
        out: Dict[str, Any] = {}
        if self.breakers is not None:
            out["breakers"] = self.breakers.states()
        if self.bulkhead is not None:
            out["bulkhead_rejections"] = dict(
                sorted(self.bulkhead.rejections.items())
            )
        if self.health is not None:
            out["health_sweeps"] = self.health.sweeps
            out["health_transitions"] = [
                {"sweep": sweep, "provider": provider, "to": to}
                for sweep, provider, to in self.health.transitions
            ]
        if self.dlq is not None:
            out["dlq"] = self.dlq.stats()
        return out


def build_resilience(
    config: Optional[ResilienceConfig],
    registry: ServiceRegistry,
    injector: Optional[FaultInjector] = None,
    seed: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    tick_source: Optional[Callable[[], int]] = None,
    shared_breakers: Optional[BreakerRegistry] = None,
    shared_dlq: Optional[DeadLetterQueue] = None,
) -> ResiliencePolicy:
    """Build (or adopt) the live objects for ``config``.

    ``shared_*`` lets a fleet hand every shard the same breaker
    registry and DLQ while each shard still gets its own bulkhead.  The
    breaker gate is attached to ``registry`` before this returns.
    """
    config = config or NO_RESILIENCE
    policy = ResiliencePolicy(config=config)
    # Explicit None checks: shared instances can be *empty* (a fresh
    # DLQ is falsy via __len__) and must still be adopted, not rebuilt.
    if config.breaker is not None:
        policy.breakers = (
            shared_breakers
            if shared_breakers is not None
            else BreakerRegistry(config.breaker, clock=clock, seed=seed)
        )
    if config.bulkhead is not None:
        policy.bulkhead = Bulkhead(config.bulkhead)
    if config.health is not None:
        policy.health = HealthMonitor(
            registry,
            injector=injector,
            config=config.health,
            seed=seed,
            tick_source=tick_source,
        )
    if config.dlq is not None:
        policy.dlq = (
            shared_dlq if shared_dlq is not None else DeadLetterQueue(config.dlq)
        )
    policy.attach(registry)
    return policy
