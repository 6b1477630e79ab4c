"""Health-checked matchmaking: heartbeat probes feeding the registry.

A :class:`HealthMonitor` periodically *probes* every published service
— consulting the same fault models a live invocation would hit, but
without invoking anything — and aggregates the answers per provider:

* ``unhealthy_after`` consecutive failed probe sweeps quarantine the
  provider in the :class:`~repro.soa.registry.ServiceRegistry`, so it
  drops out of matchmaking *before* a doomed negotiation starts;
* ``healthy_after`` consecutive clean sweeps reinstate it.

This is the health-check/heartbeat pattern: the breaker reacts to real
traffic failing, the health monitor detects sick providers even when no
session happens to be routed at them (and, symmetrically, notices
recovery without burning a live probe session).

Determinism: each probe's RNG derives from ``(seed, service id, probe
tick)`` via the same keyed SHA-256 derivation the fleet uses for
sessions (:func:`~repro.runtime.server.derive_session_seed`) — probe
draws never touch the master stream or any session stream, so enabling
health checks cannot shift a single agreement.  Probe ticks come from an
injectable ``tick_source`` (the runtime passes its admission counter, a
fleet its global ingress sequence) so windowed fault models like
``BurstOutage`` are observed in the same coordinate system sessions
experience them in.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..config import POSITIVE, POSITIVE_INT, Config, knob
from ..soa.faults import FaultInjector
from ..soa.registry import ServiceRegistry
from ..telemetry import get_events, get_registry


class HealthError(Exception):
    """Raised on malformed health configurations."""


@dataclass(frozen=True)
class HealthConfig(Config):
    """Knobs of the heartbeat/probe loop."""

    error = HealthError

    #: Sleep between probe sweeps in the async loop.
    interval_s: float = knob(
        0.05,
        range=POSITIVE,
        flag="--health-interval",
        metavar="SECONDS",
        help="heartbeat probe period (enables health-checked "
        "matchmaking)",
    )
    #: Consecutive failed sweeps before a provider is quarantined.
    unhealthy_after: int = knob(
        2,
        range=POSITIVE_INT,
        flag="--health-unhealthy-after",
        metavar="N",
        help="failed probe sweeps before quarantine (enables health "
        "checks)",
    )
    #: Consecutive clean sweeps before a quarantined provider rejoins.
    healthy_after: int = knob(2, range=POSITIVE_INT)
    #: Lease renewed on every clean sweep (None = no lease management).
    lease_s: Optional[float] = knob(None, range=POSITIVE, optional=True)


class HealthMonitor:
    """Probes providers and drives registry quarantine/reinstatement."""

    def __init__(
        self,
        registry: ServiceRegistry,
        injector: Optional[FaultInjector] = None,
        config: Optional[HealthConfig] = None,
        seed: Optional[int] = None,
        tick_source: Optional[Callable[[], int]] = None,
    ) -> None:
        self.registry = registry
        self.injector = injector
        self.config = config or HealthConfig()
        self.seed = seed
        self._tick_source = tick_source
        self._sweeps = 0
        self._consecutive_bad: Dict[str, int] = {}
        self._consecutive_good: Dict[str, int] = {}
        #: (sweep, provider, "unhealthy"|"healthy") transition journal.
        self.transitions: List[tuple] = []

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def _probe_service(self, service_id: str, tick: int) -> bool:
        """One synthetic invocation: ``True`` = the service looks up.

        Consults the injector's fault models directly (not ``decide``),
        so probe traffic neither pollutes the injected-fault history nor
        advances any shared RNG stream.
        """
        if self.injector is None:
            return True
        # Imported here: runtime.server imports this package at module
        # level, so the reverse edge must stay lazy.
        from ..runtime.server import derive_session_seed

        rng = random.Random(
            derive_session_seed(self.seed, f"health|{service_id}|{tick}")
        )
        for model in self.injector.models_for(service_id):
            fault = model.apply(tick, rng)
            if fault is not None and fault.fail:
                return False
        return True

    def probe_all(self, tick: Optional[int] = None) -> Dict[str, bool]:
        """One sweep over every provider; returns provider → healthy.

        A provider is healthy when *all* of its published services pass
        their probe.  Quarantined providers are probed too — that is how
        they earn reinstatement.
        """
        if tick is None:
            tick = (
                self._tick_source()
                if self._tick_source is not None
                else self._sweeps
            )
        self._sweeps += 1
        by_provider: Dict[str, bool] = {}
        for description in self.registry.find(include_unavailable=True):
            up = self._probe_service(description.service_id, tick)
            provider = description.provider
            by_provider[provider] = by_provider.get(provider, True) and up
            if up and self.config.lease_s is not None:
                # A clean probe doubles as the provider's heartbeat.
                self.registry.renew_lease(
                    description.service_id, self.config.lease_s
                )
        for provider, healthy in sorted(by_provider.items()):
            self._account(provider, healthy)
        return by_provider

    def _account(self, provider: str, healthy: bool) -> None:
        if healthy:
            self._consecutive_bad[provider] = 0
            good = self._consecutive_good.get(provider, 0) + 1
            self._consecutive_good[provider] = good
            if (
                self.registry.is_quarantined(provider)
                and good >= self.config.healthy_after
            ):
                self.registry.reinstate(provider)
                self._record_transition(provider, "healthy")
        else:
            self._consecutive_good[provider] = 0
            bad = self._consecutive_bad.get(provider, 0) + 1
            self._consecutive_bad[provider] = bad
            if (
                not self.registry.is_quarantined(provider)
                and bad >= self.config.unhealthy_after
            ):
                self.registry.quarantine(provider)
                self._record_transition(provider, "unhealthy")

    def _record_transition(self, provider: str, to: str) -> None:
        self.transitions.append((self._sweeps, provider, to))
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "health_transitions_total",
                "Provider health flips detected by the probe loop.",
                labelnames=("provider", "to"),
            ).labels(provider, to).inc()
            registry.gauge(
                "health_state",
                "Probe verdict per provider (1 healthy, 0 quarantined).",
                labelnames=("provider",),
            ).labels(provider).set(1 if to == "healthy" else 0)
        get_events().emit(
            "health.transition",
            provider=provider,
            to=to,
            sweep=self._sweeps,
        )

    # ------------------------------------------------------------------
    # The async loop (runtime/fleet-owned)
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Probe forever at ``interval_s``; cancel to stop."""
        while True:
            self.probe_all()
            await asyncio.sleep(self.config.interval_s)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def sweeps(self) -> int:
        return self._sweeps

    def is_healthy(self, provider: str) -> bool:
        return not self.registry.is_quarantined(provider)
