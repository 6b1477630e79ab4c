"""Per-provider circuit breakers (closed / open / half-open).

The classic fail-fast pattern wired into matchmaking: a provider that
keeps failing — consecutive injected faults on its sessions, or SLA
violations raised by a monitor — *trips* its breaker, and the broker's
registry search stops offering that provider before negotiation starts
(instead of negotiating, binding, failing and retrying).  After a
recovery timeout the breaker goes *half-open* and hands out a bounded
number of probe slots; a successful probe closes it again, a failed one
re-opens it with a fresh (jittered) recovery deadline.

State machine::

                 failures ≥ threshold
        CLOSED ──────────────────────────▶ OPEN
          ▲                                 │ recovery deadline passed
          │ probe succeeds                  ▼
          └──────────────────────────── HALF-OPEN
                                            │ probe fails
                                            └──────▶ OPEN (rescheduled)

Determinism: the breaker never draws from a session's RNG.  Time comes
from an injected ``clock`` and the probe-deadline jitter from a private
:class:`random.Random` seeded at construction, so a fixed master seed
reproduces every trip and probe schedule of a run — and while no breaker
trips, the layer is observationally silent (agreements are bit-identical
with breakers on or off).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..config import FRACTION, NON_NEGATIVE, POSITIVE_INT, Config, knob
from ..soa.service import ServiceDescription
from ..telemetry import get_events, get_registry


class BreakerError(Exception):
    """Raised on malformed breaker configurations."""


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of the state (exported as ``breaker_state{provider}``).
STATE_LEVELS = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclass(frozen=True)
class BreakerConfig(Config):
    """Knobs of one provider's breaker (shared by the whole registry)."""

    error = BreakerError

    #: Consecutive failures (faults or SLA violations) that trip it.
    failure_threshold: int = knob(
        3,
        range=POSITIVE_INT,
        flag="--breaker-threshold",
        metavar="N",
        help="consecutive failures tripping a provider's circuit "
        "breaker (enables breakers)",
    )
    #: Seconds a tripped breaker stays open before probing.
    recovery_s: float = knob(
        0.25,
        range=NON_NEGATIVE,
        flag="--breaker-recovery",
        metavar="SECONDS",
        help="open-state duration before a half-open probe "
        "(enables breakers)",
    )
    #: Fractional jitter on the recovery deadline (``± jitter·recovery``)
    #: so a fleet's breakers don't all probe in lockstep.
    probe_jitter: float = knob(0.2, range=FRACTION)
    #: Probe slots handed out per half-open episode.
    half_open_probes: int = knob(1, range=POSITIVE_INT)
    #: Probe successes required to close from half-open.
    close_after: int = knob(1, range=POSITIVE_INT)


class CircuitBreaker:
    """One provider's breaker; see the module docstring for the FSM."""

    def __init__(
        self,
        provider: str,
        config: BreakerConfig,
        clock: Callable[[], float],
        rng: random.Random,
    ) -> None:
        self.provider = provider
        self.config = config
        self._clock = clock
        self._rng = rng
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._probe_successes = 0
        self._probes_outstanding = 0
        self._reopen_at: Optional[float] = None
        #: (time, from, to) transition journal for inspection/tests.
        self.transitions: List[Tuple[float, str, str]] = []

    # -- queries -------------------------------------------------------

    def allows(self) -> bool:
        """Whether a request may be routed to this provider *now*.

        Side-effectful on purpose: an open breaker whose recovery
        deadline has passed moves to half-open here, and a half-open
        breaker consumes one probe slot per admission.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if (
                self._reopen_at is not None
                and self._clock() >= self._reopen_at
            ):
                self._transition(BreakerState.HALF_OPEN)
                self._probe_successes = 0
                self._probes_outstanding = 0
            else:
                return False
        # Half-open: bounded probe traffic.
        if self._probes_outstanding < self.config.half_open_probes:
            self._probes_outstanding += 1
            return True
        return False

    # -- feedback ------------------------------------------------------

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            self._probes_outstanding = max(0, self._probes_outstanding - 1)
            if self._probe_successes >= self.config.close_after:
                self._transition(BreakerState.CLOSED)
                self._reopen_at = None

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to open, new deadline.
            self._trip()
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._transition(BreakerState.OPEN)
        self.consecutive_failures = 0
        recovery = self.config.recovery_s
        if self.config.probe_jitter and recovery > 0:
            spread = recovery * self.config.probe_jitter
            recovery = max(0.0, recovery + self._rng.uniform(-spread, spread))
        self._reopen_at = self._clock() + recovery

    def _transition(self, to: BreakerState) -> None:
        if to is self.state:
            return
        origin = self.state
        self.state = to
        self.transitions.append((self._clock(), origin.value, to.value))
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "breaker_state",
                "Circuit state per provider (0 closed, 1 half-open, "
                "2 open).",
                labelnames=("provider",),
            ).labels(self.provider).set(STATE_LEVELS[to])
            registry.counter(
                "breaker_transitions_total",
                "Circuit breaker state changes, by provider and target.",
                labelnames=("provider", "to"),
            ).labels(self.provider, to.value).inc()
            get_events().emit(
                "breaker.transition",
                provider=self.provider,
                origin=origin.value,
                to=to.value,
            )


class BreakerRegistry:
    """All per-provider breakers of one serving surface.

    Registered as an availability gate on the
    :class:`~repro.soa.registry.ServiceRegistry` (``admit``), fed from
    the runtime's fault feedback (``record_success`` /
    ``record_failure``) and from SLA monitors (``record_violation``).
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._rng = random.Random(seed)
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, provider: str) -> CircuitBreaker:
        breaker = self._breakers.get(provider)
        if breaker is None:
            # Per-breaker RNG split off the registry seed at first
            # sight, keyed only by creation order of providers — which
            # is deterministic because candidate sets are sorted.
            breaker = CircuitBreaker(
                provider,
                self.config,
                self._clock,
                random.Random(self._rng.getrandbits(64)),
            )
            self._breakers[provider] = breaker
        return breaker

    # -- the availability gate ----------------------------------------

    def admit(self, description: ServiceDescription) -> bool:
        """Gate hook for ``ServiceRegistry.add_gate``."""
        breaker = self.breaker(description.provider)
        allowed = breaker.allows()
        if not allowed:
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "breaker_rejections_total",
                    "Candidates hidden from matchmaking by an open "
                    "breaker.",
                    labelnames=("provider",),
                ).labels(description.provider).inc()
        return allowed

    # -- feedback ------------------------------------------------------

    def record_success(self, provider: str) -> None:
        self.breaker(provider).record_success()

    def record_failure(self, provider: str) -> None:
        self.breaker(provider).record_failure()

    def record_violation(self, provider: str) -> None:
        """An SLA violation counts like a failure (Sec. 4's dependable
        broker reacts to monitoring, not only to hard faults)."""
        self.breaker(provider).record_failure()

    # -- inspection ----------------------------------------------------

    def state(self, provider: str) -> BreakerState:
        return self.breaker(provider).state

    def states(self) -> Dict[str, str]:
        return {
            provider: breaker.state.value
            for provider, breaker in sorted(self._breakers.items())
        }

    def open_providers(self) -> List[str]:
        return sorted(
            provider
            for provider, breaker in self._breakers.items()
            if breaker.state is not BreakerState.CLOSED
        )
