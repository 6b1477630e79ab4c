"""Hedged (shadow) solves for deadline-sensitive sessions.

The tail-latency pattern: when a session's primary attempt chain has
been running longer than the observed latency percentile, launch one
shadow attempt in parallel — *first success wins*, the loser is
cancelled.  A session stuck behind an injected delay or a slow provider
finishes at roughly the latency of the second-fastest path instead of
the slowest.

Reproducibility is the delicate part (and the reason this is not just
``asyncio.wait``): concurrent attempts must **never share a session's
RNG** — interleaved draws would make fault decisions and backoff jitter
depend on scheduling.  The primary attempt keeps the session's own
stream untouched (so with hedging enabled but never winning, a run is
bit-identical to hedging disabled — the regression test in
``tests/resilience/test_hedge.py``), and each shadow attempt ``n``
derives a fresh stream from ``(master seed, session key, n)`` via the
keyed SHA-256 derivation of
:func:`~repro.runtime.server.derive_session_seed`.

The launch threshold adapts: a :class:`LatencyTracker` keeps a bounded
window of completed-session latencies and hedges at their ``percentile``
once ``min_samples`` are in; before that it falls back to the fixed
``delay_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..config import NON_NEGATIVE, POSITIVE_INT, Config, Range, knob
from ..telemetry import get_registry


class HedgeError(Exception):
    """Raised on malformed hedge configurations."""


@dataclass(frozen=True)
class HedgeConfig(Config):
    """When (and how often) to launch shadow attempts."""

    error = HedgeError

    #: Fallback launch delay while the tracker is still warming up.
    delay_s: float = knob(
        0.1,
        range=NON_NEGATIVE,
        flag="--hedge-delay",
        metavar="SECONDS",
        help="fallback shadow-solve launch delay (enables hedging)",
    )
    #: Latency percentile (0–100) that sets the adaptive launch delay.
    percentile: float = knob(
        95.0,
        range=Range(0.0, 100.0, strict=True),
        flag="--hedge-percentile",
        metavar="P",
        help="latency percentile setting the adaptive hedge delay "
        "(enables hedging)",
    )
    #: Completed sessions required before the percentile is trusted.
    min_samples: int = knob(20, range=POSITIVE_INT)
    #: Shadow attempts per session (1 = classic hedged request).
    max_hedges: int = knob(1, range=POSITIVE_INT)
    #: Hedge only sessions that carry a deadline (the latency-sensitive
    #: ones); ``False`` hedges everything.
    deadline_only: bool = True


class LatencyTracker:
    """Bounded window of observed latencies with nearest-rank quantile."""

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise HedgeError("window must be at least 1")
        self.window = window
        self._samples: List[float] = []
        self._next = 0

    def observe(self, latency_s: float) -> None:
        if len(self._samples) < self.window:
            self._samples.append(latency_s)
        else:  # ring overwrite, O(1), no deque import needed
            self._samples[self._next] = latency_s
            self._next = (self._next + 1) % self.window

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> Optional[float]:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]


class HedgePolicy:
    """Decides launch delays and accounts hedge outcomes.

    The runtime owns the racing (it holds the sessions and the event
    loop); this object owns *policy*: whether a session qualifies, how
    long to wait before shadowing, and the launched/won counters.
    """

    def __init__(
        self,
        config: Optional[HedgeConfig] = None,
        tracker: Optional[LatencyTracker] = None,
    ) -> None:
        self.config = config or HedgeConfig()
        self.tracker = tracker or LatencyTracker()
        self.launched = 0
        self.won = 0

    def applies(self, deadline_s: Optional[float]) -> bool:
        if self.config.deadline_only and deadline_s is None:
            return False
        return True

    def launch_delay(self) -> float:
        """Seconds the primary may run before a shadow launches."""
        if len(self.tracker) >= self.config.min_samples:
            threshold = self.tracker.quantile(self.config.percentile)
            if threshold is not None:
                return max(threshold, self.config.delay_s)
        return self.config.delay_s

    def observe_latency(self, latency_s: float) -> None:
        self.tracker.observe(latency_s)

    # -- accounting ----------------------------------------------------

    def record_launched(self) -> None:
        self.launched += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "hedge_launched_total",
                "Shadow attempts launched for slow sessions.",
            ).inc()

    def record_won(self) -> None:
        self.won += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "hedge_won_total",
                "Sessions whose shadow attempt finished first.",
            ).inc()


def hedge_attempt_key(session_key: str, attempt: int) -> str:
    """The keyed-derivation suffix for shadow attempt ``attempt``.

    Distinct from every session key a fleet can generate (sessions never
    contain ``|hedge|``), so a shadow stream can never collide with a
    primary one.
    """
    return f"{session_key}|hedge|{attempt}"
