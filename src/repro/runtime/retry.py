"""Retry policy: exponential backoff with seeded, *threaded* jitter.

A failed negotiation attempt (an injected provider fault, a transient
broker error) is re-driven up to ``max_attempts`` times, waiting
``base_backoff_s · multiplier^(attempt−1)`` between attempts, capped at
``max_backoff_s`` and spread by ± ``jitter`` (a fraction of the raw
delay) so retrying sessions don't stampede in lockstep.

The jitter draw comes from the :class:`random.Random` the *caller*
passes in — never from module-level randomness — so a runtime that
derives one RNG per session from its master seed reproduces every
backoff of a concurrent run bit-for-bit, regardless of how the event
loop interleaved the sessions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..config import FRACTION, NON_NEGATIVE, POSITIVE_INT, Config, Range, knob


class RetryError(Exception):
    """Raised on malformed retry policies."""


@dataclass(frozen=True)
class RetryPolicy(Config):
    """How (and how often) a failed session attempt is re-driven.

    ``max_attempts`` counts every attempt including the first, so
    ``max_attempts=1`` disables retries and ``max_attempts=4`` allows
    three retries.
    """

    error = RetryError

    max_attempts: int = knob(
        3,
        range=POSITIVE_INT,
        flag="--max-attempts",
        help="attempts per session before degradation",
    )
    base_backoff_s: float = knob(
        0.05,
        range=NON_NEGATIVE,
        flag="--base-backoff",
        metavar="SECONDS",
        help="first retry backoff (doubles per attempt, jittered)",
    )
    max_backoff_s: float = knob(2.0, range=NON_NEGATIVE)
    multiplier: float = knob(2.0, range=Range(1.0))
    jitter: float = knob(0.5, range=FRACTION)

    @property
    def max_retries(self) -> int:
        return self.max_attempts - 1

    def raw_backoff(self, attempt: int) -> float:
        """The un-jittered delay after failed attempt number ``attempt``
        (1-based), i.e. before attempt ``attempt + 1`` starts."""
        if attempt < 1:
            raise RetryError("attempt numbers are 1-based")
        return min(
            self.max_backoff_s,
            self.base_backoff_s * self.multiplier ** (attempt - 1),
        )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The jittered delay after failed attempt ``attempt``.

        Uniform in ``raw ± jitter·raw`` — the seeded ``rng`` is required
        so the caller controls reproducibility.
        """
        raw = self.raw_backoff(attempt)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        spread = raw * self.jitter
        return max(0.0, raw + rng.uniform(-spread, spread))

    def schedule(self, rng: random.Random) -> List[float]:
        """Every backoff delay a fully retried session would sleep."""
        return [
            self.backoff(attempt, rng)
            for attempt in range(1, self.max_attempts)
        ]


#: Retries disabled: one attempt, no waiting.
NO_RETRY = RetryPolicy(max_attempts=1)
