"""Schedulers: which enabled transition fires next.

The paper's semantics is nondeterministic (interleaving ‖, global choice
+).  A scheduler resolves that nondeterminism for a concrete run; the
exhaustive explorer in :mod:`repro.sccp.interpreter` instead follows every
branch, which is how we check that negotiation outcomes are
scheduler-independent.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Sequence

from .transitions import Step


class Scheduler(ABC):
    """Strategy object choosing one step among the enabled ones."""

    @abstractmethod
    def choose(self, steps: Sequence[Step]) -> Step:
        """Pick one of ``steps`` (guaranteed non-empty)."""

    def pick(self, steps: Iterator[Step]) -> Optional[Step]:
        """Pick one of the lazily built ``steps``, or ``None`` when there
        are none.  Builds them all, then asks :meth:`choose`."""
        enabled = list(steps)
        return self.choose(enabled) if enabled else None


class DeterministicScheduler(Scheduler):
    """Always the first enabled step (leftmost agent, first branch).

    Deterministic and reproducible; the default for examples whose paper
    narrative fixes an order.
    """

    def choose(self, steps: Sequence[Step]) -> Step:
        return steps[0]

    def pick(self, steps: Iterator[Step]) -> Optional[Step]:
        """The first step, without building the ones after it: a step
        right of the first enabled one is never evaluated (its check
        solves no store, and a hiding rule draws no fresh name)."""
        return next(steps, None)


class RandomScheduler(Scheduler):
    """Uniformly random among enabled steps, from a seeded RNG."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def choose(self, steps: Sequence[Step]) -> Step:
        return self._rng.choice(list(steps))


class RoundRobinScheduler(Scheduler):
    """Rotates which enabled step is taken — a fair interleaving that
    prevents one agent from starving the others."""

    def __init__(self) -> None:
        self._turn = 0

    def choose(self, steps: Sequence[Step]) -> Step:
        step = steps[self._turn % len(steps)]
        self._turn += 1
        return step


class ScriptedScheduler(Scheduler):
    """Follows a fixed list of indices (for tests that pin a schedule).

    Falls back to index 0 when the script is exhausted or out of range.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self._script: List[int] = list(script)
        self._position = 0

    def choose(self, steps: Sequence[Step]) -> Step:
        index = 0
        if self._position < len(self._script):
            index = self._script[self._position]
            self._position += 1
        if not 0 <= index < len(steps):
            index = 0
        return steps[index]
