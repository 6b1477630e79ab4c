"""Execution traces: what happened, rule by rule.

A trace records every applied transition together with the consistency of
the store after it — the quantity the paper's broker monitors during a
negotiation (e.g. the number of hours in Examples 1–3).  Each event keeps
its step's (immutable) configuration and derives that level on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, List, Tuple

from .transitions import Configuration, Step


@dataclass(frozen=True, eq=False, repr=False)
class TraceEvent:
    """One applied transition.

    The store level ``consistency`` and the rendering ``agent_after`` of
    the step's configuration are computed on first read: a run that
    only needs its verdict (the broker's confirmation run) solves no
    store its checks did not already ask about.
    """

    index: int
    rule: str
    action: str
    configuration: Configuration

    @cached_property
    def consistency(self) -> Any:
        """σ⇓∅ of the store after the step."""
        return self.configuration.store.consistency()

    @cached_property
    def agent_after(self) -> str:
        """The agent left to run after the step."""
        return self.configuration.agent.describe()

    def _fields(self) -> Tuple[Any, ...]:
        return (
            self.index,
            self.rule,
            self.action,
            self.consistency,
            self.agent_after,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceEvent(index={self.index!r}, rule={self.rule!r}, "
            f"action={self.action!r}, consistency={self.consistency!r}, "
            f"agent_after={self.agent_after!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.index:>3}] {self.rule:<12} {self.action:<24} "
            f"σ⇓∅ = {self.consistency!r}"
        )


class Trace:
    """An append-only sequence of :class:`TraceEvent`."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, step: Step) -> None:
        self._events.append(
            TraceEvent(
                len(self._events), step.rule, step.action, step.configuration
            )
        )

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def consistencies(self) -> List[Any]:
        """The σ⇓∅ profile along the run — negotiation progress."""
        return [event.consistency for event in self._events]

    def rules_applied(self) -> List[str]:
        return [event.rule for event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def render(self) -> str:
        """Multi-line pretty form for logs and examples."""
        if not self._events:
            return "(empty trace)"
        return "\n".join(str(event) for event in self._events)
