"""The nmsccp transition system (paper Fig. 4, rules R1–R10).

``successors(config, procedures)`` returns every configuration reachable
in one step, labelled by the rule that produced it.  Schedulers and the
exhaustive explorer are built on top of this single function, so the
operational semantics lives in exactly one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..constraints.store import ConstraintStore
from .procedures import EMPTY_PROCEDURES, ProcedureTable
from .syntax import (
    Agent,
    Ask,
    Call,
    Exists,
    Nask,
    Parallel,
    Retract,
    Success,
    Sum,
    Tell,
    Update,
)

#: Generator of globally fresh variable names for the hiding rule (R9).
_fresh_counter = itertools.count(1)

#: Every rule label the transition system can emit (Fig. 4, R1–R10) —
#: the telemetry layer preseeds its per-rule counters with these so a
#: metrics snapshot always shows the complete family.
RULES: Tuple[str, ...] = (
    "R1-Tell",
    "R2-Ask",
    "R3-Parall1",
    "R4-Parall2",
    "R5-Nondet",
    "R6-Nask",
    "R7-Retract",
    "R8-Update",
    "R9-Hide",
    "R10-PCall",
)


def count_check_failure(rule: str) -> None:
    """Record a transition blocked by its check (C1–C4) — failure path
    only, so the enabled-transition fast path stays untouched."""
    from ..telemetry import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "sccp_check_failures_total",
            "Transitions blocked by their check interval.",
            labelnames=("rule",),
        ).labels(rule).inc()


def fresh_name(base: str) -> str:
    """A fresh variable name derived from ``base`` (never reused)."""
    return f"{base}'{next(_fresh_counter)}"


@dataclass(frozen=True)
class Configuration:
    """``⟨A, σ⟩`` — an agent paired with a store."""

    agent: Agent
    store: ConstraintStore

    @property
    def is_terminal(self) -> bool:
        return isinstance(self.agent, Success)

    def describe(self) -> str:
        return f"⟨{self.agent.describe()}, σ⟩"


@dataclass(frozen=True)
class Step:
    """One labelled transition ``⟨A, σ⟩ →(rule) ⟨A', σ'⟩``."""

    rule: str
    action: str
    configuration: Configuration


def successors(
    config: Configuration,
    procedures: ProcedureTable = EMPTY_PROCEDURES,
) -> List[Step]:
    """All single-step successors of ``config`` (empty when stuck)."""
    return list(iter_successors(config, procedures))


def iter_successors(
    config: Configuration,
    procedures: ProcedureTable = EMPTY_PROCEDURES,
) -> Iterator[Step]:
    """``successors`` in the same order, built one step at a time: a
    step's check is evaluated only when the step is asked for."""
    return _step(config.agent, config.store, procedures)


def _step(
    agent: Agent, store: ConstraintStore, procedures: ProcedureTable
) -> Iterator[Step]:
    if isinstance(agent, Success):
        return

    if isinstance(agent, Tell):
        # R1: conditions checked on the *next-step* store σ ⊗ c.
        next_store = store.tell(agent.constraint)
        if agent.check is None or agent.check.holds(next_store):
            yield Step(
                "R1-Tell",
                "tell",
                Configuration(agent.continuation, next_store),
            )
        else:
            count_check_failure("R1-Tell")
        return

    if isinstance(agent, Ask):
        # R2: σ ⊢ c and check(σ).
        if store.entails(agent.constraint):
            if agent.check is None or agent.check.holds(store):
                yield Step(
                    "R2-Ask", "ask", Configuration(agent.continuation, store)
                )
            else:
                count_check_failure("R2-Ask")
        return

    if isinstance(agent, Nask):
        # R6: σ ⊬ c and check(σ).
        if not store.entails(agent.constraint):
            if agent.check is None or agent.check.holds(store):
                yield Step(
                    "R6-Nask",
                    "nask",
                    Configuration(agent.continuation, store),
                )
            else:
                count_check_failure("R6-Nask")
        return

    if isinstance(agent, Retract):
        # R7: σ ⊑ c, σ' = σ ÷ c, check(σ').
        if store.entails(agent.constraint):
            next_store = store.retract(agent.constraint)
            if agent.check is None or agent.check.holds(next_store):
                yield Step(
                    "R7-Retract",
                    "retract",
                    Configuration(agent.continuation, next_store),
                )
            else:
                count_check_failure("R7-Retract")
        return

    if isinstance(agent, Update):
        # R8: σ' = (σ ⇓_{V∖X}) ⊗ c, check(σ').
        next_store = store.update(agent.variables, agent.constraint)
        if agent.check is None or agent.check.holds(next_store):
            yield Step(
                "R8-Update",
                "update",
                Configuration(agent.continuation, next_store),
            )
        else:
            count_check_failure("R8-Update")
        return

    if isinstance(agent, Sum):
        # R5: any branch whose guard is enabled may be chosen.
        for index, branch in enumerate(agent.branches):
            for inner in _step(branch, store, procedures):
                yield Step(
                    "R5-Nondet",
                    f"choose#{index}:{inner.action}",
                    inner.configuration,
                )
        return

    if isinstance(agent, Parallel):
        # R3/R4: interleave; a side that terminates disappears.
        for inner in _step(agent.left, store, procedures):
            reduced = inner.configuration
            next_agent: Agent = (
                agent.right
                if isinstance(reduced.agent, Success)
                else Parallel(reduced.agent, agent.right)
            )
            rule = "R4-Parall2" if isinstance(reduced.agent, Success) else "R3-Parall1"
            yield Step(
                rule,
                f"L:{inner.action}",
                Configuration(next_agent, reduced.store),
            )
        for inner in _step(agent.right, store, procedures):
            reduced = inner.configuration
            next_agent = (
                agent.left
                if isinstance(reduced.agent, Success)
                else Parallel(agent.left, reduced.agent)
            )
            rule = "R4-Parall2" if isinstance(reduced.agent, Success) else "R3-Parall1"
            yield Step(
                rule,
                f"R:{inner.action}",
                Configuration(next_agent, reduced.store),
            )
        return

    if isinstance(agent, Exists):
        # R9: rename the bound variable to a fresh one and step the body.
        fresh = fresh_name(agent.variable)
        body = agent.body.substitute({agent.variable: fresh})
        for inner in _step(body, store, procedures):
            yield Step("R9-Hide", inner.action, inner.configuration)
        return

    if isinstance(agent, Call):
        # R10: expand the body; the expansion itself must then step.
        body = procedures.expand(agent)
        for inner in _step(body, store, procedures):
            yield Step(
                "R10-PCall", f"{agent.name}:{inner.action}", inner.configuration
            )
        return

    raise TypeError(f"unknown agent node {type(agent).__name__}")


# ----------------------------------------------------------------------
# Configuration fingerprints (for exhaustive exploration)
# ----------------------------------------------------------------------


def store_fingerprint(store: ConstraintStore) -> Tuple:
    """A hashable summary of σ: the sorted digests of the store's told
    factors, which never materializes the union scope.  It distinguishes
    differently-factored-but-equal stores — that only costs the explorer
    extra states, never wrong answers.
    """
    return store.fingerprint()


def config_key(config: Configuration) -> Tuple:
    """Hashable identity of a configuration for visited-set pruning.

    Agent identity is structural-by-construction (constraint objects by
    id), which may distinguish states a semantic check would merge; that
    only costs extra exploration, never wrong answers.
    """
    return (config.agent, store_fingerprint(config.store))
