"""Negotiation primitives: nmsccp agents meeting on the broker's store.

Implements the paper's Sec. 4 picture: "Two nmsccp agents P (provider)
and C (client) can be concurrently executed on the broker and the tell
operator can be used to add their requirements to the store."  A
bilateral negotiation tells both policies under their checked arrows;
the outcome is the final store (the draft SLA body) and its consistency
(the agreed level), plus a certificate that the outcome is
scheduler-independent (Fig. 4, R1/R3/R4).

Parties that only tell — every :class:`Party` with at least one policy
constraint — are certified on the told-prefix grid (:class:`TellGrid`):
a configuration is the vector of how many constraints each party has
told, so the certificate is a reachability question on that grid.  Any
other agent (retract, update, ask/nask, ``+``, procedures, an empty
party) is run under the deterministic scheduler and certified by
exhaustive exploration of its configuration graph.

``fuzzy_agreement`` reproduces the graphical intersection of Fig. 5.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..constraints.constraint import ConstantConstraint, SoftConstraint
from ..constraints.operations import combine
from ..constraints.store import ConstraintStore, empty_store
from ..semirings.base import Semiring
from ..sccp.check import CheckSpec
from ..sccp.interpreter import (
    MAX_CONFIGURATIONS,
    Status,
    count_exploration,
    count_run,
    explore,
    run,
)
from ..sccp.syntax import (
    SUCCESS,
    Agent,
    Parallel,
    Success,
    Tell,
    parallel,
    sequence,
    tell,
)
from ..sccp.traces import Trace
from ..sccp.transitions import count_check_failure
from ..telemetry import get_registry, get_tracer, telemetry_suspended

Cell = Tuple[int, ...]


@dataclass
class Party:
    """One negotiating side: a name, its policy constraints and the
    acceptance interval it insists on (its checked arrow)."""

    name: str
    constraints: List[SoftConstraint]
    acceptance: Optional[CheckSpec] = None

    def agent(self, closing: Agent = SUCCESS) -> Agent:
        """tell every policy (checked on the resulting store), then close.

        The acceptance interval guards the *last* tell, mirroring the
        paper's agents whose final transition carries the interval.
        """
        if not self.constraints:
            return closing
        actions = [tell(c) for c in self.constraints[:-1]]
        actions.append(tell(self.constraints[-1], self.acceptance))
        return sequence(*actions, closing)


@dataclass
class NegotiationOutcome:
    """Result of a bilateral (or multi-party) negotiation.

    ``trace`` is the deterministic run's trace, built by ``_replay`` on
    first read: the told-prefix grid decides an outcome without running
    ``run``, and replays ``run`` only when the trace is asked for.
    """

    success: bool
    store: ConstraintStore
    agreed_level: Any
    parties: Tuple[str, ...]
    scheduler_independent: Optional[bool] = None
    detail: str = ""
    _replay: Optional[Callable[[], Trace]] = field(
        default=None, repr=False, compare=False, kw_only=True
    )

    @cached_property
    def trace(self) -> Optional[Trace]:
        return None if self._replay is None else self._replay()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "agreement" if self.success else "no agreement"
        return (
            f"NegotiationOutcome({verdict} among {self.parties!r}, "
            f"level={self.agreed_level!r})"
        )


def tell_chains(agent: Agent) -> Optional[Tuple[Tuple[Tell, ...], ...]]:
    """The parties of ``parallel(sequence(tell…), …)``, each as its
    tells in order, or ``None`` when ``agent`` has any other shape.

    Every party needs at least one tell: a ``success`` inside a parallel
    composition never steps (two trailing empty parties deadlock).
    """
    chains = []
    while isinstance(agent, Parallel):
        chain = _tell_chain(agent.left)
        if chain is None:
            return None
        chains.append(chain)
        agent = agent.right
    chain = _tell_chain(agent)
    if chain is None:
        return None
    chains.append(chain)
    return tuple(chains)


def _tell_chain(agent: Agent) -> Optional[Tuple[Tell, ...]]:
    tells = []
    while isinstance(agent, Tell):
        tells.append(agent)
        agent = agent.continuation
    if not tells or not isinstance(agent, Success):
        return None
    return tuple(tells)


class TellGrid:
    """The configuration graph of parallel tell chains, as a grid.

    A cell is the vector of told-prefix lengths, one per party; its
    store is the initial store told every constraint of those prefixes.
    Moving party ``i`` tells its next constraint, and the move is
    enabled iff that tell's check holds on the store it produces (R1;
    an unchecked tell is always enabled).  Stores are built lazily, each
    by one ``tell`` from a neighbouring cell, and both the stores and
    the move verdicts are memoized per cell.  Every check is
    ``CheckSpec.holds`` on the real store; ``checks`` counts them.

    ``sccp_check_failures_total`` counts only blocked tells of reachable
    cells: those the walk tries, and those of a deadlock the
    certificate finds.  Candidate cells no interleaving reaches are not
    counted.
    """

    def __init__(
        self, chains: Sequence[Sequence[Tell]], store: ConstraintStore
    ) -> None:
        self.chains = chains
        self.goal: Cell = tuple(len(chain) for chain in chains)
        self.origin: Cell = (0,) * len(chains)
        self.checks = 0
        self._stores: Dict[Cell, ConstraintStore] = {self.origin: store}
        self._enabled: Dict[Tuple[Cell, int], bool] = {}

    def store(self, cell: Cell) -> ConstraintStore:
        """The store at ``cell``, told from the nearest built cell."""
        pending = []
        while cell not in self._stores:
            told = [party for party, count in enumerate(cell) if count]
            party = next(
                (p for p in told if _back(cell, p) in self._stores),
                told[-1],
            )
            pending.append((cell, party))
            cell = _back(cell, party)
        store = self._stores[cell]
        for cell, party in reversed(pending):
            store = store.tell(self.chains[party][cell[party] - 1].constraint)
            self._stores[cell] = store
        return store

    def enabled(self, cell: Cell, party: int) -> bool:
        """Whether ``party`` (not yet finished at ``cell``) may tell."""
        key = (cell, party)
        verdict = self._enabled.get(key)
        if verdict is None:
            action = self.chains[party][cell[party]]
            target = _advance(cell, party)
            store = self._stores.get(target)
            if store is None:
                store = self._stores[target] = self.store(cell).tell(
                    action.constraint
                )
            verdict = True
            if action.check is not None:
                self.checks += 1
                verdict = action.check.holds(store)
            self._enabled[key] = verdict
        return verdict

    def walk(self) -> Tuple[Cell, List[Tuple[Cell, int]]]:
        """The deterministic run: from the origin, always the leftmost
        enabled move — ``DeterministicScheduler``'s choice, since
        ``successors`` lists party 0's steps first.  Returns the cell
        the run stops at and its moves, each as the source cell and the
        moving party."""
        cell, moves = self.origin, []
        while cell != self.goal:
            for party, count in enumerate(cell):
                if count < self.goal[party]:
                    if self.enabled(cell, party):
                        moves.append((cell, party))
                        cell = _advance(cell, party)
                        break
                    count_check_failure("R1-Tell")
            else:
                break
        return cell, moves

    def label(self, cell: Cell, party: int) -> Tuple[str, str]:
        """The rule and action ``run`` labels this move with.  The
        unfinished parties form a right-nested ``‖``: the outermost node
        names the rule, and each level adds an ``L:``/``R:`` prefix."""
        busy = [p for p, count in enumerate(cell) if count < self.goal[p]]
        last = len(busy) - 1
        if last == 0:
            return "R1-Tell", "tell"
        depth = busy.index(party)
        finishes = cell[party] + 1 == self.goal[party]
        rule = (
            "R4-Parall2"
            if finishes and (depth == 0 or last == 1)
            else "R3-Parall1"
        )
        if depth < last:
            return rule, "R:" * depth + "L:tell"
        return rule, "R:" * last + "tell"

    def certificate(self, succeeded: bool) -> bool:
        """Whether every interleaving reaches the walk's verdict.

        After a successful walk that means no reachable deadlock.  A
        deadlock is a cell where every unfinished party's next tell is
        checked and fails, so only such candidate cells are examined,
        and only a stuck candidate pays for a reachability search.
        After a failed walk it means the goal is unreachable.
        """
        if not succeeded:
            return not self._reachable(self.goal)
        candidates = [
            [
                count
                for count in range(len(chain) + 1)
                if count == len(chain) or chain[count].check is not None
            ]
            for chain in self.chains
        ]
        for cell in itertools.product(*candidates):
            if cell == self.goal:
                continue
            busy = [p for p, count in enumerate(cell) if count < self.goal[p]]
            if any(self.enabled(cell, party) for party in busy):
                continue
            if self._reachable(cell):
                for _ in busy:
                    count_check_failure("R1-Tell")
                return False
        return True

    def _reachable(self, target: Cell) -> bool:
        """Breadth-first search from the origin within the cells
        componentwise below ``target``."""
        seen = {self.origin}
        queue = deque(seen)
        while queue:
            cell = queue.popleft()
            if cell == target:
                return True
            for party, count in enumerate(cell):
                if count < target[party] and self.enabled(cell, party):
                    successor = _advance(cell, party)
                    if successor not in seen:
                        seen.add(successor)
                        queue.append(successor)
        return False


def _advance(cell: Cell, party: int) -> Cell:
    return cell[:party] + (cell[party] + 1,) + cell[party + 1 :]


def _back(cell: Cell, party: int) -> Cell:
    return cell[:party] + (cell[party] - 1,) + cell[party + 1 :]


def negotiate(
    parties: List[Party],
    semiring: Semiring,
    initial_store: Optional[ConstraintStore] = None,
    verify_scheduler_independence: bool = True,
    max_steps: int = 10_000,
) -> NegotiationOutcome:
    """Run all parties' agents in parallel on one store.

    Success requires every agent to terminate (the parallel composition
    reduces to ``success``); the agreed level is the final ``σ ⇓∅`` of
    the deterministic (leftmost) run.  With
    ``verify_scheduler_independence`` the certificate reports whether
    *every* interleaving reaches the same verdict.  Parties that only
    tell — at most ``max_steps`` constraints in all, on a grid of at
    most ``explore``'s configuration budget — are decided on the
    told-prefix grid (:class:`TellGrid`); any other agent is run step by
    step and its whole configuration graph explored.
    """
    if not parties:
        raise ValueError("negotiate() needs at least one party")
    store = initial_store or empty_store(semiring)
    agents = parallel(*(party.agent() for party in parties))
    names = tuple(party.name for party in parties)
    chains = tell_chains(agents)
    if (
        chains is None
        or sum(map(len, chains)) > max_steps
        or math.prod(len(chain) + 1 for chain in chains) > MAX_CONFIGURATIONS
    ):
        return _explored(
            agents, store, names, verify_scheduler_independence, max_steps
        )

    certificate: Optional[bool] = None
    with get_tracer().span(
        "sccp.certify", method="grid", parties=names
    ) as span:
        grid = TellGrid(chains, store)
        cell, moves = grid.walk()
        success = cell == grid.goal
        status = Status.SUCCESS if success else Status.DEADLOCK
        if get_registry().enabled:  # labels cost a pass over the moves
            count_run([grid.label(*move)[0] for move in moves], status)
        if verify_scheduler_independence:
            certificate = grid.certificate(success)
            count_exploration(
                "always-succeeds" if success and certificate else "mixed"
            )
        span.set_attribute("checks", grid.checks)
    final = grid.store(cell)
    return NegotiationOutcome(
        success=success,
        store=final,
        agreed_level=final.consistency(),
        parties=names,
        _replay=lambda: _quiet_trace(agents, store, max_steps),
        scheduler_independent=certificate,
        detail=f"run ended with {status.value}",
    )


def _quiet_trace(
    agents: Agent, store: ConstraintStore, max_steps: int
) -> Trace:
    """``run``'s trace, replayed without telemetry: the grid has
    already counted the run it stands for."""
    with telemetry_suspended():
        return run(agents, store=store, max_steps=max_steps).trace


def _explored(
    agents: Agent,
    store: ConstraintStore,
    names: Tuple[str, ...],
    verify: bool,
    max_steps: int,
) -> NegotiationOutcome:
    """A scheduled run, certified by exhaustive exploration, under a
    ``sccp.certify`` span naming the parties, as the grid's is."""
    certificate: Optional[bool] = None
    with get_tracer().span("sccp.certify", method="explore", parties=names):
        result = run(agents, store=store, max_steps=max_steps)
        if verify:
            exploration = explore(agents, store=store)
            if result.status is Status.SUCCESS:
                certificate = exploration.always_succeeds
            else:
                certificate = exploration.never_succeeds
    return NegotiationOutcome(
        success=result.status is Status.SUCCESS,
        store=result.store,
        agreed_level=result.store.consistency(),
        parties=names,
        _replay=lambda: result.trace,
        scheduler_independent=certificate,
        detail=f"run ended with {result.status.value}",
    )


def fuzzy_agreement(
    provider_constraint: SoftConstraint,
    client_constraint: SoftConstraint,
) -> Tuple[SoftConstraint, Any]:
    """The Fig. 5 construction: combine both fuzzy policies and find the
    best shared level.

    Returns ``(combined, blevel)`` — the thick ``min`` line of the figure
    and the ``max`` of that line (0.5 at the intersection in the paper's
    drawing).
    """
    combined = provider_constraint.combine(client_constraint)
    return combined, combined.consistency()


def iterative_concession(
    semiring: Semiring,
    offers: List[SoftConstraint],
    demand: SoftConstraint,
    acceptance: CheckSpec,
) -> Tuple[Optional[int], List[Any]]:
    """A simple concession protocol on top of the store algebra.

    The provider tries its offers in order (most favourable first); for
    each, the broker builds ``offer ⊗ demand`` and checks the client's
    acceptance interval.  Returns the index of the first accepted offer
    (or ``None``) and the consistency trail — the negotiation curve a
    dashboard would plot.
    """
    trail: List[Any] = []
    for index, offer in enumerate(offers):
        store = empty_store(semiring).tell(offer).tell(demand)
        trail.append(store.consistency())
        if acceptance.holds(store):
            return index, trail
    return None, trail


def merged_policy(
    semiring: Semiring, constraints: List[SoftConstraint]
) -> SoftConstraint:
    """The single constraint a finished negotiation signs off on."""
    if not constraints:
        return ConstantConstraint(semiring, semiring.one)
    return combine(constraints, semiring=semiring)
