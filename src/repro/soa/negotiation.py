"""Negotiation primitives: nmsccp agents meeting on the broker's store.

Implements the paper's Sec. 4 picture: "Two nmsccp agents P (provider)
and C (client) can be concurrently executed on the broker and the tell
operator can be used to add their requirements to the store."  A
bilateral negotiation tells both policies under their checked arrows and
then has each party re-check the merged store; the outcome is the final
store (the draft SLA body) and its consistency (the agreed level), plus
an exhaustive-exploration certificate that the outcome is
scheduler-independent.

``fuzzy_agreement`` reproduces the graphical intersection of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..constraints.constraint import ConstantConstraint, SoftConstraint
from ..constraints.operations import combine
from ..constraints.store import ConstraintStore, empty_store
from ..semirings.base import Semiring
from ..sccp.check import CheckSpec
from ..sccp.interpreter import Status, explore, run
from ..sccp.syntax import SUCCESS, Agent, parallel, sequence, tell
from ..sccp.traces import Trace


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
    """Result of a bilateral (or multi-party) negotiation."""

    success: bool
    store: ConstraintStore
    agreed_level: Any
    parties: Tuple[str, ...]
    trace: Optional[Trace] = None
    scheduler_independent: Optional[bool] = None
    detail: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "agreement" if self.success else "no agreement"
        return (
            f"NegotiationOutcome({verdict} among {self.parties!r}, "
            f"level={self.agreed_level!r})"
        )


def negotiate(
    parties: List[Party],
    semiring: Semiring,
    initial_store: Optional[ConstraintStore] = None,
    verify_scheduler_independence: bool = True,
    max_steps: int = 10_000,
) -> NegotiationOutcome:
    """Run all parties' agents in parallel on one store.

    Success requires every agent to terminate (the parallel composition
    reduces to ``success``); the agreed level is the final ``σ ⇓∅``.
    With ``verify_scheduler_independence`` the full configuration graph
    is explored and the certificate reports whether *every* interleaving
    reaches the same verdict.
    """
    if not parties:
        raise ValueError("negotiate() needs at least one party")
    store = initial_store or empty_store(semiring)
    agents = parallel(*(party.agent() for party in parties))
    result = run(agents, store=store, max_steps=max_steps)

    certificate: Optional[bool] = None
    if verify_scheduler_independence:
        exploration = explore(agents, store=store)
        if result.status is Status.SUCCESS:
            certificate = exploration.always_succeeds
        else:
            certificate = exploration.never_succeeds

    return NegotiationOutcome(
        success=result.status is Status.SUCCESS,
        store=result.store,
        agreed_level=result.store.consistency(),
        parties=tuple(party.name for party in parties),
        trace=result.trace,
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
