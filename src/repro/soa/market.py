"""The market plan: every published offer of one operation, compiled once
per registry version (paper Sec. 3–4).

Providers publish QoS documents to the registry once; each client
request is a delta against them.  A :class:`MarketPlan` holds, for one
(operation, attribute, semiring), every publication's compiled offer,
grouped by constraint topology.  Where the semiring is totally
ordered and lowers, each group is also stacked on the member axis
(:class:`~repro.solver.stacked.OfferGroup`, each position lowered once,
when a solve first reads it), so a session's step 3 solves each group
in one call: a stacked scan when the group's joint table with the
session's requirements is small, one group search (one bucket pass for
every member, then branch & bound per member) when it is not.
Discovery filters (quarantine, gates, SLO filters) act per session, as
a mask over the plan's members.

The plan is tagged with the registry's :attr:`version`; publish,
unpublish and lease expiry bump it, and the broker compiles a new plan
the next time it asks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constraints.constraint import SoftConstraint
from ..constraints.variables import Variable, merge_scopes
from ..semirings.base import Semiring
from ..solver import stacked
from ..solver.kernels import lower_semiring
from .qos import QoSError, compile_document
from .registry import RegistryError, ServiceRegistry
from .service import ServiceDescription


@dataclass(eq=False)
class PlanOffer:
    """One publication's compiled offer and its place in the plan."""

    description: ServiceDescription
    constraints: Tuple[SoftConstraint, ...]
    #: A malformed document's compile error, raised by every session
    #: the registry admits this offer to.
    error: Optional[QoSError]
    group: Optional["PlanGroup"] = None
    member: int = 0


@dataclass(eq=False)
class PlanGroup:
    """Offers with one constraint topology (equal scopes, position by
    position), in service-id order.  ``stack`` is their stacked form, or
    ``None`` when the semiring is partially ordered or does not lower."""

    offers: List[PlanOffer] = field(default_factory=list)
    variables: Tuple[Variable, ...] = ()
    stack: Optional[stacked.OfferGroup] = None


class MarketPlan:
    """Every publication of ``operation`` compiled for ``attribute``
    under ``semiring``, as of registry ``version``."""

    def __init__(
        self,
        registry: ServiceRegistry,
        operation: str,
        attribute: str,
        semiring: Semiring,
    ) -> None:
        descriptions = registry.find(
            operation=operation, include_unavailable=True
        )
        # Read after ``find``: a lease it expired has bumped the version.
        self.version = registry.version
        self.semiring = semiring
        self.lowering = (
            lower_semiring(semiring) if semiring.is_total_order() else None
        )
        self.offers: Dict[str, PlanOffer] = {}
        self.groups: List[PlanGroup] = []
        by_topology: Dict[tuple, PlanGroup] = {}
        for description in descriptions:
            try:
                constraints = tuple(
                    compile_document(description.qos, attribute, semiring, {})
                )
                error = None
            except QoSError as exc:
                constraints, error = (), exc
            offer = PlanOffer(description, constraints, error)
            self.offers[description.service_id] = offer
            if not constraints:
                continue
            topology = tuple([constraint.scope for constraint in constraints])
            group = by_topology.get(topology)
            if group is None:
                group = by_topology[topology] = PlanGroup()
                self.groups.append(group)
            offer.group, offer.member = group, len(group.offers)
            group.offers.append(offer)
        for group in self.groups:
            head = group.offers[0].constraints
            group.variables = merge_scopes(*[c.scope for c in head])
            if self.lowering is not None:
                group.stack = stacked.OfferGroup(
                    [offer.constraints for offer in group.offers],
                    self.lowering,
                )

    def offer(self, description: ServiceDescription) -> Tuple[SoftConstraint, ...]:
        """``description``'s compiled offer (empty when it states
        nothing for the attribute, or is not in the plan)."""
        offer = self.offers.get(description.service_id)
        if offer is None or offer.description is not description:
            return ()
        if offer.error is not None:
            raise offer.error.with_traceback(None)
        return offer.constraints

    def select(
        self,
        candidates: Sequence[ServiceDescription],
        requirements: Iterable[SoftConstraint],
    ) -> List[Tuple[PlanGroup, List[Tuple[int, PlanOffer]]]]:
        """The admitted ``candidates`` by plan group, in plan order:
        each group with its ``(candidate index, offer)`` picks, ascending
        by member (the group's mask).  Candidates that offer nothing for
        the attribute are left out.

        Raises the :class:`~repro.soa.qos.QoSError` compiling would: an
        admitted offer's own, or a requirement variable declared with a
        different domain than a picked group's offers declare.
        """
        picks: Dict[PlanGroup, List[Tuple[int, PlanOffer]]] = {}
        for index, description in enumerate(candidates):
            offer = self.offers.get(description.service_id)
            if offer is None or offer.description is not description:
                raise RegistryError(
                    f"service {description.service_id!r} not published"
                )
            if offer.error is not None:
                raise offer.error.with_traceback(None)
            if offer.group is not None:
                picks.setdefault(offer.group, []).append((index, offer))
        pool = {var.name: var for c in requirements for var in c.scope}
        selected = []
        for group in self.groups:
            chosen = picks.get(group)
            if chosen is None:
                continue
            for var in group.variables:
                existing = pool.get(var.name)
                if existing is not None and existing.domain != var.domain:
                    raise QoSError(
                        f"variable {var.name!r} declared with two domains"
                    )
            chosen.sort(key=lambda pick: pick[1].member)
            selected.append((group, chosen))
        return selected
