"""The store-backed acceptance path, kept as a test oracle.

The broker once decided a candidate's acceptance by telling every
constraint of the candidate SCSP into a constraint store and calling
``CheckSpec.holds(store)`` — a second, independent solve of the problem
it had just solved.  It now reads the candidate solve's blevel.  This
module keeps the old path so tests can pin the two decisions equal
wherever both folds are exact, and show where they are not.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.constraints import SoftConstraint, Variable
from repro.constraints.store import empty_store
from repro.soa.broker import CandidateEvaluation
from repro.solver import SCSP


def candidate_constraints(broker, description, request, semiring) -> List[SoftConstraint]:
    """requirements ⊗ offer, compiled the way ``Broker._evaluate`` does."""
    pool: Dict[str, Variable] = {
        var.name: var
        for constraint in request.requirements
        for var in constraint.scope
    }
    offer = broker._compile_offer(
        description, request.attribute, semiring, pool
    )
    if not offer:
        return []
    return list(request.requirements) + offer


def store_of(constraints, semiring, backend=None):
    """Every constraint told, factor by factor, into one store."""
    store = empty_store(semiring, backend=backend)
    for constraint in constraints:
        store = store.tell(constraint)
    return store


def store_consistency(broker, description, request, semiring) -> Any:
    """σ⇓∅ of the candidate store, solved by the store itself."""
    constraints = candidate_constraints(broker, description, request, semiring)
    return store_of(constraints, semiring, broker.store_backend).consistency()


def evaluate_via_store(broker, description, request, semiring) -> CandidateEvaluation:
    """The old ``Broker._evaluate``: solve, then re-solve the store."""
    constraints = candidate_constraints(broker, description, request, semiring)
    if not constraints:
        return CandidateEvaluation(description, semiring.zero, False, None)
    result = broker._solve(SCSP(constraints, name=description.service_id))
    if request.acceptance is not None:
        store = store_of(constraints, semiring, broker.store_backend)
        accepted = request.acceptance.holds(store)
    else:
        accepted = result.is_consistent
    return CandidateEvaluation(
        description, result.blevel, accepted, result.best_assignment
    )
