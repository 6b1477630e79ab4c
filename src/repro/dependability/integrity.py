"""Integrity as refinement (paper Sec. 5, Defs. 1–2, after Bistarelli &
Foley, SAFECOMP 2003).

An implementation ``S`` (the combination of the per-module policies)
upholds a high-level requirement ``R`` when every behaviour ``S`` allows
is allowed by ``R`` *at the interface*:

* Def. 1 (local refinement):  ``S ⇓V ⊑ R ⇓V``;
* Def. 2 (dependably safe):   same check at the interface ``E``, with
  ``S`` additionally modelling the (un)reliability of the infrastructure
  — e.g. a module that may misbehave is replaced by the ``true``
  constraint, after which the refinement may no longer hold (the paper's
  ``Imp2 ⋢ Memory``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..constraints.constraint import (
    ConstantConstraint,
    SoftConstraint,
)
from ..constraints.operations import combine
from ..constraints.store import ConstraintStore
from ..constraints.variables import Variable, iter_assignments, merge_scopes
from ..semirings.base import Semiring

#: A refinement check accepts either a bare constraint or a whole store —
#: a broker session *is* an implementation, and routing the projection
#: through :meth:`ConstraintStore.project` uses the store's solver-backed
#: (and cached) elimination instead of materializing the full
#: combination first.
Implementation = Union[SoftConstraint, ConstraintStore]


def _interface_view(
    subject: Implementation, names: Sequence[str]
) -> SoftConstraint:
    """``subject ⇓ names`` as an honest constraint, store- or
    constraint-shaped input alike."""
    return subject.project(names)


@dataclass
class RefinementReport:
    """Outcome of a refinement check, with counterexamples when it fails.

    ``witnesses`` lists up to ``max_witnesses`` interface assignments
    where the implementation exceeds what the requirement allows
    (``S⇓V η >S R⇓V η`` is impossible — the violation is ``¬(≤S)``,
    which in partial orders includes incomparability).
    """

    holds: bool
    interface: tuple
    witnesses: List[Dict[str, Any]] = field(default_factory=list)
    checked_assignments: int = 0

    def __bool__(self) -> bool:
        return self.holds


def locally_refines(
    implementation: Implementation,
    requirement: Implementation,
    interface: Iterable[str | Variable],
    max_witnesses: int = 5,
) -> RefinementReport:
    """Def. 1: ``S ⇓V ⊑ R ⇓V`` through the interface ``V``.

    Either side may be a :class:`ConstraintStore` (the running broker
    session) instead of a bare constraint.  Returns a report rather than
    a bare bool so failed checks carry the interface assignments that
    break the requirement.
    """
    names = tuple(
        item.name if isinstance(item, Variable) else item for item in interface
    )
    semiring = implementation.semiring
    s_view = _interface_view(implementation, names)
    r_view = _interface_view(requirement, names)
    scope = merge_scopes(s_view.scope, r_view.scope)

    report = RefinementReport(holds=True, interface=names)
    for assignment in iter_assignments(scope):
        report.checked_assignments += 1
        if not semiring.leq(s_view.value(assignment), r_view.value(assignment)):
            report.holds = False
            if len(report.witnesses) < max_witnesses:
                report.witnesses.append(dict(assignment))
    return report


def dependably_safe(
    implementation: Implementation,
    requirement: Implementation,
    interface: Iterable[str | Variable],
    max_witnesses: int = 5,
) -> RefinementReport:
    """Def. 2: dependably-safe check at interface ``E``.

    Identical machinery to Def. 1 — the difference is in *what you pass*:
    ``implementation`` must already include the reliability model of the
    infrastructure (see :func:`assume_unreliable`).
    """
    return locally_refines(
        implementation, requirement, interface, max_witnesses
    )


def assume_unreliable(
    module_policy: SoftConstraint,
) -> SoftConstraint:
    """Replace a module's policy by ``true`` / ``1̄`` — "REDF could take on
    any behavior" (paper Sec. 5).

    The result has empty support: the module no longer constrains
    anything, exactly like the paper's
    ``RedFilter ≡ (redbyte ≤ bwbyte ∨ redbyte > bwbyte) = true``.
    """
    semiring = module_policy.semiring
    return ConstantConstraint(semiring, semiring.one)


def integrate(
    policies: Sequence[SoftConstraint],
    semiring: Optional[Semiring] = None,
) -> SoftConstraint:
    """``Imp ≡ policy₁ ⊗ … ⊗ policyₙ`` — the federated implementation."""
    if not policies and semiring is None:
        raise ValueError("integrate() of nothing needs a semiring")
    return combine(
        policies, semiring=semiring or policies[0].semiring
    )


def interface_of(
    implementation: SoftConstraint, internal: Iterable[str | Variable]
) -> SoftConstraint:
    """The service's external interface: project the internal variables
    *out* (paper Sec. 5: "projecting over some variables leads to the
    interface of the service, that is what is visible to the other
    software components")."""
    internal_names = {
        item.name if isinstance(item, Variable) else item for item in internal
    }
    keep = [
        var.name
        for var in implementation.scope
        if var.name not in internal_names
    ]
    return implementation.project(keep)
