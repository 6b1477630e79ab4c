"""The paper-literal constraint store, kept as a test oracle.

σ is one eagerly combined constraint (Sec. 2.1): ``tell`` combines,
``retract`` divides, ``update`` projects-then-combines, and every query
reads that single constraint directly.  Below a size bound the combined
constraint is tabulated, so each ``tell`` pays the full union-scope
materialization.

:class:`repro.constraints.ConstraintStore` keeps σ as a factor set and
answers queries through the solver instead; the equivalence and law
suites (and the store-scaling benchmark) pin it against this class.
The oracle touches none of the store's caches, so a stale memo there
cannot make both sides agree on a wrong answer.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.constraints import (
    ConstantConstraint,
    SoftConstraint,
    StoreError,
    TableConstraint,
    Variable,
    assignment_space_size,
    constraint_leq,
    to_table,
)
from repro.semirings.base import Semiring

#: Tabulate σ while its assignment space stays below this bound (the
#: store's own materialization bound); beyond it evaluation stays lazy.
MATERIALIZE_LIMIT = 200_000


def _compact(constraint: SoftConstraint) -> SoftConstraint:
    if isinstance(constraint, TableConstraint):
        return constraint
    if assignment_space_size(constraint.scope) <= MATERIALIZE_LIMIT:
        return to_table(constraint)
    return constraint


def _names(items: Iterable[str | Variable]) -> set:
    return {item.name if isinstance(item, Variable) else item for item in items}


class MonolithStore:
    """An immutable store whose σ is a single combined constraint."""

    def __init__(
        self, semiring: Semiring, constraint: SoftConstraint | None = None
    ) -> None:
        if constraint is None:
            constraint = ConstantConstraint(semiring, semiring.one)
        if constraint.semiring != semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot live in "
                f"a {semiring.name} store"
            )
        self.semiring = semiring
        self.constraint = _compact(constraint)

    def _check_semiring(self, constraint: SoftConstraint) -> None:
        if constraint.semiring != self.semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot be used "
                f"in a {self.semiring.name} store"
            )

    # Store operations (rules R1, R7, R8) --------------------------------

    def tell(self, constraint: SoftConstraint) -> "MonolithStore":
        """``σ ⊗ c``."""
        self._check_semiring(constraint)
        return MonolithStore(self.semiring, self.constraint.combine(constraint))

    def retract(self, constraint: SoftConstraint) -> "MonolithStore":
        """``σ ÷ c``; requires ``σ ⊑ c`` (rule R7)."""
        self._check_semiring(constraint)
        if not self.entails(constraint):
            raise StoreError(
                "retract requires the store to entail the constraint "
                "(σ ⊑ c); rule R7 premise violated"
            )
        return MonolithStore(self.semiring, self.constraint.divide(constraint))

    def update(
        self, variables: Iterable[str | Variable], constraint: SoftConstraint
    ) -> "MonolithStore":
        """``(σ ⇓_{V∖X}) ⊗ c`` — transactional assignment (rule R8)."""
        names = _names(variables)
        keep = [var for var in self.constraint.scope if var.name not in names]
        refreshed = self.constraint.project(keep)
        return MonolithStore(self.semiring, refreshed.combine(constraint))

    # Queries (rules R2, R6 and the check function) ------------------------

    def entails(self, constraint: SoftConstraint) -> bool:
        """``σ ⊢ c  ⇔  σ ⊑ c``, compared over the union scope."""
        return constraint_leq(self.constraint, constraint)

    def refines(self, constraint: SoftConstraint) -> bool:
        """``σ ⊒ c``."""
        self._check_semiring(constraint)
        return constraint_leq(constraint, self.constraint)

    def consistency(self) -> Any:
        """``σ ⇓∅``."""
        return self.constraint.consistency()

    def project(self, keep: Iterable[str | Variable]) -> SoftConstraint:
        """``σ ⇓ keep``."""
        return self.constraint.project(
            [item.name if isinstance(item, Variable) else item for item in keep]
        )

    @property
    def factors(self) -> Tuple[SoftConstraint, ...]:
        """The monolith is its own (single) factor."""
        return (self.constraint,)

    @property
    def support(self) -> Tuple[str, ...]:
        return self.constraint.support

    def value(self, assignment) -> Any:
        return self.constraint.value(assignment)

    def fingerprint(self) -> Tuple:
        """An extensional summary of σ (scope names + table)."""
        table = to_table(self.constraint)
        return (table.support, frozenset(table.items()))
