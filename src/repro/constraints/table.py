"""Extensional (table) constraints and materialization.

A table constraint stores an explicit semiring value per tuple of scope
values, exactly like the arcs of the paper's Fig. 1 (e.g. ``⟨a,a⟩ → 5``).
``to_table`` flattens any lazy constraint tree into a table, which makes
repeated evaluation O(1) and is the representation the bucket-elimination
solver manipulates.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Tuple

from ..semirings.base import Semiring
from .assignments import assignment_key
from .constraint import ConstraintError, SoftConstraint
from .variables import Variable, iter_assignments


class TableConstraint(SoftConstraint):
    """A constraint defined by an explicit tuple → value table.

    Tuples follow scope order.  Missing tuples take ``default`` (the
    semiring ``zero`` unless stated otherwise), so sparse tables model
    "forbidden unless listed" naturally.
    """

    def __init__(
        self,
        semiring: Semiring,
        scope: Sequence[Variable],
        table: Mapping[Tuple[Any, ...], Any],
        default: Any = None,
        name: str = "",
    ) -> None:
        super().__init__(semiring, scope)
        self.default = (
            semiring.zero if default is None else semiring.check_element(default)
        )
        self.name = name
        normalized: dict[Tuple[Any, ...], Any] = {}
        arity = len(self.scope)
        for raw_key, raw_value in table.items():
            key = raw_key if isinstance(raw_key, tuple) else (raw_key,)
            if len(key) != arity:
                raise ConstraintError(
                    f"table key {key!r} has arity {len(key)}, "
                    f"scope expects {arity}"
                )
            for value, var in zip(key, self.scope):
                if value not in var.domain:
                    raise ConstraintError(
                        f"value {value!r} not in domain of {var.name!r}"
                    )
            normalized[key] = semiring.check_element(raw_value)
        self.table = normalized

    @classmethod
    def _from_solver(
        cls,
        semiring: Semiring,
        scope: Sequence[Variable],
        table: "dict[Tuple[Any, ...], Any]",
        default: Any = None,
        name: str = "",
    ) -> "TableConstraint":
        """Internal fast constructor for solver-produced tables.

        Skips the per-tuple key/value validation of ``__init__``: the
        caller guarantees keys are enumerated from ``scope``'s own
        domains and values are semiring elements by construction (e.g.
        unlifted from a dense array whose dtype the semiring chose).
        The serving hot path materializes one such table per solve,
        where re-validation is pure overhead.
        """
        self = cls.__new__(cls)
        SoftConstraint.__init__(self, semiring, scope)
        self.default = semiring.zero if default is None else default
        self.name = name
        self.table = table
        return self

    def value(self, assignment: Mapping[str, Any]) -> Any:
        try:
            key = assignment_key(assignment, self.scope)
        except KeyError as exc:
            raise ConstraintError(
                f"assignment missing variable {exc.args[0]!r} "
                f"required by table constraint {self.name!r}"
            ) from None
        return self.table.get(key, self.default)

    def materialize(self) -> "TableConstraint":
        return self

    def items(self):
        """Yield every ``(tuple, value)`` over the full assignment space
        (including defaulted tuples).

        This enumerates ``∏ |domain|`` tuples — *exponential* in scope
        size, regardless of how few tuples are stored explicitly.  When
        defaulted tuples are irrelevant (e.g. the table was produced by
        :func:`to_table`, which makes every tuple explicit), iterate
        :meth:`sparse_items` instead and pay only for what is stored.
        """
        for assignment in iter_assignments(self.scope):
            key = assignment_key(assignment, self.scope)
            yield key, self.table.get(key, self.default)

    def sparse_items(self):
        """Yield only the explicitly stored ``(tuple, value)`` pairs.

        Defaulted tuples are skipped, so this is O(stored tuples) rather
        than O(assignment space); callers that need default coverage must
        use :meth:`items`.
        """
        yield from self.table.items()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"TableConstraint{label}(scope={self.support!r}, "
            f"{len(self.table)} explicit tuples)"
        )


def to_table(constraint: SoftConstraint, name: str = "") -> TableConstraint:
    """Materialize any constraint into an extensionally equal table.

    Enumerates the full assignment space of the constraint's scope —
    exponential in scope size, which is exactly the price the paper's
    projection operator pays; callers control scope growth.

    The result is memoized on the constraint object, so repeated solves
    over the same constraint objects (the broker/runtime hot path)
    materialize each constraint once.  Constraints are semantically
    immutable functions, which is what makes the memo sound; the ``name``
    of a memoized table is the one given on first materialization.
    """
    cached = memoized_table(constraint)
    if cached is not None:
        return cached
    table: dict[Tuple[Any, ...], Any] = {}
    for assignment in iter_assignments(constraint.scope):
        key = assignment_key(assignment, constraint.scope)
        table[key] = constraint.value(assignment)
    materialized = TableConstraint(
        constraint.semiring,
        constraint.scope,
        table,
        default=constraint.semiring.zero,
        name=name,
    )
    constraint._table_memo = materialized
    return materialized


def memoized_table(constraint: SoftConstraint) -> Optional[TableConstraint]:
    """``constraint``'s table when it already has one — it is a table, or
    :func:`to_table` has materialized it — else ``None``; never builds."""
    if isinstance(constraint, TableConstraint):
        return constraint
    return getattr(constraint, "_table_memo", None)
