"""The shared constraint store σ manipulated by nmsccp agents.

The store of the paper's language is a single soft constraint (Sec. 2.1):
``tell`` combines, ``retract`` divides, ``update`` projects-then-combines,
and the checked transitions compare ``σ ⇓∅`` against threshold intervals.
Stores are *immutable*: every operation returns a new store, which lets
the interpreter explore nondeterministic branches without copying state
by hand and makes traces trivially replayable.

σ is kept as the *multiset of told factors* in a persistent cons chain,
so ``tell`` is O(1) and shares its tail with the parent store.  The
semantics only ever observes σ through ``blevel``/``⊢``/``⇓`` queries,
and those route through :mod:`repro.solver` — bucket elimination over
the factors, dense kernels when the semiring lowers.  Each store version
keeps its own ``σ ⇓∅``; every projection (``⊢`` is a projection plus a
pointwise compare) eliminates the factors afresh.  A plain ``tell``
hashes nothing: factor digests are taken only for re-tell absorption
under an idempotent ``×``, for retract-by-removal, and for the
exploration ``fingerprint`` (the sorted multiset of factor digests,
computed on first ask).

The randomized equivalence suite checks the store bit-for-bit against
a paper-literal oracle kept with the tests (σ as one eagerly combined
constraint) on ``consistency``/``entails`` across every registered
semiring, including nonmonotonic ``retract``/``update`` traces.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..semirings.base import Semiring
from .constraint import ConstantConstraint, SoftConstraint
from .digest import constraint_digest
from .operations import combine, constraint_leq
from .table import TableConstraint, to_table
from .variables import Variable, assignment_space_size, merge_scopes, scope_names

#: Materialize a constraint into a table while its assignment space stays
#: below this bound; beyond it evaluation stays lazy (and digests/caches
#: degrade gracefully to uncached computation).
_MATERIALIZE_LIMIT = 200_000

#: Retract-by-removal is only bitwise-equal to division while every
#: partial sum of factor values stays exactly representable; with values
#: bounded by 2⁵⁰ (see ``WeightedSemiring.exact_retract_value``) that is
#: guaranteed up to 8 factors (8 · 2⁵⁰ = 2⁵³, the float53 integer limit).
_EXACT_RETRACT_MAX_FACTORS = 8

#: Sentinel marking a not-yet-computed cached value.
_UNSET = object()

def clear_store_caches() -> None:
    """Drop the compiled elimination plans the store's queries reuse.

    Benchmarks call this between timed sections so warm-cache runs are a
    deliberate choice, not an accident of test ordering.
    """
    from ..solver.elimination import clear_plan_cache

    clear_plan_cache()


def _record_tell() -> None:
    """``store_factors_total`` — one sample per told factor."""
    from ..telemetry.runtime import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "store_factors_total",
            "Factors told into constraint stores.",
        ).inc()


class StoreError(Exception):
    """Raised on invalid store operations (e.g. retracting a constraint
    the store does not entail)."""


def _compact_factor(constraint: SoftConstraint) -> SoftConstraint:
    """Tabulate ``constraint`` when that is affordable.

    Already-extensional tables pass through untouched — the fix for the
    old ``__init__`` re-running the compaction (and its assignment-space
    sizing) on every derived store.
    """
    if isinstance(constraint, TableConstraint):
        return constraint
    if assignment_space_size(constraint.scope) <= _MATERIALIZE_LIMIT:
        return to_table(constraint)
    return constraint


def _is_trivial(constraint: SoftConstraint) -> bool:
    """Whether ``constraint`` is syntactically the neutral store ``1̄``."""
    return (
        isinstance(constraint, ConstantConstraint)
        and constraint.constant == constraint.semiring.one
    )


def _factor_digest(constraint: SoftConstraint) -> Optional[str]:
    """The factor's digest, or ``None`` when computing it would require
    materializing an over-limit assignment space."""
    if getattr(constraint, "_digest_memo", None) is None:
        if assignment_space_size(constraint.scope) > _MATERIALIZE_LIMIT:
            return None
    return constraint_digest(constraint)


def _factor_exact(semiring: Semiring, constraint: SoftConstraint) -> bool:
    """Whether every value of ``constraint`` lies in the semiring's
    exact-retract subset (see ``Semiring.supports_exact_retract``).

    The answer is memoized per semiring on the constraint's (immutable)
    table, so re-telling a factor does not rescan its values.
    """
    if not semiring.supports_exact_retract():
        return False
    if assignment_space_size(constraint.scope) > _MATERIALIZE_LIMIT:
        return False
    table = to_table(constraint)
    memo = getattr(table, "_exact_memo", None)
    if memo is None:
        memo = table._exact_memo = {}
    answer = memo.get(semiring)
    if answer is None:
        answer = memo[semiring] = (
            len(table.table) == assignment_space_size(table.scope)
            or semiring.exact_retract_value(table.default)
        ) and all(
            semiring.exact_retract_value(value)
            for value in table.table.values()
        )
    return answer


class ConstraintStore:
    """An immutable constraint store σ: the persistent chain of told
    factors.

    The chain cells are ``(factor, parent_cell)`` tuples, so a ``tell``
    allocates one cell and shares everything else with the parent store.
    ``_all_exact`` tracks whether every factor value sits in the
    semiring's exact-retract subset, which gates the retract-by-removal
    fast path.
    """

    __slots__ = (
        "semiring",
        "_chain",
        "_count",
        "_all_exact",
        "_factors_memo",
        "_combined_memo",
        "_support_memo",
        "_consistency",
        "_fingerprint",
    )

    def __init__(
        self, semiring: Semiring, constraint: SoftConstraint | None = None
    ) -> None:
        if constraint is not None and constraint.semiring != semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot live in "
                f"a {semiring.name} store"
            )
        self.semiring = semiring
        self._chain = None
        self._count = 0
        self._all_exact = semiring.supports_exact_retract()
        self._factors_memo = None
        self._combined_memo = None
        self._support_memo = None
        self._consistency = _UNSET
        self._fingerprint = None
        if constraint is not None and not _is_trivial(constraint):
            seeded = self.tell(constraint)
            self._chain = seeded._chain
            self._count = seeded._count
            self._all_exact = seeded._all_exact

    @classmethod
    def _from_chain(
        cls,
        semiring: Semiring,
        chain,
        count: int,
        all_exact: bool,
    ) -> "ConstraintStore":
        store = object.__new__(cls)
        store.semiring = semiring
        store._chain = chain
        store._count = count
        store._all_exact = all_exact
        store._factors_memo = None
        store._combined_memo = None
        store._support_memo = None
        store._consistency = _UNSET
        store._fingerprint = None
        return store

    @classmethod
    def _from_factors(
        cls, semiring: Semiring, factors: Sequence[SoftConstraint]
    ) -> "ConstraintStore":
        chain = None
        all_exact = semiring.supports_exact_retract()
        for factor in factors:
            chain = (factor, chain)
            if all_exact:
                all_exact = _factor_exact(semiring, factor)
        return cls._from_chain(semiring, chain, len(factors), all_exact)

    def _check_semiring(self, constraint: SoftConstraint) -> None:
        if constraint.semiring != self.semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot be used "
                f"in a {self.semiring.name} store"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.semiring.name}, "
            f"support={self.support!r})"
        )

    # ------------------------------------------------------------------
    # Factor access
    # ------------------------------------------------------------------

    @property
    def factors(self) -> Tuple[SoftConstraint, ...]:
        """The told factors, oldest first (σ = ⊗ factors)."""
        if self._factors_memo is None:
            out: List[SoftConstraint] = []
            cell = self._chain
            while cell is not None:
                out.append(cell[0])
                cell = cell[1]
            out.reverse()
            self._factors_memo = tuple(out)
        return self._factors_memo

    @property
    def factor_count(self) -> int:
        return self._count

    @property
    def constraint(self) -> SoftConstraint:
        """σ as a (lazily combined) single constraint — the view
        consumers of the paper-literal contract read.  Never
        tabulated here: evaluation folds the factors on demand."""
        if self._combined_memo is None:
            self._combined_memo = combine(
                self.factors, semiring=self.semiring
            )
        return self._combined_memo

    @property
    def support(self) -> Tuple[str, ...]:
        if self._support_memo is None:
            self._support_memo = scope_names(
                merge_scopes(*(f.scope for f in self.factors))
            ) if self._chain is not None else ()
        return self._support_memo

    def value(self, assignment) -> Any:
        """Evaluate σ under an assignment — the fold ``⊗ factors``."""
        return self.semiring.prod(
            factor.value(assignment) for factor in self.factors
        )

    def fingerprint(self) -> Tuple:
        """A hashable identity of this store *version*, computed on
        first ask.

        The sorted multiset of factor digests: two stores with the same
        factor multiset collide, extensionally-equal-but-differently-
        factored stores do not — which only costs the explorer extra
        states, never wrong answers.  Falls back to factor identities
        when a factor was too large to digest.
        """
        if self._fingerprint is None:
            digests = [_factor_digest(factor) for factor in self.factors]
            if None in digests:
                self._fingerprint = (
                    "factored-id",
                    repr(self.semiring),
                    tuple(id(factor) for factor in self.factors),
                )
            else:
                self._fingerprint = (
                    "factored",
                    repr(self.semiring),
                    tuple(sorted(digests)),
                )
        return self._fingerprint

    # ------------------------------------------------------------------
    # Store operations (paper rules R1, R7, R8)
    # ------------------------------------------------------------------

    def tell(self, constraint: SoftConstraint) -> "ConstraintStore":
        """``σ ⊗ c`` — append ``c`` to the factor chain, O(1).

        For ×-idempotent semirings a re-told factor is absorbed
        (``c ⊗ c = c`` pointwise), keeping the fingerprint stable so
        exhaustive exploration closes finite store lattices instead of
        growing the chain forever.  That digest match is the only hashing
        a ``tell`` does.
        """
        self._check_semiring(constraint)
        factor = _compact_factor(constraint)
        if self.semiring.is_multiplicative_idempotent():
            piece = _factor_digest(factor)
            cell = self._chain
            while piece is not None and cell is not None:
                if _factor_digest(cell[0]) == piece:
                    return self
                cell = cell[1]
        all_exact = self._all_exact and _factor_exact(self.semiring, factor)
        _record_tell()
        return ConstraintStore._from_chain(
            self.semiring, (factor, self._chain), self._count + 1, all_exact
        )

    def retract(self, constraint: SoftConstraint) -> "ConstraintStore":
        """``σ ÷ c`` — remove ``c``; requires ``σ ⊑ c`` (rule R7).

        When the semiring's ``×`` is cancellative and every value in
        play is exactly representable, retracting a *told* factor just
        drops it from the chain (bitwise equal to the division, and the
        factor set stays factored).  Otherwise — idempotent ``×``,
        rounding floats, saturating sums, or a ``c`` that was never told
        — it falls back to the residuated division over the combined
        store, as the paper's rule states it.
        """
        self._check_semiring(constraint)
        if not self.entails(constraint):
            raise StoreError(
                "retract requires the store to entail the constraint "
                "(σ ⊑ c); rule R7 premise violated"
            )
        factors = self.factors
        if (
            self._all_exact
            and self._count <= _EXACT_RETRACT_MAX_FACTORS
            and _factor_exact(self.semiring, constraint)
        ):
            wanted = constraint_digest(constraint)
            for index, factor in enumerate(factors):
                if constraint_digest(factor) == wanted:
                    remaining = factors[:index] + factors[index + 1 :]
                    return ConstraintStore._from_factors(
                        self.semiring, remaining
                    )
        divided = self.constraint.divide(constraint)
        return ConstraintStore._from_factors(
            self.semiring, (_compact_factor(divided),)
        )

    def update(
        self, variables: Iterable[str | Variable], constraint: SoftConstraint
    ) -> "ConstraintStore":
        """``(σ ⇓_{V∖X}) ⊗ c`` — transactional assignment (rule R8).

        Only the factors that *mention* a refreshed variable are
        combined and projected (distributivity: the untouched factors
        slide out of the projection unchanged), so an update's cost
        scales with the touched neighbourhood, not the whole store.
        """
        names = {
            item.name if isinstance(item, Variable) else item
            for item in variables
        }
        touched = [f for f in self.factors if names & set(f.support)]
        untouched = [f for f in self.factors if not (names & set(f.support))]
        if touched:
            kept = [
                var
                for var in merge_scopes(*(f.scope for f in touched))
                if var.name not in names
            ]
            untouched.append(self._eliminate_onto_table(touched, kept))
        return ConstraintStore._from_factors(self.semiring, untouched).tell(
            constraint
        )

    # ------------------------------------------------------------------
    # Queries (rules R2, R6 and the check function) — solver-backed
    # ------------------------------------------------------------------

    def _eliminate_onto_table(
        self,
        factors: Sequence[SoftConstraint],
        keep: Sequence[Variable],
    ) -> TableConstraint:
        """``(⊗ factors) ⇓ keep`` via bucket elimination (dense kernels
        whenever the semiring lowers)."""
        from ..solver import SCSP, eliminate

        problem = SCSP(list(factors), con=[var.name for var in keep])
        table, _stats = eliminate(problem, backend="auto")
        return table

    def consistency(self) -> Any:
        """``σ ⇓∅ = blevel(⟨factors, ∅⟩)`` — one solver call per store
        version, kept on the instance."""
        if self._consistency is _UNSET:
            if self._chain is None:
                self._consistency = self.semiring.one
            else:
                self._consistency = self._solve_consistency()
        return self._consistency

    def _solve_consistency(self) -> Any:
        from ..solver import SCSP, solve

        problem = SCSP(list(self.factors), con=())
        return solve(problem, method="elimination", backend="auto").blevel

    def project(self, keep: Iterable[str | Variable]) -> SoftConstraint:
        """``σ ⇓ keep`` via bucket elimination over the factors."""
        keep_names = {
            item.name if isinstance(item, Variable) else item
            for item in keep
        }
        if self._chain is None:
            return self.constraint.project(keep_names)
        scope = merge_scopes(*(f.scope for f in self.factors))
        kept = tuple(var for var in scope if var.name in keep_names)
        if len(kept) == len(scope):
            return self.constraint
        return self._eliminate_onto_table(self.factors, kept)

    def refines(self, constraint: SoftConstraint) -> bool:
        """``σ ⊒ c`` — the store is at least as *relaxed* as ``c``.

        The lower-bound side of the check intervals (C1/C3): σ must not
        demand more than ``c`` anywhere.  Enumerates the merged scope
        (the dual of ``entails`` cannot ride the ``+`` projection because
        ``+`` is a lub, not a glb).
        """
        self._check_semiring(constraint)
        return constraint_leq(constraint, self.constraint)

    def entails(self, constraint: SoftConstraint) -> bool:
        """``σ ⊢ c  ⇔  σ ⊑ c`` — decided on ``c``'s scope.

        Because ``+`` is the lub and idempotent, ``σ ⊑ c`` iff
        ``(σ ⇓ scope(c)) ⊑ c``: project the store's factors down to the
        asked scope with the solver, then compare pointwise over that
        (small) scope instead of the full union scope.
        """
        self._check_semiring(constraint)
        return constraint_leq(self.project(constraint.support), constraint)


def empty_store(semiring: Semiring) -> ConstraintStore:
    """The store ``1̄`` with empty support — the paper's initial store 0̸."""
    return ConstraintStore(semiring)
