"""The shared constraint store σ manipulated by nmsccp agents.

The store of the paper's language is a single soft constraint (Sec. 2.1):
``tell`` combines, ``retract`` divides, ``update`` projects-then-combines,
and the checked transitions compare ``σ ⇓∅`` against threshold intervals.
Stores are *immutable*: every operation returns a new store, which lets
the interpreter explore nondeterministic branches without copying state
by hand and makes traces trivially replayable.

Two backends implement the contract:

:class:`MonolithStore`
    The paper-literal representation — σ is one eagerly combined (and,
    below a size bound, tabulated) constraint.  Every ``tell`` pays the
    full union-scope materialization.

:class:`FactoredStore`
    σ is kept as the *multiset of told factors* in a persistent cons
    chain, so ``tell`` is O(1) and shares its tail with the parent
    store.  The semantics only ever observes σ through ``blevel``/``⊢``/
    ``⇓`` queries, and those route through :mod:`repro.solver` — bucket
    elimination over the factors, dense kernels when the semiring
    lowers.  An incrementally maintained SHA-256 *store digest* (the sum
    of the factors' digests mod 2²⁵⁶, so it is order-insensitive and
    O(1) per ``tell``) keys the query caches: repeated asks on the same
    store version are cache hits, and two stores that told the same
    factors in any order share entries.

``ConstraintStore(semiring, c)`` dispatches to the session default
backend (``--store-backend {auto,monolith,factored}``; ``auto`` means
factored).  The randomized equivalence suite asserts the two backends
agree bit-for-bit on ``consistency``/``entails`` across every registered
semiring, including nonmonotonic ``retract``/``update`` traces.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..caching import DEFAULT_CACHE_SIZE, LRUCache, _MISSING
from ..semirings.base import Semiring
from .constraint import ConstantConstraint, SoftConstraint
from .digest import DIGEST_MODULUS, constraint_digest, digest_to_int
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

#: The recognised ``--store-backend`` values.
STORE_BACKENDS: Tuple[str, ...] = ("auto", "monolith", "factored")

_default_backend = "auto"

#: Memo for ``σ ⊢ c`` checks.  Entailment is the hot premise of the R2/
#: R6/R7 transitions and the exhaustive explorer re-derives it for the
#: same ``(σ, c)`` pair along every interleaving, so the memo pays for
#: itself quickly.  It is LRU-capped and shared by both backends: the
#: monolith keys by the *constraint objects* (identity hashing — strong
#: references in the cache keep ids unambiguous), the factored store by
#: its semantic ``(store digest, constraint digest)`` pair.
_entailment_cache = LRUCache(DEFAULT_CACHE_SIZE, name="store-entails")

#: Memo for factored-store ``consistency``/``project`` answers, keyed by
#: the incremental store digest.  The digest is order-insensitive, so
#: two stores that told the same factors in different orders share one
#: entry.
_query_cache = LRUCache(DEFAULT_CACHE_SIZE, name="store-query")


def set_default_store_backend(backend: str) -> None:
    """Set the backend ``ConstraintStore(...)``/``empty_store`` build
    (the CLI's ``--store-backend`` lands here)."""
    global _default_backend
    if backend not in STORE_BACKENDS:
        raise StoreError(
            f"unknown store backend {backend!r}; known: {STORE_BACKENDS}"
        )
    _default_backend = backend


def get_default_store_backend() -> str:
    return _default_backend


def _backend_class(backend: Optional[str]) -> type:
    name = backend or _default_backend
    if name == "auto":
        name = "factored"
    if name == "monolith":
        return MonolithStore
    if name == "factored":
        return FactoredStore
    raise StoreError(
        f"unknown store backend {name!r}; known: {STORE_BACKENDS}"
    )


def set_entailment_cache_size(maxsize: int) -> None:
    """Re-cap (and implicitly trim) the shared entailment memo."""
    _entailment_cache.resize(maxsize)


def entailment_cache_stats() -> dict:
    return _entailment_cache.stats()


def store_query_cache_stats() -> dict:
    """Stats of the digest-keyed consistency/projection memo."""
    return _query_cache.stats()


def clear_store_caches() -> None:
    """Drop every store-level memo (entailment, query, materialized
    eliminated buckets, compiled elimination plans).

    Benchmarks call this between timed sections so warm-cache runs are a
    deliberate choice, not an accident of test ordering.
    """
    from ..solver.elimination import clear_bucket_cache, clear_plan_cache

    _entailment_cache.clear()
    _query_cache.clear()
    clear_bucket_cache()
    clear_plan_cache()


def _record_tell(backend: str) -> None:
    """``store_factors_total{backend}`` — one sample per told factor."""
    from ..telemetry.runtime import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "store_factors_total",
            "Factors told into constraint stores.",
            labelnames=("backend",),
        ).labels(backend).inc()


def _record_query_hit(query: str) -> None:
    """``store_query_solver_hits_total{query}`` — a store query answered
    from a cached solver result instead of a fresh elimination."""
    from ..telemetry.runtime import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "store_query_solver_hits_total",
            "Store queries answered from cached solver results.",
            labelnames=("query",),
        ).labels(query).inc()


class StoreError(Exception):
    """Raised on invalid store operations (e.g. retracting a constraint
    the store does not entail)."""


class ConstraintStore:
    """An immutable constraint store σ; construction dispatches to the
    session's default backend (or an explicit ``backend=``)."""

    __slots__ = ()

    #: Which representation this class implements.
    backend = "abstract"

    def __new__(
        cls,
        semiring: Semiring = None,  # type: ignore[assignment]
        constraint: SoftConstraint | None = None,
        backend: Optional[str] = None,
    ) -> "ConstraintStore":
        if cls is ConstraintStore:
            cls = _backend_class(backend)
        return object.__new__(cls)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _check_semiring(self, constraint: SoftConstraint) -> None:
        if constraint.semiring != self.semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot be used "
                f"in a {self.semiring.name} store"
            )

    def refines(self, constraint: SoftConstraint) -> bool:
        """``σ ⊒ c`` — the store is at least as *relaxed* as ``c``.

        The lower-bound side of the check intervals (C1/C3): σ must not
        demand more than ``c`` anywhere.  Enumerates the merged scope on
        either backend (the dual of ``entails`` cannot ride the ``+``
        projection because ``+`` is a lub, not a glb).
        """
        self._check_semiring(constraint)
        return constraint_leq(constraint, self.constraint)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.semiring.name}, "
            f"support={self.support!r})"
        )

    # Subclass contract -------------------------------------------------

    @property
    def factors(self) -> Tuple[SoftConstraint, ...]:
        raise NotImplementedError

    def fingerprint(self) -> Tuple:
        raise NotImplementedError


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


def _factor_digest_int(constraint: SoftConstraint) -> Optional[int]:
    """The factor's digest as an integer, or ``None`` when computing it
    would require materializing an over-limit assignment space."""
    if getattr(constraint, "_digest_memo", None) is None:
        if assignment_space_size(constraint.scope) > _MATERIALIZE_LIMIT:
            return None
    return digest_to_int(constraint_digest(constraint))


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


class MonolithStore(ConstraintStore):
    """The paper-literal backend: σ is one eagerly combined constraint."""

    __slots__ = ("semiring", "constraint", "_consistency")

    backend = "monolith"

    def __init__(
        self,
        semiring: Semiring,
        constraint: SoftConstraint | None = None,
        backend: Optional[str] = None,
    ) -> None:
        self.semiring = semiring
        if constraint is None:
            constraint = ConstantConstraint(semiring, semiring.one)
        if constraint.semiring != semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot live in "
                f"a {semiring.name} store"
            )
        self.constraint = _compact_factor(constraint)
        self._consistency = _UNSET

    # ------------------------------------------------------------------
    # Store operations (paper rules R1, R7, R8)
    # ------------------------------------------------------------------

    def tell(self, constraint: SoftConstraint) -> "MonolithStore":
        """``σ ⊗ c`` — add ``c`` to the store."""
        self._check_semiring(constraint)
        _record_tell("monolith")
        return MonolithStore(
            self.semiring, self.constraint.combine(constraint)
        )

    def retract(self, constraint: SoftConstraint) -> "MonolithStore":
        """``σ ÷ c`` — remove ``c``; requires ``σ ⊑ c`` (rule R7).

        The entailment premise of R7 guarantees the division is a genuine
        relaxation; violating it raises :class:`StoreError`.
        """
        self._check_semiring(constraint)
        if not self.entails(constraint):
            raise StoreError(
                "retract requires the store to entail the constraint "
                "(σ ⊑ c); rule R7 premise violated"
            )
        return MonolithStore(
            self.semiring, self.constraint.divide(constraint)
        )

    def update(
        self, variables: Iterable[str | Variable], constraint: SoftConstraint
    ) -> "MonolithStore":
        """``(σ ⇓_{V∖X}) ⊗ c`` — transactional assignment (rule R8).

        Removes the influence of every variable in ``X`` from the store,
        then adds ``c``.  Projection and combination happen in one step,
        mirroring the transactional semantics of the paper.
        """
        names = {
            item.name if isinstance(item, Variable) else item
            for item in variables
        }
        keep = [var for var in self.constraint.scope if var.name not in names]
        refreshed = self.constraint.project(keep)
        return MonolithStore(self.semiring, refreshed.combine(constraint))

    # ------------------------------------------------------------------
    # Queries (rules R2, R6 and the check function)
    # ------------------------------------------------------------------

    def entails(self, constraint: SoftConstraint) -> bool:
        """``σ ⊢ c  ⇔  σ ⊑ c`` — the ask premise (rule R2), memoized."""
        key = (self.constraint, constraint)
        hit = _entailment_cache.get(key, _MISSING)
        if hit is not _MISSING:
            _record_query_hit("entails")
            return hit
        answer = constraint_leq(self.constraint, constraint)
        _entailment_cache.put(key, answer)
        return answer

    def consistency(self) -> Any:
        """``σ ⇓∅`` — the α-consistency level checked by C1–C4.

        Cached: the store is immutable, and the checked transitions of
        the nmsccp interpreter query this repeatedly.
        """
        if self._consistency is _UNSET:
            self._consistency = self.constraint.consistency()
        return self._consistency

    def project(self, keep: Iterable[str | Variable]) -> SoftConstraint:
        """Expose the store's interface over ``keep`` (paper Sec. 5)."""
        return self.constraint.project(
            [
                item.name if isinstance(item, Variable) else item
                for item in keep
            ]
        )

    @property
    def factors(self) -> Tuple[SoftConstraint, ...]:
        """The monolith is its own (single) factor."""
        return (self.constraint,)

    @property
    def support(self) -> Tuple[str, ...]:
        return self.constraint.support

    def value(self, assignment) -> Any:
        """Evaluate σ under an assignment (delegates to the constraint)."""
        return self.constraint.value(assignment)

    def fingerprint(self) -> Tuple:
        """A hashable extensional summary of σ (scope names + table)."""
        table = to_table(self.constraint)
        return (table.support, frozenset(table.items()))


class FactoredStore(ConstraintStore):
    """The factor-set backend: σ is the persistent chain of told factors.

    The chain cells are ``(factor, parent_cell)`` tuples, so a ``tell``
    allocates one cell and shares everything else with the parent store.
    ``_digest_int`` is the additive multiset digest of the factors (or
    ``None`` once any factor was too large to tabulate — queries then
    simply skip the caches); ``_all_exact`` tracks whether every factor
    value sits in the semiring's exact-retract subset, which gates the
    retract-by-removal fast path.
    """

    __slots__ = (
        "semiring",
        "_chain",
        "_count",
        "_digest_int",
        "_all_exact",
        "_factors_memo",
        "_combined_memo",
        "_support_memo",
        "_consistency",
    )

    backend = "factored"

    def __init__(
        self,
        semiring: Semiring,
        constraint: SoftConstraint | None = None,
        backend: Optional[str] = None,
    ) -> None:
        if constraint is not None and constraint.semiring != semiring:
            raise StoreError(
                f"constraint over {constraint.semiring.name} cannot live in "
                f"a {semiring.name} store"
            )
        self.semiring = semiring
        self._chain = None
        self._count = 0
        self._digest_int = 0
        self._all_exact = semiring.supports_exact_retract()
        self._factors_memo = None
        self._combined_memo = None
        self._support_memo = None
        self._consistency = _UNSET
        if constraint is not None and not _is_trivial(constraint):
            seeded = self.tell(constraint)
            self._chain = seeded._chain
            self._count = seeded._count
            self._digest_int = seeded._digest_int
            self._all_exact = seeded._all_exact

    @classmethod
    def _from_chain(
        cls,
        semiring: Semiring,
        chain,
        count: int,
        digest_int: Optional[int],
        all_exact: bool,
    ) -> "FactoredStore":
        store = object.__new__(cls)
        store.semiring = semiring
        store._chain = chain
        store._count = count
        store._digest_int = digest_int
        store._all_exact = all_exact
        store._factors_memo = None
        store._combined_memo = None
        store._support_memo = None
        store._consistency = _UNSET
        return store

    @classmethod
    def _from_factors(
        cls, semiring: Semiring, factors: Sequence[SoftConstraint]
    ) -> "FactoredStore":
        chain = None
        digest_int: Optional[int] = 0
        all_exact = semiring.supports_exact_retract()
        for factor in factors:
            chain = (factor, chain)
            if digest_int is not None:
                piece = _factor_digest_int(factor)
                digest_int = (
                    None
                    if piece is None
                    else (digest_int + piece) % DIGEST_MODULUS
                )
            if all_exact:
                all_exact = _factor_exact(semiring, factor)
        return cls._from_chain(
            semiring, chain, len(factors), digest_int, all_exact
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
    def digest(self) -> Optional[str]:
        """The incremental store digest (hex), if maintainable."""
        if self._digest_int is None:
            return None
        return f"{self._digest_int:064x}"

    @property
    def constraint(self) -> SoftConstraint:
        """σ as a (lazily combined) single constraint — the monolith
        view, for consumers of the paper-literal contract.  Never
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
        """A hashable identity of this store *version*.

        Digest-based (intensional): two stores with the same factor
        multiset collide, extensionally-equal-but-differently-factored
        stores do not — which only costs the explorer extra states,
        never wrong answers.  Falls back to factor identities when a
        factor was too large to digest.
        """
        if self._digest_int is not None:
            return ("factored", repr(self.semiring), self._digest_int)
        return (
            "factored-id",
            repr(self.semiring),
            tuple(id(factor) for factor in self.factors),
        )

    # ------------------------------------------------------------------
    # Store operations (paper rules R1, R7, R8)
    # ------------------------------------------------------------------

    def tell(self, constraint: SoftConstraint) -> "FactoredStore":
        """``σ ⊗ c`` — append ``c`` to the factor chain, O(1).

        For ×-idempotent semirings a re-told factor is absorbed
        (``c ⊗ c = c`` pointwise), keeping the fingerprint stable so
        exhaustive exploration closes finite store lattices instead of
        growing the chain forever.
        """
        self._check_semiring(constraint)
        factor = _compact_factor(constraint)
        if self._digest_int is None:
            digest_int: Optional[int] = None
        else:
            piece = _factor_digest_int(factor)
            digest_int = (
                None
                if piece is None
                else (self._digest_int + piece) % DIGEST_MODULUS
            )
            if piece is not None and self.semiring.is_multiplicative_idempotent():
                cell = self._chain
                while cell is not None:
                    if _factor_digest_int(cell[0]) == piece:
                        return self
                    cell = cell[1]
        all_exact = self._all_exact and _factor_exact(self.semiring, factor)
        _record_tell("factored")
        return FactoredStore._from_chain(
            self.semiring,
            (factor, self._chain),
            self._count + 1,
            digest_int,
            all_exact,
        )

    def retract(self, constraint: SoftConstraint) -> "FactoredStore":
        """``σ ÷ c`` — remove ``c``; requires ``σ ⊑ c`` (rule R7).

        When the semiring's ``×`` is cancellative and every value in
        play is exactly representable, retracting a *told* factor just
        drops it from the chain (bitwise equal to the division, and the
        factor set stays factored).  Otherwise — idempotent ``×``,
        rounding floats, saturating sums, or a ``c`` that was never told
        — it falls back to the residuated division over the combined
        store, exactly like the monolith.
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
                    return FactoredStore._from_factors(
                        self.semiring, remaining
                    )
        divided = self.constraint.divide(constraint)
        return FactoredStore._from_factors(
            self.semiring, (_compact_factor(divided),)
        )

    def update(
        self, variables: Iterable[str | Variable], constraint: SoftConstraint
    ) -> "FactoredStore":
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
        return FactoredStore._from_factors(self.semiring, untouched).tell(
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
        whenever the semiring lowers).  Eliminations ride the shared
        :class:`~repro.solver.elimination.BucketCache`: after a delta
        (``tell``/``retract``/``update``) only buckets whose input-factor
        digests changed are recomputed — untouched buckets are answered
        from the materialized intermediates of earlier store versions."""
        from ..solver import SCSP, eliminate, shared_bucket_cache

        problem = SCSP(list(factors), con=[var.name for var in keep])
        table, _stats = eliminate(
            problem, backend="auto", bucket_cache=shared_bucket_cache()
        )
        return table

    def _cached_query(self, label: str, extra, compute):
        if self._digest_int is None:
            return compute()
        key = (label, repr(self.semiring), self._digest_int, extra)
        hit = _query_cache.get(key, _MISSING)
        if hit is not _MISSING:
            _record_query_hit(label)
            return hit
        answer = compute()
        _query_cache.put(key, answer)
        return answer

    def consistency(self) -> Any:
        """``σ ⇓∅ = blevel(⟨factors, ∅⟩)`` — one solver call, answered
        from the digest memo when this store version was asked before."""
        if self._consistency is _UNSET:
            if self._chain is None:
                self._consistency = self.semiring.one
            else:
                self._consistency = self._cached_query(
                    "consistency", None, self._solve_consistency
                )
        return self._consistency

    def _solve_consistency(self) -> Any:
        from ..solver import SCSP, shared_bucket_cache, solve

        problem = SCSP(list(self.factors), con=())
        result = solve(
            problem,
            method="elimination",
            backend="auto",
            bucket_cache=shared_bucket_cache(),
        )
        return result.blevel

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
        return self._cached_query(
            "project",
            tuple(var.name for var in kept),
            lambda: self._eliminate_onto_table(self.factors, kept),
        )

    def entails(self, constraint: SoftConstraint) -> bool:
        """``σ ⊢ c  ⇔  σ ⊑ c`` — decided on ``c``'s scope.

        Because ``+`` is the lub and idempotent, ``σ ⊑ c`` iff
        ``(σ ⇓ scope(c)) ⊑ c``: project the factored store down to the
        asked scope with the solver, then compare pointwise over that
        (small) scope instead of the full union scope.
        """
        self._check_semiring(constraint)
        key = None
        if (
            self._digest_int is not None
            and assignment_space_size(constraint.scope)
            <= _MATERIALIZE_LIMIT
        ):
            key = (
                "entails",
                repr(self.semiring),
                self._digest_int,
                constraint_digest(constraint),
            )
            hit = _entailment_cache.get(key, _MISSING)
            if hit is not _MISSING:
                _record_query_hit("entails")
                return hit
        projected = self.project(constraint.support)
        answer = constraint_leq(projected, constraint)
        if key is not None:
            _entailment_cache.put(key, answer)
        return answer


def empty_store(
    semiring: Semiring, backend: Optional[str] = None
) -> ConstraintStore:
    """The store ``1̄`` with empty support — the paper's initial store 0̸."""
    return ConstraintStore(semiring, backend=backend)
