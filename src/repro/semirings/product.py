"""Composite c-semirings — multi-criteria and tie-broken optimization.

"The cartesian product of multiple c-semirings is still a c-semiring and,
therefore, we can model also a multicriteria optimization" (paper Sec. 4).
A value is a tuple with one component per criterion (e.g. ``(cost,
reliability)`` over Weighted × Probabilistic).  Two composition orders are
provided:

* :class:`ProductSemiring` — operations act componentwise and the derived
  order is the componentwise (Pareto) partial order, so incomparable
  trade-offs are first-class citizens;
* :class:`LexicographicSemiring` — same carrier and ``×``, but ``+``
  selects the lexicographically better tuple, yielding a *total* order
  over totally ordered components.  This is the aggregation the fairness
  literature uses for ⟨min per-client satisfaction, total welfare⟩
  objectives: maximize the worst-off client first, break ties by overall
  welfare.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence, Tuple

from .base import Semiring, SemiringError, TotallyOrderedSemiring

ProductValue = Tuple[Any, ...]


class ProductSemiring(Semiring[ProductValue]):
    """Componentwise product ``S₁ × … × Sₙ`` of absorptive semirings.

    Division is componentwise residuation, which is again the residuation
    of the product (the max of a componentwise-ordered set of tuples is
    the tuple of componentwise maxima).
    """

    name = "Product"

    def __init__(self, components: Sequence[Semiring]) -> None:
        if not components:
            raise SemiringError("ProductSemiring needs at least one component")
        self.components: tuple[Semiring, ...] = tuple(components)
        self.name = "Product[" + ", ".join(c.name for c in self.components) + "]"

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def zero(self) -> ProductValue:
        return tuple(c.zero for c in self.components)

    @property
    def one(self) -> ProductValue:
        return tuple(c.one for c in self.components)

    def plus(self, a: ProductValue, b: ProductValue) -> ProductValue:
        return tuple(
            c.plus(x, y) for c, x, y in zip(self.components, a, b)
        )

    def times(self, a: ProductValue, b: ProductValue) -> ProductValue:
        return tuple(
            c.times(x, y) for c, x, y in zip(self.components, a, b)
        )

    def divide(self, a: ProductValue, b: ProductValue) -> ProductValue:
        return tuple(
            c.divide(x, y) for c, x, y in zip(self.components, a, b)
        )

    def leq(self, a: ProductValue, b: ProductValue) -> bool:
        return all(
            c.leq(x, y) for c, x, y in zip(self.components, a, b)
        )

    def equiv(self, a: ProductValue, b: ProductValue) -> bool:
        return all(
            c.equiv(x, y) for c, x, y in zip(self.components, a, b)
        )

    def is_element(self, a: Any) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.arity
            and all(c.is_element(x) for c, x in zip(self.components, a))
        )

    def is_multiplicative_idempotent(self) -> bool:
        return all(c.is_multiplicative_idempotent() for c in self.components)

    def is_total_order(self) -> bool:
        # A product of nontrivial total orders is only total when there is
        # a single component; report conservatively.
        return self.arity == 1 and self.components[0].is_total_order()

    def sample_elements(self) -> tuple[ProductValue, ...]:
        per_component = [c.sample_elements()[:3] for c in self.components]
        return tuple(itertools.product(*per_component))

    def check_element(self, a: Any) -> ProductValue:
        if not isinstance(a, tuple) or len(a) != self.arity:
            raise SemiringError(
                f"{a!r} is not a {self.arity}-tuple for {self.name}"
            )
        return tuple(
            c.check_element(x) for c, x in zip(self.components, a)
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((type(self), self.components))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(c) for c in self.components)
        return f"ProductSemiring([{inner}])"


class LexicographicSemiring(TotallyOrderedSemiring[ProductValue]):
    """Lexicographic composition ``S₁ ⋉ … ⋉ Sₙ`` of *totally ordered*
    c-semirings.

    The carrier and ``×`` are those of the Cartesian product, but ``+``
    selects the lexicographically better tuple: component 1 decides,
    component 2 breaks ties, and so on.  The derived order is total over
    totally ordered components, and ``×`` stays absorptive
    (``a × b ≤lex a``), which is exactly what branch & bound's pruning
    soundness needs — so ``solve(method="auto")`` handles Lex problems.
    Full distributivity and ``×``-monotonicity, however, hold only up to
    tie-collapse: multiplying can flatten a strict first-component order
    into a tie, promoting a later component to decider on one side of
    ``a × (b ⊕ c) = (a × b) ⊕ (a × c)`` but not the other (the pinned
    counterexample lives in ``tests/semirings/test_composite_laws.py``).
    On *comonotone* carriers — every component ranks the sampled tuples
    the same way — the law does hold, and the law suite validates it
    there.  (The fairness allocation in :mod:`repro.soa.allocation` is
    exact regardless: its joint problem is a single constraint, so no
    ``⊕``/``×`` interchange is ever needed.)

    Ties are decided by *exact* component equality (``==``), not the
    tolerant ``equiv`` — deliberately, so the pure-Python order agrees
    bit-for-bit with the vectorized lowering in
    :mod:`repro.solver.kernels`, which compares raw float64 planes.

    Residuated division is componentwise with a cutoff: as long as each
    prefix quotient multiplies back *exactly* to ``a``'s component the
    next component stays constrained; the first strictly-worse component
    frees every later one to its best value (``b × x ≤lex a`` then holds
    regardless of the suffix).
    """

    name = "Lex"

    #: Tie-collapse breaks ``×``-monotonicity (see above), so branch &
    #: bound prunes Lex problems on the accumulated value alone.
    times_monotone = False

    def __init__(self, components: Sequence[Semiring]) -> None:
        if not components:
            raise SemiringError(
                "LexicographicSemiring needs at least one component"
            )
        for component in components:
            if not component.is_total_order():
                raise SemiringError(
                    "lexicographic composition needs totally ordered "
                    f"components; {component.name} is a partial order"
                )
        self.components: tuple[Semiring, ...] = tuple(components)
        self.name = "Lex[" + ", ".join(c.name for c in self.components) + "]"

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def zero(self) -> ProductValue:
        return tuple(c.zero for c in self.components)

    @property
    def one(self) -> ProductValue:
        return tuple(c.one for c in self.components)

    def plus(self, a: ProductValue, b: ProductValue) -> ProductValue:
        for c, x, y in zip(self.components, a, b):
            if x == y:
                continue
            return a if c.gt(x, y) else b
        return a

    def times(self, a: ProductValue, b: ProductValue) -> ProductValue:
        return tuple(
            c.times(x, y) for c, x, y in zip(self.components, a, b)
        )

    def divide(self, a: ProductValue, b: ProductValue) -> ProductValue:
        quotient = []
        constrained = True
        for c, x, y in zip(self.components, a, b):
            if not constrained:
                quotient.append(c.one)
                continue
            q = c.divide(x, y)
            quotient.append(q)
            if not c.equiv(c.times(y, q), x):
                constrained = False
        return tuple(quotient)

    def leq(self, a: ProductValue, b: ProductValue) -> bool:
        for c, x, y in zip(self.components, a, b):
            if x == y:
                continue
            return c.lt(x, y)
        return True

    def equiv(self, a: ProductValue, b: ProductValue) -> bool:
        return all(
            c.equiv(x, y) for c, x, y in zip(self.components, a, b)
        )

    def is_element(self, a: Any) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.arity
            and all(c.is_element(x) for c, x in zip(self.components, a))
        )

    def is_multiplicative_idempotent(self) -> bool:
        return all(c.is_multiplicative_idempotent() for c in self.components)

    def sample_elements(self) -> tuple[ProductValue, ...]:
        per_component = [c.sample_elements()[:3] for c in self.components]
        return tuple(itertools.product(*per_component))

    def check_element(self, a: Any) -> ProductValue:
        if not isinstance(a, tuple) or len(a) != self.arity:
            raise SemiringError(
                f"{a!r} is not a {self.arity}-tuple for {self.name}"
            )
        return tuple(
            c.check_element(x) for c, x in zip(self.components, a)
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((type(self), self.components))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(c) for c in self.components)
        return f"LexicographicSemiring([{inner}])"
