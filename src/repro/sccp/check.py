"""The checked-transition function (paper Fig. 3, cases C1–C4).

Every nmsccp action carries a *checked arrow* ``→^{upper}_{lower}``
constraining the store it is about to act on (or produce):

* the **lower** threshold is the *worst acceptable quality* — "we need at
  least a solution as good as this";
* the **upper** threshold is the *best allowed quality* — "no solution
  may be too good" (e.g. a provider that insists on spending at least one
  hour on failure management).

Each threshold is either a semiring level ``a`` (compared against the
store consistency ``σ ⇓∅``) or a whole constraint ``φ`` (compared against
σ in the ``⊑`` order), giving the four cases:

====  =============  =============
case  lower          upper
====  =============  =============
C1    level ``a1``   level ``a2``
C2    level ``a1``   constraint ``φ2``
C3    constraint ``φ1``  level ``a2``
C4    constraint ``φ1``  constraint ``φ2``
====  =============  =============

Conditions (b = better):  a level lower bound requires ``¬(σ⇓∅ <S a1)``;
a level upper bound requires ``¬(σ⇓∅ >S a2)``; a constraint lower bound
requires ``σ ⊒ φ1``; a constraint upper bound requires ``σ ⊑ φ2``.  The
negated forms matter for partially ordered semirings: an *incomparable*
consistency passes a level check, exactly as in Fig. 3.

NOTE on the Weighted semiring: the semiring order is inverted w.r.t.
numbers, so "lower = worst acceptable" is the numerically *largest*
tolerated cost.  Example 1's interval "between 1 and 4 hours" is
``CheckSpec(lower=4, upper=1)``.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..constraints.constraint import SoftConstraint
from ..constraints.operations import constraint_leq
from ..constraints.store import ConstraintStore
from ..semirings.base import Semiring

Threshold = Union[None, Any, SoftConstraint]


class CheckError(Exception):
    """Raised on intrinsically wrong intervals (lower better than upper)
    and on checks missing what they compare against."""


class CheckSpec:
    """A checked arrow ``→^{upper}_{lower}``; ``None`` leaves a side open.

    An omitted lower bound behaves as the semiring ``0`` (anything is
    acceptable) and an omitted upper bound as ``1`` (nothing is too good)
    — the paper's ``→^0_∞`` arrows on the Weighted semiring.
    """

    __slots__ = ("semiring", "lower", "upper", "case")

    def __init__(
        self,
        semiring: Semiring,
        lower: Threshold = None,
        upper: Threshold = None,
    ) -> None:
        self.semiring = semiring
        self.lower = self._validate_threshold(lower, "lower")
        self.upper = self._validate_threshold(upper, "upper")
        self.case = self._classify()
        self._validate_interval()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _validate_threshold(self, threshold: Threshold, side: str) -> Threshold:
        if threshold is None:
            return None
        if isinstance(threshold, SoftConstraint):
            if threshold.semiring != self.semiring:
                raise CheckError(
                    f"{side} threshold constraint lives in "
                    f"{threshold.semiring.name}, arrow in {self.semiring.name}"
                )
            return threshold
        return self.semiring.check_element(threshold)

    def _classify(self) -> str:
        lower_is_constraint = isinstance(self.lower, SoftConstraint)
        upper_is_constraint = isinstance(self.upper, SoftConstraint)
        if not lower_is_constraint and not upper_is_constraint:
            return "C1"
        if not lower_is_constraint and upper_is_constraint:
            return "C2"
        if lower_is_constraint and not upper_is_constraint:
            return "C3"
        return "C4"

    def _validate_interval(self) -> None:
        """Reject intervals whose lower side is strictly better than the
        upper — the parenthesized conditions of Fig. 3."""
        semiring = self.semiring
        lower, upper = self.lower, self.upper
        if lower is None or upper is None:
            return
        if self.case == "C1":
            wrong = semiring.gt(lower, upper)
        elif self.case == "C2":
            wrong = semiring.gt(lower, upper.consistency())
        elif self.case == "C3":
            wrong = semiring.gt(lower.consistency(), upper)
        else:  # C4
            wrong = not constraint_leq(lower, upper)
        if wrong:
            raise CheckError(
                f"intrinsically wrong interval ({self.case}): lower "
                f"threshold is better than the upper one"
            )

    # ------------------------------------------------------------------
    # The check function of Fig. 3
    # ------------------------------------------------------------------

    def holds(
        self,
        store: Optional[ConstraintStore],
        consistency: Optional[Any] = None,
    ) -> bool:
        """``check(σ)_⇒`` — whether ``store`` satisfies both thresholds.

        ``consistency`` is ``σ⇓∅`` when the caller already knows it, e.g.
        the broker's candidate solve: ``blevel(P) = Sol(P)⇓∅`` for the
        SCSP whose constraints form σ.  Level thresholds are then judged
        against that value and never query the store, so a candidate is
        accepted exactly when the level it is signed at meets the
        interval — a second solve of the same store may fold the same
        floats in another order and disagree in the last bit.  ``store``
        may be ``None`` when no threshold is a constraint (case C1);
        constraint thresholds (C2–C4) always need the store, for
        ``refines``/``entails``.
        """
        if store is None:
            if self.case != "C1":
                raise CheckError(
                    f"case {self.case} compares a constraint threshold "
                    f"against the store; holds() needs the store"
                )
            if consistency is None and not (
                self.lower is None and self.upper is None
            ):
                raise CheckError(
                    "case C1: a level threshold needs the store or its "
                    "consistency σ⇓∅"
                )
        semiring = self.semiring

        if self.lower is not None:
            if isinstance(self.lower, SoftConstraint):
                # σ ⊒ φ1 — the store is at least as good as φ1.
                if not store.refines(self.lower):
                    return False
            else:
                if consistency is None:
                    consistency = store.consistency()
                # ¬(σ⇓∅ <S a1) — not worse than the worst acceptable.
                if semiring.lt(consistency, self.lower):
                    return False

        if self.upper is not None:
            if isinstance(self.upper, SoftConstraint):
                # σ ⊑ φ2 — the store is no better than φ2 (routed through
                # the store's memoized, solver-backed entailment).
                if not store.entails(self.upper):
                    return False
            else:
                if consistency is None:
                    consistency = store.consistency()
                # ¬(σ⇓∅ >S a2) — not better than the best allowed.
                if semiring.gt(consistency, self.upper):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        def show(threshold: Threshold) -> str:
            if threshold is None:
                return "·"
            if isinstance(threshold, SoftConstraint):
                return "φ"
            return repr(threshold)

        return f"→[{show(self.upper)}/{show(self.lower)}]({self.case})"


def unchecked(semiring: Semiring) -> CheckSpec:
    """The fully open arrow (paper's ``→^0_∞`` on Weighted): always true."""
    return CheckSpec(semiring, lower=None, upper=None)


def interval(semiring: Semiring, lower: Threshold, upper: Threshold) -> CheckSpec:
    """Sugar for ``CheckSpec(semiring, lower, upper)``."""
    return CheckSpec(semiring, lower=lower, upper=upper)
