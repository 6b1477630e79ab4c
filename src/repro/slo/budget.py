"""Per-dependency error-budget attribution.

An SLO target ``t`` leaves a total error budget of ``1 − t`` —
the unavailability a client has agreed to tolerate.  Each stage of the
composition consumes part of it: under serial composition the composite
unavailability is ``1 − ∏Rᵢ ≈ Σ(1 − Rᵢ)`` to first order, so a stage's
*share* is its own unavailability divided by the budget.  A stage
consuming more than :data:`DEFAULT_FLAG_SHARE` (30%) of the budget is
flagged high-risk — the signal the broker's matchmaking penalty feeds
on (see ``BrokerConfig(slo_penalty=…)``).

Shares are attributed per *stage* (direct child of the plan root, the
same granularity as :func:`~repro.slo.bounds.stage_bounds`): a
redundant group consumes budget as a group, not per replica.  The exact
composite is always reported alongside, so the first-order reading can
be sanity-checked; shares may legitimately sum past 1.0 — that *is* the
finding (the plan overspends its budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..soa.composition import AggregationRule, Plan
from ..telemetry import get_registry
from .bounds import (
    MULTIPLICATIVE_ATTRIBUTES,
    SLOError,
    composite_bound,
    stage_bounds,
)

#: A dependency eating more than this fraction of the client's error
#: budget is flagged high-risk.
DEFAULT_FLAG_SHARE = 0.30


def share_of(level: float, target: float) -> float:
    """Fraction of the ``1 − target`` budget a dependency at ``level``
    consumes on its own.  ``inf`` when the target leaves no budget at
    all but the dependency still fails sometimes."""
    if not 0.0 <= level <= 1.0:
        raise SLOError(f"level {level!r} is not a probability")
    if not 0.0 <= target <= 1.0:
        raise SLOError(f"target {target!r} is not a probability")
    unavailability = 1.0 - level
    budget = 1.0 - target
    if budget == 0.0:
        return math.inf if unavailability > 0.0 else 0.0
    return unavailability / budget


@dataclass(frozen=True)
class BudgetShare:
    """One stage's slice of the error budget."""

    stage: str
    services: Tuple[str, ...]
    level: float
    unavailability: float
    share: float
    flagged: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "services": list(self.services),
            "level": self.level,
            "unavailability": self.unavailability,
            "share": self.share,
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class ErrorBudget:
    """The full breakdown of ``1 − target`` across a plan's stages."""

    attribute: str
    target: float
    budget: float
    composite: float
    flag_share: float
    shares: Tuple[BudgetShare, ...]

    def flagged(self) -> Tuple[BudgetShare, ...]:
        return tuple(share for share in self.shares if share.flagged)

    @property
    def spent_share(self) -> float:
        """First-order total: Σ per-stage shares (may exceed 1.0)."""
        return sum(share.share for share in self.shares)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attribute": self.attribute,
            "target": self.target,
            "budget": self.budget,
            "composite": self.composite,
            "flag_share": self.flag_share,
            "spent_share": self.spent_share,
            "shares": [share.to_dict() for share in self.shares],
        }


def error_budget(
    plan: Plan,
    levels: Mapping[str, float],
    target: float,
    attribute: str = "availability",
    choose: str = "worst-case",
    rule: Optional[AggregationRule] = None,
    flag_share: float = DEFAULT_FLAG_SHARE,
) -> ErrorBudget:
    """Attribute the error budget of ``target`` across ``plan``'s stages.

    Only defined for probability-valued attributes (an additive cost has
    no "budget of nines" to slice).
    """
    if attribute not in MULTIPLICATIVE_ATTRIBUTES:
        raise SLOError(
            "error budgets are defined for probability-valued attributes "
            f"({', '.join(sorted(MULTIPLICATIVE_ATTRIBUTES))}), "
            f"not {attribute!r}"
        )
    if not 0.0 < target < 1.0:
        raise SLOError(
            f"target {target!r} leaves no meaningful error budget "
            "(need 0 < target < 1)"
        )
    if not 0.0 < flag_share <= 1.0:
        raise SLOError("flag_share must be in (0, 1]")
    budget = 1.0 - target
    shares = []
    for stage in stage_bounds(plan, levels, attribute, choose, rule):
        unavailability = 1.0 - stage.bound
        share = unavailability / budget
        shares.append(
            BudgetShare(
                stage=stage.label,
                services=stage.services,
                level=stage.bound,
                unavailability=unavailability,
                share=share,
                flagged=share > flag_share,
            )
        )
    breakdown = ErrorBudget(
        attribute=attribute,
        target=target,
        budget=budget,
        composite=composite_bound(plan, levels, attribute, choose, rule),
        flag_share=flag_share,
        shares=tuple(shares),
    )
    registry = get_registry()
    if registry.enabled and breakdown.flagged():
        registry.counter(
            "slo_budget_flags_total",
            "Stages flagged for consuming too much error budget.",
            labelnames=("attribute",),
        ).labels(attribute).inc(len(breakdown.flagged()))
    return breakdown
