"""Agreement oracle: numpy brute force over the joint domain.

For one session the broker must bind the semiring-best *accepted*
provider (Weighted: the lowest minimum cost whose level passes the
client's acceptance bound), ties going to the first provider in
service-id order, and sign an SLA whose ``resource_assignment`` attains
that level.  :func:`check` recomputes all of it from the raw cost
tensors, independently of the solver, the store and the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np


@dataclass
class Problem:
    """One session's joint cost tensor: ``costs[p]`` is provider ``p``'s
    offer ⊗ the client's requirements over every variable."""

    variables: Tuple[str, ...]
    domains: Tuple[Tuple[Any, ...], ...]
    providers: Tuple[str, ...]
    costs: np.ndarray
    #: Acceptance: worst tolerated cost (``None`` accepts any finite level).
    lower: Optional[float]

    def levels(self) -> np.ndarray:
        return self.costs.reshape(len(self.providers), -1).min(axis=1)

    def accepted(self) -> np.ndarray:
        levels = self.levels()
        if self.lower is None:
            return np.isfinite(levels)
        return levels <= self.lower


def check(
    problem: Problem,
    sla: Any,
    scheduler_independent: Optional[bool] = None,
    verify: bool = False,
) -> List[str]:
    """Every way ``sla`` disagrees with the brute force (empty = correct).

    With ``verify``, the nmsccp certificate must also be ``True``.
    """
    if sla is None:
        return ["no SLA signed"]
    levels = problem.levels()
    accepted = problem.accepted()
    if not accepted.any():
        return ["oracle finds no acceptable provider"]
    best = levels[accepted].min()
    winner = next(
        p for p in range(len(problem.providers))
        if accepted[p] and levels[p] == best
    )
    errors = []
    expected = (problem.providers[winner],)
    if tuple(sla.service_ids) != expected:
        errors.append(f"bound {sla.service_ids}, oracle picks {expected}")
    if sla.agreed_level != best:
        errors.append(f"agreed level {sla.agreed_level!r}, oracle {best!r}")
    try:
        position = tuple(
            domain.index(sla.resource_assignment[name])
            for name, domain in zip(problem.variables, problem.domains)
        )
    except (KeyError, ValueError) as exc:
        errors.append(f"assignment {sla.resource_assignment!r} invalid: {exc}")
    else:
        attained = problem.costs[winner][position]
        if attained != best:
            errors.append(
                f"assignment {sla.resource_assignment!r} costs {attained!r}, "
                f"not the level {best!r}"
            )
    if verify and scheduler_independent is not True:
        errors.append(
            f"scheduler_independent is {scheduler_independent!r}, not True"
        )
    return errors
