"""Fair allocation: step 4 for a round of concurrent sessions.

The broker's classic :meth:`~repro.soa.broker.Broker.negotiate` serves
each session in isolation — every client independently gets the
semiring-best provider, so under contention they all pile onto the same
"best" service and the queueing discount makes everyone worse off, the
last arrivals most of all.  :meth:`~repro.soa.broker.Broker.negotiate_round`
serves one coalesced **round** of concurrent sessions: the broker runs
steps 1–3 for each session and step 5 for each winner, and the round's
step 4 — *who gets whom* — is the broker's ``allocation_policy``:

* ``None`` (greedy) keeps the per-session argmax: each request runs
  ``negotiate`` in submission order, bit-identical agreements, with the
  round's :class:`AllocationInfo` annotation added.

* :class:`FairAllocation` replaces the per-session argmax with **one
  joint SCSP per round**: a selection variable per client (domain: its
  accepted candidates) under a single joint constraint valued in the
  lexicographic composite ``Lex[Fuzzy, Probabilistic]`` —
  ⟨min per-client satisfaction, total welfare⟩.  Maximizing that order
  first lifts the worst-off client (the egalitarian objective), then
  breaks ties by the utilitarian product.  This is the paper's
  "cartesian product of c-semirings is still a c-semiring" machinery
  applied to fairness: the composite lowers through the same solver
  kernels as any scalar semiring (see ``repro.solver.kernels``), and
  the policy evaluates the joint objective the same way — stacked
  ndarray planes over the candidate cross-product with a vectorized
  lex argmax.

Contention is modelled by a rank discount: the ``k``-th session a
provider accepts within a round realizes ``satisfaction · γ^k``
(``γ =`` :data:`CONGESTION_GAMMA` ``= 0.9``) — a queue-position
penalty, so spreading load across providers is visible to the
objective rather than assumed.

Satisfaction is the semiring level mapped onto ``[0, 1]`` by
:func:`satisfaction_score`; for fuzzy/probabilistic levels it *is* the
level, so the fair objective optimizes the same quantity the SLAs
record.  Signing is the broker's own step 5, so SLAs, bus journal
entries, events and outcome counters look exactly like the per-session
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from ..semirings import (
    BooleanSemiring,
    BoundedWeightedSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    WeightedSemiring,
)
from ..semirings.base import Semiring
from ..telemetry import get_registry
from .broker import CandidateEvaluation, NegotiationResult, _Member

#: Queue-position discount: the k-th session a provider accepts in one
#: round realizes ``satisfaction * CONGESTION_GAMMA**k``.
CONGESTION_GAMMA = 0.9

#: Fair rounds larger than this are allocated cohort-by-cohort (the
#: joint table is exponential in cohort size: ``candidates**cohort``
#: rows); provider loads carry across cohorts so later cohorts still
#: steer around providers earlier ones filled.
DEFAULT_JOINT_LIMIT = 8

#: Hard ceiling on the joint table a single cohort may enumerate
#: (``∏ candidates`` rows); cohorts are packed adaptively so the product
#: never exceeds it even before ``joint_limit`` members are reached.
#: Because provider loads carry across cohorts, fairness is insensitive
#: to the cap (measured identical from ``2**10`` through ``2**18`` on
#: the contention market) while solve time is linear in it, so it is
#: kept small enough that a round's dense solve stays in the
#: low-millisecond range.
MAX_JOINT_ROWS = 1 << 12

#: Round-size histogram buckets: powers of two up to the default
#: `--batch-max` (32) and one step past it.
ROUND_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class AllocationError(Exception):
    """Raised on unusable policy configuration."""


@dataclass
class AllocationInfo:
    """Round metadata attached to every result served in a round.

    Diagnostics only — never consulted when signing.  ``rank`` is the
    session's queue position on its provider within the round (0 =
    first), ``provider_load`` the provider's total sessions this round,
    ``satisfaction`` the undiscounted score of the agreed level and
    ``realized_satisfaction`` the same after the ``γ^rank`` congestion
    discount — the quantity Jain's index is computed over.
    """

    policy: str
    round_id: int
    round_size: int
    provider: str = ""
    provider_load: int = 0
    rank: int = 0
    satisfaction: float = 0.0
    realized_satisfaction: float = 0.0


def satisfaction_score(semiring: Semiring, level: Any) -> float:
    """Map a semiring level onto a ``[0, 1]`` satisfaction score.

    Fuzzy/probabilistic levels already live there; boolean maps to the
    endpoints; weighted costs go through ``1 / (1 + cost)`` (``+∞`` →
    0); bounded-weighted normalizes by the cap; composites take the
    worst component.  Monotone in the semiring order for every built-in
    total order, so a greedier level never scores lower.
    """
    if isinstance(semiring, BooleanSemiring):
        return 1.0 if level else 0.0
    if isinstance(semiring, BoundedWeightedSemiring):
        cost = min(float(level), semiring.cap)
        return 1.0 - cost / semiring.cap if semiring.cap > 0 else 0.0
    if isinstance(semiring, WeightedSemiring):
        cost = float(level)
        if math.isinf(cost):
            return 0.0
        return 1.0 / (1.0 + max(0.0, cost))
    if isinstance(semiring, (FuzzySemiring, ProbabilisticSemiring)):
        return min(1.0, max(0.0, float(level)))
    if isinstance(semiring, (ProductSemiring, LexicographicSemiring)):
        scores = [
            satisfaction_score(component, value)
            for component, value in zip(semiring.components, level)
        ]
        return min(scores) if scores else 0.0
    # Unknown semirings: only the lattice endpoints are interpretable.
    if semiring.equiv(level, semiring.zero):
        return 0.0
    if semiring.equiv(level, semiring.one):
        return 1.0
    return 0.5


class FairAllocation:
    """Step 4 of a round: joint max-min allocation via one
    lexicographic SCSP per cohort.

    Per cohort (at most ``joint_limit`` surviving sessions, joint table
    capped at :data:`MAX_JOINT_ROWS` rows), one selection per client
    over its accepted candidates; each joint choice is valued in
    ``Lex[Fuzzy, Probabilistic]`` as ⟨min realized satisfaction,
    product of realized satisfactions⟩, with the ``γ^rank`` queue
    discount applied per provider in submission order.  The problem has
    a single joint objective, so the optimum is exact despite
    lexicographic composition not distributing over ``+`` in general
    (see the pinned counterexample in the law tests).  Provider loads
    persist across cohorts and rounds start them at zero.  The objective
    is lowered onto stacked ndarray planes and maximized by a vectorized
    lex argmax over the joint table.
    """

    name = "fair"

    def __init__(self, joint_limit: int = DEFAULT_JOINT_LIMIT) -> None:
        if joint_limit < 1:
            raise AllocationError(
                f"joint_limit must be at least 1, got {joint_limit}"
            )
        self.joint_limit = joint_limit

    def choose(self, members: List[_Member]) -> List[CandidateEvaluation]:
        """Each member's winner, in order: cohort-by-cohort max-min
        assignment with provider loads carried forward."""
        chosen: List[CandidateEvaluation] = []
        loads: Dict[str, int] = {}
        for cohort in self._pack_cohorts(members):
            for evaluation in self._solve_cohort(cohort, loads):
                chosen.append(evaluation)
                provider = evaluation.description.provider
                loads[provider] = loads.get(provider, 0) + 1
        return chosen

    def _pack_cohorts(
        self, members: List[_Member]
    ) -> List[List[_Member]]:
        """Split a round into cohorts of at most ``joint_limit`` members
        whose joint table (``∏ candidates`` rows) stays under
        :data:`MAX_JOINT_ROWS` — the enumeration is exponential in
        cohort size, so the packer trades cohort width for bounded
        work.  Submission order is preserved."""
        cohorts: List[List[_Member]] = []
        current: List[_Member] = []
        rows = 1
        for member in members:
            width = max(1, len(member.accepted))
            if current and (
                len(current) >= self.joint_limit
                or rows * width > MAX_JOINT_ROWS
            ):
                cohorts.append(current)
                current, rows = [], 1
            current.append(member)
            rows *= width
        if current:
            cohorts.append(current)
        return cohorts

    def _solve_cohort(
        self, cohort: List[_Member], loads: Dict[str, int]
    ) -> List[CandidateEvaluation]:
        """Who gets which provider in this cohort.

        The joint objective is evaluated as stacked ndarray planes — one
        score/provider plane per member broadcast over the full
        candidate cross-product, ranks by a prefix equality fold, lex
        argmax at the end — the same lowering philosophy
        :mod:`repro.solver.kernels` applies to composite constraints,
        and ~20× faster than enumerating the objective in Python.  The
        policy tests pin it against the reference formulation (one
        function constraint valued in ``Lex[Fuzzy, Probabilistic]``
        handed to :func:`repro.solver.solve`).
        """
        codes: Dict[str, int] = {}
        member_scores: List[np.ndarray] = []
        member_providers: List[np.ndarray] = []
        for member in cohort:
            member_scores.append(
                np.array(
                    [
                        satisfaction_score(member.semiring, e.blevel)
                        for e in member.accepted
                    ],
                    dtype=np.float64,
                )
            )
            member_providers.append(
                np.array(
                    [
                        codes.setdefault(
                            e.description.provider, len(codes)
                        )
                        for e in member.accepted
                    ],
                    dtype=np.int64,
                )
            )
        base = np.zeros(len(codes), dtype=np.float64)
        for provider, count in loads.items():
            if provider in codes:
                base[codes[provider]] = float(count)

        grids = np.meshgrid(
            *[np.arange(len(s)) for s in member_scores], indexing="ij"
        )
        choices = np.stack([g.reshape(-1) for g in grids], axis=1)
        width = len(cohort)
        scores = np.stack(
            [
                member_scores[j][choices[:, j]]
                for j in range(width)
            ],
            axis=1,
        )
        providers = np.stack(
            [
                member_providers[j][choices[:, j]]
                for j in range(width)
            ],
            axis=1,
        )
        # rank[:, j] = carried load + how many earlier members in the
        # same row picked the same provider (the queue position a
        # member takes when the row is walked in submission order).
        ranks = np.empty_like(scores)
        for j in range(width):
            prior = (
                (providers[:, :j] == providers[:, j : j + 1]).sum(axis=1)
                if j
                else 0
            )
            ranks[:, j] = base[providers[:, j]] + prior
        realized = scores * np.power(CONGESTION_GAMMA, ranks)
        worst = realized.min(axis=1)
        welfare = realized.prod(axis=1)
        # Lex argmax, ties by exact float equality (the Lex tie rule).
        tied = np.flatnonzero(worst == worst.max())
        best = tied[np.argmax(welfare[tied])]
        return [
            cohort[j].accepted[int(choices[best, j])]
            for j in range(width)
        ]


def record_round(
    results: Sequence[NegotiationResult], policy: str, round_id: int
) -> None:
    """Attach per-result :class:`AllocationInfo` (rank, discount, load)
    and count the round."""
    loads: Dict[str, int] = {}
    for result in results:
        info = AllocationInfo(
            policy=policy, round_id=round_id, round_size=len(results)
        )
        result.allocation = info
        if not result.success or result.sla is None:
            continue
        provider = result.sla.providers[0]
        rank = loads.get(provider, 0)
        loads[provider] = rank + 1
        info.provider = provider
        info.rank = rank
        info.satisfaction = satisfaction_score(
            result.sla.semiring, result.sla.agreed_level
        )
        info.realized_satisfaction = info.satisfaction * CONGESTION_GAMMA**rank
    for result in results:
        info = result.allocation
        if info is not None and info.provider:
            info.provider_load = loads[info.provider]

    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "soa_allocation_rounds_total",
        "Allocation rounds dispatched, by policy.",
        labelnames=("policy",),
    ).labels(policy).inc()
    registry.histogram(
        "soa_allocation_round_size",
        "Sessions allocated per round.",
        buckets=ROUND_SIZE_BUCKETS,
    ).observe(float(len(results)))
