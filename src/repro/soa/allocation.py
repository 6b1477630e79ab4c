"""Allocation policies: the multi-client seam of the negotiation pipeline.

The broker's classic :meth:`~repro.soa.broker.Broker.negotiate` serves
each session in isolation — every client independently gets the
semiring-best provider, so under contention they all pile onto the same
"best" service and the queueing discount makes everyone worse off, the
last arrivals most of all.  This module factors the *who-gets-whom*
decision out of the per-session steps into an :class:`AllocationPolicy`
that sees one coalesced **round** of concurrent sessions at a time:

* :class:`GreedyAllocation` replays the legacy behaviour — each request
  runs the unchanged five-step negotiation in submission order.  Its
  agreements are bit-identical to ``Broker.negotiate``; the only
  addition is the :class:`AllocationInfo` annotation on each result.

* :class:`FairAllocation` runs steps 1–3 per session as usual (registry
  search, per-candidate SCSP evaluation, acceptance filtering) but
  replaces the per-session argmax of step 4 with **one joint SCSP per
  round**: a selection variable per client (domain: its accepted
  candidates) under a single :class:`FunctionConstraint` valued in the
  lexicographic composite ``Lex[Fuzzy, Probabilistic]`` —
  ⟨min per-client satisfaction, total welfare⟩.  Maximizing that order
  first lifts the worst-off client (the egalitarian objective), then
  breaks ties by the utilitarian product.  This is the paper's
  "cartesian product of c-semirings is still a c-semiring" machinery
  applied to fairness: the composite lowers through the same solver
  kernels as any scalar semiring (see ``repro.solver.kernels``), and
  the default ``joint_solver="dense"`` evaluates the joint objective
  the same way — stacked ndarray planes over the candidate
  cross-product with a vectorized lex argmax (``"scsp"`` keeps the
  FunctionConstraint-through-``solve()`` reference formulation).

Contention is modelled by a rank discount: the ``k``-th session a
provider accepts within a round realizes ``satisfaction · γ^k``
(``γ = 0.9`` by default) — a queue-position penalty, so spreading load
across providers is visible to the objective rather than assumed.

Satisfaction is the semiring level mapped onto ``[0, 1]`` by
:func:`satisfaction_score`; for fuzzy/probabilistic levels it *is* the
level, so the fair objective optimizes the same quantity the SLAs
record.  Signing (step 5) is unchanged — :class:`FairAllocation` reuses
the broker's ``_confirm``/``_sign`` so SLAs, bus journal entries,
events and outcome counters look exactly like the per-session path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..constraints.constraint import FunctionConstraint
from ..constraints.variables import Variable
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
from ..solver import SCSP, solve
from ..telemetry import get_events, get_registry
from .broker import Broker, CandidateEvaluation, ClientRequest, NegotiationResult

#: Queue-position discount: the k-th session a provider accepts in one
#: round realizes ``satisfaction * GAMMA**k``.
DEFAULT_CONGESTION_GAMMA = 0.9

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
    """Round metadata attached to every result served through a policy.

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


class AllocationPolicy:
    """How one round of coalesced sessions is matched to providers."""

    name = "policy"

    def allocate(
        self,
        broker: Broker,
        requests: Sequence[ClientRequest],
        verify: bool = False,
        round_id: int = 0,
    ) -> List[NegotiationResult]:
        """Serve ``requests`` and return results in submission order."""
        raise NotImplementedError


class GreedyAllocation(AllocationPolicy):
    """Legacy semantics behind the policy seam.

    Each session runs the broker's unchanged five-step negotiation in
    submission order — agreements are bit-identical to calling
    :meth:`Broker.negotiate` directly; results additionally carry the
    round's :class:`AllocationInfo` so greedy and fair markets report
    the same fairness telemetry.
    """

    name = "greedy"

    def __init__(self, gamma: float = DEFAULT_CONGESTION_GAMMA) -> None:
        self.gamma = gamma

    def allocate(
        self,
        broker: Broker,
        requests: Sequence[ClientRequest],
        verify: bool = False,
        round_id: int = 0,
    ) -> List[NegotiationResult]:
        results = [
            broker.negotiate(request, verify) for request in requests
        ]
        _annotate_round(results, self.name, round_id, self.gamma)
        _observe_round(self.name, len(results))
        return results


@dataclass
class _Member:
    """One surviving session of a fair round, steps 1–3 done."""

    index: int
    request: ClientRequest
    semiring: Semiring
    evaluations: List[CandidateEvaluation]
    accepted: List[CandidateEvaluation]
    chosen: Optional[CandidateEvaluation] = None


class FairAllocation(AllocationPolicy):
    """Joint max-min allocation via one lexicographic SCSP per round.

    Per cohort (at most ``joint_limit`` surviving sessions, joint table
    capped at :data:`MAX_JOINT_ROWS` rows), one selection per client
    over its accepted candidates; each joint choice is valued in
    ``Lex[Fuzzy, Probabilistic]`` as ⟨min realized satisfaction,
    product of realized satisfactions⟩, with the ``γ^rank`` queue
    discount applied per provider in submission order.  The problem has
    a single joint objective, so the optimum is exact despite
    lexicographic composition not distributing over ``+`` in general
    (see the pinned counterexample in the law tests).  Provider loads
    persist across cohorts and rounds start them at zero.

    ``joint_solver`` picks the evaluation engine: ``"dense"`` (default)
    lowers the objective onto stacked ndarray planes and takes a
    vectorized lex argmax; ``"scsp"`` is the reference formulation —
    one :class:`FunctionConstraint` per cohort handed to
    :func:`repro.solver.solve`.  Identical optima, ~20× apart in cost.
    """

    name = "fair"

    def __init__(
        self,
        gamma: float = DEFAULT_CONGESTION_GAMMA,
        joint_limit: int = DEFAULT_JOINT_LIMIT,
        joint_solver: str = "dense",
    ) -> None:
        if not 0.0 < gamma <= 1.0:
            raise AllocationError(
                f"congestion gamma must be in (0, 1], got {gamma}"
            )
        if joint_limit < 1:
            raise AllocationError(
                f"joint_limit must be at least 1, got {joint_limit}"
            )
        if joint_solver not in ("dense", "scsp"):
            raise AllocationError(
                f"unknown joint_solver {joint_solver!r}; "
                "known: dense, scsp"
            )
        self.gamma = gamma
        self.joint_limit = joint_limit
        self.joint_solver = joint_solver
        self.objective_semiring = LexicographicSemiring(
            [FuzzySemiring(), ProbabilisticSemiring()]
        )

    def allocate(
        self,
        broker: Broker,
        requests: Sequence[ClientRequest],
        verify: bool = False,
        round_id: int = 0,
    ) -> List[NegotiationResult]:
        results: List[Optional[NegotiationResult]] = [None] * len(requests)

        # Steps 1–3 per session, exactly as the legacy path runs them.
        members: List[_Member] = []
        for index, request in enumerate(requests):
            semiring = request.resolved_semiring()
            broker._post(
                request.client, "negotiate-request", request.operation
            )
            candidates = broker.registry.find(
                operation=request.operation,
                requires_attribute=request.attribute,
            )
            broker._post(broker.name, "registry-query", len(candidates))
            if not candidates:
                results[index] = NegotiationResult(
                    request,
                    success=False,
                    sla=None,
                    evaluations=[],
                    detail=f"no provider offers {request.operation!r} "
                    f"with {request.attribute!r}",
                )
                continue
            evaluations = broker._evaluate_candidates(
                candidates, request, semiring
            )
            accepted = [e for e in evaluations if e.accepted]
            if not accepted:
                broker._post(broker.name, "negotiate-reject", request.client)
                results[index] = NegotiationResult(
                    request,
                    success=False,
                    sla=None,
                    evaluations=evaluations,
                    detail="no candidate satisfies the client's "
                    "acceptance interval",
                )
                continue
            members.append(
                _Member(index, request, semiring, evaluations, accepted)
            )

        # Step 4, jointly: cohort-by-cohort max-min assignment with
        # provider loads carried forward.
        loads: Dict[str, int] = {}
        for cohort in self._pack_cohorts(members):
            for member, evaluation in zip(
                cohort, self._solve_cohort(broker, cohort, loads, round_id)
            ):
                member.chosen = evaluation
                provider = evaluation.description.provider
                loads[provider] = loads.get(provider, 0) + 1

        # Step 5 per session, in submission order — same confirmation,
        # clock, bus and event traffic as the legacy path.
        for member in members:
            evaluation = member.chosen
            assert evaluation is not None
            outcome = (
                broker._confirm(evaluation, member.request, member.semiring)
                if verify
                else None
            )
            if outcome is not None and not outcome.success:
                results[member.index] = NegotiationResult(
                    member.request,
                    success=False,
                    sla=None,
                    evaluations=member.evaluations,
                    outcome=outcome,
                    detail="nmsccp confirmation run failed",
                )
                continue
            sla = broker._sign(
                evaluation, member.request, member.semiring, broker._tick()
            )
            broker._post(broker.name, "sla-created", sla.sla_id)
            get_events().emit(
                "broker.sla-created",
                sla_id=sla.sla_id,
                client=member.request.client,
                provider=evaluation.description.provider,
                service_id=evaluation.description.service_id,
                attribute=member.request.attribute,
            )
            results[member.index] = NegotiationResult(
                member.request,
                success=True,
                sla=sla,
                evaluations=member.evaluations,
                outcome=outcome,
                detail=f"bound to {evaluation.description.service_id!r}",
            )

        final = [result for result in results if result is not None]
        for result in final:
            broker._count_request(result)
        _annotate_round(final, self.name, round_id, self.gamma)
        _observe_round(self.name, len(final))
        return final

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
        self,
        broker: Broker,
        cohort: List[_Member],
        loads: Dict[str, int],
        round_id: int,
    ) -> List[CandidateEvaluation]:
        """Who gets which provider in this cohort.

        ``joint_solver="dense"`` (the default) evaluates the joint
        objective as stacked ndarray planes — one score/provider plane
        per member broadcast over the full candidate cross-product,
        ranks by a prefix equality fold, lex argmax at the end — the
        same lowering philosophy :mod:`repro.solver.kernels` applies to
        composite constraints, and ~20× faster than enumerating the
        objective in Python.  ``joint_solver="scsp"`` keeps the
        reference formulation: one :class:`FunctionConstraint` valued
        in ``Lex[Fuzzy, Probabilistic]`` handed to
        :func:`repro.solver.solve`.  Both optimize the identical
        ⟨worst, welfare⟩ objective; the policy tests pin the agreement.
        """
        if self.joint_solver == "dense":
            return self._solve_cohort_dense(cohort, loads)
        return self._solve_cohort_scsp(broker, cohort, loads, round_id)

    def _solve_cohort_dense(
        self, cohort: List[_Member], loads: Dict[str, int]
    ) -> List[CandidateEvaluation]:
        """Vectorized exhaustive lex argmax over the joint table."""
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
        # same row picked the same provider (the queue position the
        # scsp objective computes by walking the row).
        ranks = np.empty_like(scores)
        for j in range(width):
            prior = (
                (providers[:, :j] == providers[:, j : j + 1]).sum(axis=1)
                if j
                else 0
            )
            ranks[:, j] = base[providers[:, j]] + prior
        realized = scores * np.power(self.gamma, ranks)
        worst = realized.min(axis=1)
        welfare = realized.prod(axis=1)
        # Lex argmax, ties by exact float equality (the Lex tie rule).
        tied = np.flatnonzero(worst == worst.max())
        best = tied[np.argmax(welfare[tied])]
        return [
            cohort[j].accepted[int(choices[best, j])]
            for j in range(width)
        ]

    def _solve_cohort_scsp(
        self,
        broker: Broker,
        cohort: List[_Member],
        loads: Dict[str, int],
        round_id: int,
    ) -> List[CandidateEvaluation]:
        """One joint SCSP: the reference formulation through the solver."""
        variables: List[Variable] = []
        scores: List[Dict[str, float]] = []
        by_id: List[Dict[str, CandidateEvaluation]] = []
        providers: Dict[str, str] = {}
        for position, member in enumerate(cohort):
            ids = tuple(
                e.description.service_id for e in member.accepted
            )
            variables.append(Variable(f"alloc{position}", ids))
            scores.append(
                {
                    e.description.service_id: satisfaction_score(
                        member.semiring, e.blevel
                    )
                    for e in member.accepted
                }
            )
            by_id.append(
                {e.description.service_id: e for e in member.accepted}
            )
            for e in member.accepted:
                providers[e.description.service_id] = e.description.provider

        gamma = self.gamma
        base_loads = dict(loads)

        def objective(*chosen: str) -> tuple:
            counts = dict(base_loads)
            worst = 1.0
            welfare = 1.0
            for position, service_id in enumerate(chosen):
                provider = providers[service_id]
                rank = counts.get(provider, 0)
                counts[provider] = rank + 1
                realized = scores[position][service_id] * gamma**rank
                if realized < worst:
                    worst = realized
                welfare *= realized
            return (worst, welfare)

        constraint = FunctionConstraint(
            self.objective_semiring,
            variables,
            objective,
            name=f"fair-round-{round_id}",
        )
        problem = SCSP([constraint], name=f"fair-round-{round_id}")
        result = solve(problem, backend=broker.solver_backend)
        assignment = result.best_assignment
        assert assignment is not None
        return [
            by_id[position][assignment[f"alloc{position}"]]
            for position in range(len(cohort))
        ]


def resolve_allocation_policy(policy: Any) -> AllocationPolicy:
    """Coerce a policy name or instance into an :class:`AllocationPolicy`."""
    if isinstance(policy, AllocationPolicy):
        return policy
    if isinstance(policy, str):
        key = policy.strip().lower()
        if key == "greedy":
            return GreedyAllocation()
        if key == "fair":
            return FairAllocation()
        raise AllocationError(
            f"unknown allocation policy {policy!r}; known policies: "
            "greedy, fair"
        )
    raise AllocationError(
        "allocation policy must be a name or an AllocationPolicy, got "
        f"{type(policy).__name__}"
    )


def _annotate_round(
    results: Sequence[NegotiationResult],
    policy: str,
    round_id: int,
    gamma: float,
) -> None:
    """Attach per-result :class:`AllocationInfo` (rank, discount, load)."""
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
        info.realized_satisfaction = info.satisfaction * gamma**rank
    for result in results:
        info = result.allocation
        if info is not None and info.provider:
            info.provider_load = loads[info.provider]


def _observe_round(policy: str, size: int) -> None:
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
    ).observe(float(size))
