"""The QoS/dependability broker-orchestrator (paper Sec. 4, Fig. 6).

The broker sits between clients and providers, hosts the soft-constraint
solver, and carries out the five computation steps of the paper:

1. the client requests a binding, stating the required QoS;
2. the broker searches the UDDI registry for providers;
3. the broker performs QoS negotiation (nmsccp agents on its store);
4. offered vs required QoS are compared to determine an agreed QoS;
5. on success, an SLA binding is created and both parties informed.

Selection solves client requirement ⊗ provider offer per candidate
against the market plan (:mod:`repro.soa.market`: the published offers,
compiled once per registry version), one stacked scan per topology
group, and keeps the semiring-best; composition introduces one selection
variable per pipeline slot and solves for the best provider tuple under
the per-attribute aggregation rules.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..caching import LRUCache
from ..config import SHARE, BatchConfig, Config, knob, subtree
from ..constraints.constraint import FunctionConstraint, SoftConstraint
from ..telemetry import get_events, get_registry, get_tracer
from ..constraints.operations import combine
from ..constraints.store import empty_store
from ..constraints.variables import Variable
from ..semirings.base import Semiring
from ..sccp.check import CheckSpec
from ..solver import SCSP, Requirement, SolveCache, solve
from .composition import (
    AGGREGATION_RULES,
    AggregationRule,
    Choose,
    Invoke,
    Pipeline,
    Plan,
    Split,
)
from .market import MarketPlan
from .messages import MessageBus
from .negotiation import NegotiationOutcome, Party, negotiate
from .qos import compile_document, resolve_attribute
from .registry import ServiceRegistry
from .service import ServiceDescription
from .sla import SLA, SLARepository

#: Market plans kept per broker (operation × attribute × semiring).
_PLAN_MEMO_SIZE = 64


class BrokerError(Exception):
    """Raised on unanswerable requests (no providers, no attribute, …)."""


@dataclass(frozen=True)
class BrokerConfig(Config):
    """Knobs of one broker: everything, besides the request and the
    market, that decides which agreement it signs."""

    error = BrokerError

    solve_cache: bool = knob(
        True,
        flag="--solve-cache",
        help="memoize broker solves under a canonical problem fingerprint",
    )
    #: The allocation-round window (used with ``allocation_policy``).
    rounds: BatchConfig = subtree(BatchConfig)
    allocation_policy: Optional[str] = knob(
        None,
        choices=("greedy", "fair"),
        optional=True,
        flag="--allocation-policy",
        help="serve sessions through coalesced allocation rounds: "
        "greedy replays per-session agreements exactly, fair solves "
        "one joint lexicographic ⟨min satisfaction, welfare⟩ SCSP "
        "per round (default: legacy per-session path)",
    )
    #: Error-budget-aware selection: a flag share, ``None`` = off.
    slo_penalty: Optional[float] = knob(None, range=SHARE, optional=True)


@dataclass
class ClientRequest:
    """Step 1: a binding request with its required QoS.

    ``requirements`` are soft constraints over shared resource variables;
    ``acceptance`` is the client's checked interval on the merged store
    (``None`` accepts any consistent agreement).
    """

    client: str
    operation: str
    attribute: str
    requirements: List[SoftConstraint] = field(default_factory=list)
    acceptance: Optional[CheckSpec] = None
    semiring: Optional[Semiring] = None

    def resolved_semiring(self) -> Semiring:
        if self.semiring is not None:
            return self.semiring
        if self.requirements:
            return self.requirements[0].semiring
        return resolve_attribute(self.attribute).semiring()


@dataclass
class CandidateEvaluation:
    """Step 4 for one provider: offered ⊗ required, solved."""

    description: ServiceDescription
    blevel: Any
    accepted: bool
    best_assignment: Optional[Dict[str, Any]]

    @property
    def provider(self) -> str:
        return self.description.provider


@dataclass
class _Member:
    """A session past steps 1–3 with at least one accepted candidate:
    what step 4 chooses among.  ``index`` is its position in its
    allocation round (0 outside one)."""

    request: ClientRequest
    semiring: Semiring
    evaluations: List[CandidateEvaluation]
    accepted: List[CandidateEvaluation]
    index: int = 0


@dataclass
class NegotiationResult:
    """The broker's answer to a client request."""

    request: ClientRequest
    success: bool
    sla: Optional[SLA]
    evaluations: List[CandidateEvaluation]
    outcome: Optional[NegotiationOutcome] = None
    detail: str = ""
    #: Round metadata (:class:`~repro.soa.allocation.AllocationInfo`)
    #: attached when the session was served through an allocation policy;
    #: ``None`` on the legacy per-session path.  Never affects the SLA.
    allocation: Any = None

    @property
    def chosen(self) -> Optional[CandidateEvaluation]:
        if self.sla is None:
            return None
        for evaluation in self.evaluations:
            if evaluation.description.service_id in self.sla.service_ids:
                return evaluation
        return None


@dataclass
class ParetoPoint:
    """One nondominated offer: a candidate, its product-valued level and
    the resource assignment achieving it."""

    description: ServiceDescription
    level: Tuple[Any, ...]
    assignment: Dict[str, Any]

    @property
    def provider(self) -> str:
        return self.description.provider


@dataclass
class MulticriteriaResult:
    """The Pareto frontier of a joint multi-attribute negotiation."""

    client: str
    operation: str
    attributes: Tuple[str, ...]
    frontier: List[ParetoPoint]
    semiring: Any

    @property
    def satisfiable(self) -> bool:
        return bool(self.frontier)

    def providers(self) -> List[str]:
        return sorted({point.provider for point in self.frontier})

    def dominated_by_frontier(self, level: Tuple[Any, ...]) -> bool:
        """Whether ``level`` is strictly worse than some frontier point."""
        return any(
            self.semiring.gt(point.level, level) for point in self.frontier
        )


class Broker:
    """The negotiation orchestrator with an embedded SCSP solver.

    Step 3 (:meth:`_evaluate_candidates`) reads the market plan of the
    request's operation (:class:`~repro.soa.market.MarketPlan`): every
    published offer compiled, grouped by constraint topology and, where
    the semiring lowers, stacked, once per registry version.  The
    session's requirements are solved against each stacked group's
    admitted members in one call (a stacked scan, or a group search
    when the joint table exceeds
    :data:`~repro.solver.stacked.STACK_LIMIT`), bit-identical to
    per-candidate branch & bound; a candidate of an unstacked group is
    solved on its own.

    The broker's knobs are its :class:`BrokerConfig`.  ``solve_cache``
    (on by default) memoizes candidate solves, one entry per stacked
    group or per candidate, under a canonical key over the bytes the
    solve reads, so a market's repeated negotiations hit warm entries
    instead of re-running the solver.  Solves take the solver's
    automatic factor representation (dense kernels whenever the semiring
    lowers, see :mod:`repro.solver.kernels`).  Acceptance intervals with
    a constraint threshold (cases C2–C4) tell the candidate's factors
    into a :class:`~repro.constraints.store.ConstraintStore`; level
    thresholds read the candidate solve's blevel and build no store.
    ``allocation_policy`` (``"greedy"``/``"fair"``) gives the broker a
    ``rounds`` scheduler that a serving layer awaits to coalesce
    concurrent sessions into allocation rounds (:meth:`negotiate_round`) —
    ``greedy`` reproduces :meth:`negotiate`'s per-session agreements
    exactly, ``fair`` solves one joint SCSP per round over the
    lexicographic ⟨min client satisfaction, total welfare⟩ objective.
    ``None`` (the default) serves each session on its own.  The
    ``allocation_policy`` attribute is the round's step 4: a
    :class:`~repro.soa.allocation.FairAllocation`, or ``None`` for
    greedy; assign another instance to swap it.

    ``slo_penalty`` (default ``None`` = off, matchmaking bit-identical
    to before the SLO analytics existed) turns on error-budget-aware
    selection: a flag share in ``(0, 1]``.  When the client's acceptance
    interval states a probability lower bound, step 4 computes each
    accepted candidate's share of the client's error budget
    (:func:`repro.slo.share_of`) and prefers the semiring-best candidate
    whose share stays within the flag share; only when every candidate
    overspends does the unpenalized best win (availability over a
    rejection).
    """

    ENDPOINT = "broker"

    def __init__(
        self,
        registry: ServiceRegistry,
        config: Optional[BrokerConfig] = None,
        bus: Optional[MessageBus] = None,
        name: str = "broker",
    ) -> None:
        self.registry = registry
        self.config = config or BrokerConfig()
        self.bus = bus
        self.name = name
        self.slas = SLARepository()
        self.solve_cache: Optional[SolveCache] = (
            SolveCache() if self.config.solve_cache else None
        )
        self.allocation_policy = None
        self.rounds = None
        if self.config.allocation_policy is not None:
            # Deferred imports: both modules import this one.
            from ..runtime.batching import RoundScheduler
            from .allocation import FairAllocation

            if self.config.allocation_policy == "fair":
                self.allocation_policy = FairAllocation()
            self.rounds = RoundScheduler(self.config.rounds)
        #: (operation, attribute, semiring) → the market plan of the
        #: registry version it was compiled at.
        self._plans = LRUCache(
            _PLAN_MEMO_SIZE, name="market-plans", threadsafe=True
        )
        #: SLA timestamps: every session takes one tick, atomically, and
        #: signs with it (``next`` on a count is atomic under the GIL).
        self._ticks = itertools.count(1)
        if bus is not None:
            bus.register(self.ENDPOINT)

    def _tick(self) -> int:
        """The next SLA timestamp, taken once per session."""
        return next(self._ticks)

    def _solve(self, problem: SCSP, **options) -> Any:
        """One SCSP solve through the broker's cache."""
        return solve(problem, cache=self.solve_cache, **options)

    def _market(
        self, operation: str, attribute: str, semiring: Semiring
    ) -> MarketPlan:
        """The market plan of ``operation`` at the registry's current
        version, compiled afresh after any publish, unpublish or lease
        expiry."""
        key = (operation, attribute, semiring)
        plan = self._plans.get(key)
        if plan is None or plan.version != self.registry.version:
            plan = MarketPlan(self.registry, operation, attribute, semiring)
            self._plans.put(key, plan)
        return plan

    def _offer_level(
        self,
        description: ServiceDescription,
        attribute: str,
        semiring: Semiring,
    ) -> Any:
        """A service's best achievable level for ``attribute`` (its
        scalar offer): the compiled offer alone, solved."""
        constraints = self._market(
            description.interface.operation, attribute, semiring
        ).offer(description)
        if not constraints:
            raise BrokerError(
                f"service {description.service_id!r} offers no "
                f"{attribute!r} QoS"
            )
        problem = SCSP(constraints, name=description.service_id)
        return self._solve(problem).blevel

    # ------------------------------------------------------------------
    # Single-service selection (steps 1–5)
    # ------------------------------------------------------------------

    def negotiate(
        self,
        request: ClientRequest,
        verify_scheduler_independence: bool = False,
    ) -> NegotiationResult:
        """Select the semiring-best provider for one operation.

        Each of the paper's five computation steps (Fig. 6) runs under
        its own telemetry span, all children of one ``broker.request``
        root; the result outcome is counted per class.
        """
        tracer = get_tracer()
        with tracer.span(
            "broker.request",
            client=request.client,
            operation=request.operation,
            attribute=request.attribute,
        ):
            tick = self._tick()
            result = self._steps_1_to_3(request, tracer)
            if isinstance(result, _Member):
                member = result
                # Step 4: offered vs required QoS determine the agreed QoS.
                with tracer.span(
                    "broker.step4-compare", accepted=len(member.accepted)
                ):
                    best = self._select_best(
                        member.accepted, request, member.semiring
                    )
                    outcome = self._confirm(
                        best, request, member.semiring
                    ) if verify_scheduler_independence else None
                result = self._step_5(member, best, outcome, tick, tracer)
        self._count_request(result)
        return result

    # ------------------------------------------------------------------
    # Allocation rounds (multi-client serving seam)
    # ------------------------------------------------------------------

    def negotiate_round(
        self,
        requests: Sequence[ClientRequest],
        verify_scheduler_independence: bool = False,
        round_id: int = 0,
    ) -> List[NegotiationResult]:
        """Serve one round of coalesced sessions; results come back in
        submission order, each annotated with its
        :class:`~repro.soa.allocation.AllocationInfo`.

        Without an ``allocation_policy`` (greedy) each request runs
        :meth:`negotiate` in submission order.  With one, the round runs
        steps 1–3 for every request, then the policy's joint step 4
        over the sessions that kept an accepted candidate, then each
        winner's confirmation and step 5 in submission order; a round's
        SLAs take their ticks as they are signed.  Called by the
        :class:`~repro.runtime.batching.RoundScheduler` leader; also
        usable directly for synchronous round-based markets (tests, the
        fairness bench).
        """
        # Deferred import: the allocation module imports this one.
        from .allocation import record_round

        policy = self.allocation_policy
        name = "greedy" if policy is None else policy.name
        tracer = get_tracer()
        with tracer.span(
            "broker.allocation-round",
            policy=name,
            sessions=len(requests),
            round_id=round_id,
        ):
            if policy is None:
                results = [
                    self.negotiate(request, verify_scheduler_independence)
                    for request in requests
                ]
            else:
                results = []
                members: List[_Member] = []
                for index, request in enumerate(requests):
                    result = self._steps_1_to_3(request, tracer)
                    if isinstance(result, _Member):
                        result.index = index
                        members.append(result)
                    results.append(result)
                for member, best in zip(members, policy.choose(members)):
                    outcome = self._confirm(
                        best, member.request, member.semiring
                    ) if verify_scheduler_independence else None
                    results[member.index] = self._step_5(
                        member, best, outcome, None, tracer
                    )
                for result in results:
                    self._count_request(result)
            record_round(results, name, round_id)
        return results

    def _steps_1_to_3(
        self, request: ClientRequest, tracer: Any
    ) -> Union[_Member, NegotiationResult]:
        """Steps 1–3 and the acceptance filter: the session's
        :class:`_Member` when a candidate is accepted, else its typed
        rejection (a session with no accepted candidate is rejected
        under a ``broker.step4-compare`` span of its own)."""
        # Step 1: the client requests a binding, stating the required QoS.
        with tracer.span("broker.step1-request"):
            semiring = request.resolved_semiring()
            self._post(
                request.client, "negotiate-request", request.operation
            )

        # Step 2: the broker searches the registry for providers.
        with tracer.span("broker.step2-registry-search") as span:
            candidates = self.registry.find(
                operation=request.operation,
                requires_attribute=request.attribute,
            )
            span.set_attribute("candidates", len(candidates))
            self._post(self.name, "registry-query", len(candidates))
        if not candidates:
            return NegotiationResult(
                request,
                success=False,
                sla=None,
                evaluations=[],
                detail=f"no provider offers {request.operation!r} with "
                f"{request.attribute!r}",
            )

        # Step 3: QoS negotiation — requirements ⊗ offer per candidate,
        # solved one market-plan group at a time.
        with tracer.span("broker.step3-negotiation"):
            evaluations = self._evaluate_candidates(
                candidates, request, semiring
            )

        accepted = [e for e in evaluations if e.accepted]
        if accepted:
            return _Member(request, semiring, evaluations, accepted)
        with tracer.span("broker.step4-compare", accepted=0):
            self._post(self.name, "negotiate-reject", request.client)
        return NegotiationResult(
            request,
            success=False,
            sla=None,
            evaluations=evaluations,
            detail="no candidate satisfies the client's acceptance "
            "interval",
        )

    def _step_5(
        self,
        member: _Member,
        best: CandidateEvaluation,
        outcome: Optional[NegotiationOutcome],
        tick: Optional[int],
        tracer: Any,
    ) -> NegotiationResult:
        """The session's result once step 4 chose ``best``: its
        confirmation failure, or the SLA signed at ``tick`` (``None``
        takes the next tick as it signs)."""
        request = member.request
        if outcome is not None and not outcome.success:
            return NegotiationResult(
                request,
                success=False,
                sla=None,
                evaluations=member.evaluations,
                outcome=outcome,
                detail="nmsccp confirmation run failed",
            )

        # Step 5: the SLA binding is created and both parties informed.
        with tracer.span("broker.step5-sla") as span:
            sla = self._sign(
                best,
                request,
                member.semiring,
                self._tick() if tick is None else tick,
            )
            span.set_attribute("sla_id", sla.sla_id)
            self._post(self.name, "sla-created", sla.sla_id)
        get_events().emit(
            "broker.sla-created",
            sla_id=sla.sla_id,
            client=request.client,
            provider=best.description.provider,
            service_id=best.description.service_id,
            attribute=request.attribute,
        )
        return NegotiationResult(
            request,
            success=True,
            sla=sla,
            evaluations=member.evaluations,
            outcome=outcome,
            detail=f"bound to {best.description.service_id!r}",
        )

    def _select_best(
        self,
        accepted: List[CandidateEvaluation],
        request: ClientRequest,
        semiring: Semiring,
    ) -> CandidateEvaluation:
        """Step 4's winner among the accepted candidates.

        With ``slo_penalty`` off (the default) this is exactly the
        semiring-best scan it always was.  With it on, candidates whose
        error-budget share against the client's stated probability floor
        exceeds the flag share are penalized: the semiring-best
        *unflagged* candidate wins when one exists.
        """
        def semiring_best(
            pool: List[CandidateEvaluation],
        ) -> CandidateEvaluation:
            best = pool[0]
            for evaluation in pool[1:]:
                if semiring.gt(evaluation.blevel, best.blevel):
                    best = evaluation
            return best

        target = self._budget_target(request)
        penalty = self.config.slo_penalty
        if penalty is None or target is None:
            return semiring_best(accepted)
        from ..slo import share_of

        unflagged = [
            e
            for e in accepted
            if isinstance(e.blevel, (int, float))
            and 0.0 <= e.blevel <= 1.0
            and share_of(e.blevel, target) <= penalty
        ]
        pool = unflagged or accepted
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "broker_slo_penalized_total",
                "Accepted candidates set aside for overspending the "
                "client's error budget.",
                labelnames=("attribute",),
            ).labels(request.attribute).inc(len(accepted) - len(pool))
        return semiring_best(pool)

    def _budget_target(self, request: ClientRequest) -> Optional[float]:
        """The probability floor the penalty budgets against, when the
        request states one (a plain-level lower bound on a probability
        attribute with room for an error budget)."""
        if request.attribute not in ("availability", "reliability"):
            return None
        if request.acceptance is None:
            return None
        lower = request.acceptance.lower
        if isinstance(lower, SoftConstraint) or lower is None:
            return None
        if not isinstance(lower, (int, float)):
            return None
        if not 0.0 < float(lower) < 1.0:
            return None
        return float(lower)

    def _count_request(self, result: NegotiationResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        if result.success:
            outcome = "success"
        elif not result.evaluations:
            outcome = "no-provider"
        elif result.outcome is not None and not result.outcome.success:
            outcome = "confirmation-failed"
        else:
            outcome = "rejected"
        registry.counter(
            "broker_requests_total",
            "Client binding requests, by outcome.",
            labelnames=("outcome",),
        ).labels(outcome).inc()
        registry.counter(
            "broker_candidates_evaluated_total",
            "Per-candidate SCSP evaluations performed.",
        ).inc(len(result.evaluations))

    def _evaluate_candidates(
        self,
        candidates: Sequence[ServiceDescription],
        request: ClientRequest,
        semiring: Semiring,
    ) -> List[CandidateEvaluation]:
        """Step 3 for every candidate, in order.

        The candidates are the members of the market plan that the
        registry admitted; each plan group is solved for its admitted
        members at once.  A stacked group pairs the session's
        requirements with the group's stacked offers in one ``solve``
        call and one solve-cache entry, keyed on the group's digest,
        the requirements' digests and the mask: a scan when their joint
        table is within the size bound, a group search (one bucket pass
        for every member) when it is over.  Its answers equal
        per-candidate branch & bound bit for bit.  A member of an
        unstacked group (a partial order or a semiring that does not
        lower), or of a group holding a factor over the store's
        materialization limit, gets its own ``requirements ⊗ offer``
        SCSP.
        """
        plan = self._market(request.operation, request.attribute, semiring)
        requirements = tuple(request.requirements)
        # Per candidate: (offer, blevel, best assignment) once solved.
        solved: List[Any] = [None] * len(candidates)
        requirement = None
        for group, picks in plan.select(candidates, requirements):
            work = None
            if group.stack is not None:
                if requirement is None:
                    requirement = Requirement(requirements, plan.lowering)
                mask = [offer.member for _, offer in picks]
                work = group.stack.work(requirement, mask)
            if work is not None:
                rows = self._solve_candidates(picks, work)
                for (index, offer), (blevel, optima) in zip(picks, rows):
                    best = dict(optima[0]) if optima else None
                    solved[index] = (offer.constraints, blevel, best)
                continue
            for index, offer in picks:
                problem = SCSP(
                    requirements + offer.constraints,
                    name=offer.description.service_id,
                )
                result = self._solve_candidates([(index, offer)], problem)
                solved[index] = (
                    offer.constraints, result.blevel, result.best_assignment
                )
        return [
            CandidateEvaluation(description, semiring.zero, False, None)
            if result is None
            else self._judge(description, request, semiring, *result)
            for description, result in zip(candidates, solved)
        ]

    def _solve_candidates(self, picks: List[Tuple[int, Any]], work: Any) -> Any:
        """One ``broker.candidate-solve`` span around ``solve(work)``: a
        stacked group's scan or search, or one candidate's SCSP.  The
        per-candidate histogram gets the span's time amortized over its
        candidates."""
        started = time.perf_counter()
        with get_tracer().span(
            "broker.candidate-solve",
            candidates=len(picks),
            service_id=",".join(
                [offer.description.service_id for _, offer in picks]
            ),
        ):
            result = solve(work, cache=self.solve_cache)
        histogram = get_registry().histogram(
            "broker_candidate_solve_seconds",
            "Per-candidate SCSP solve wall time.",
        )
        share = (time.perf_counter() - started) / len(picks)
        for _ in picks:
            histogram.observe(share)
        return result

    def _judge(
        self,
        description: ServiceDescription,
        request: ClientRequest,
        semiring: Semiring,
        offer: Tuple[SoftConstraint, ...],
        blevel: Any,
        best_assignment: Optional[Dict[str, Any]],
    ) -> CandidateEvaluation:
        """Step 4's acceptance check for one solved candidate.

        It reads the candidate solve: ``blevel(P) = Sol(P)⇓∅`` is the
        consistency of the store ``requirements ⊗ offer``, so level
        thresholds (case C1, and the level side of C2/C3) are judged
        against ``blevel`` — the very level the SLA is signed at —
        instead of solving the same store again.  Accepted candidates
        therefore always sign an ``agreed_level`` inside the client's
        interval.  A store is built only when a threshold is a
        constraint, whose ``refines``/``entails`` need it.
        """
        acceptance = request.acceptance
        if acceptance is None:
            accepted = semiring.gt(blevel, semiring.zero)
        else:
            store = None
            if acceptance.case != "C1":
                # Told factor by factor: the store stays a factor set
                # and refines/entails route through the solver instead
                # of materializing the union.
                store = empty_store(semiring)
                for constraint in (*request.requirements, *offer):
                    store = store.tell(constraint)
            accepted = acceptance.holds(store, consistency=blevel)
        return CandidateEvaluation(description, blevel, accepted, best_assignment)

    def _confirm(
        self,
        evaluation: CandidateEvaluation,
        request: ClientRequest,
        semiring: Semiring,
    ) -> NegotiationOutcome:
        """Step 3 made explicit: rerun the winner as nmsccp agents and
        certify scheduler independence."""
        offer = self._market(
            request.operation, request.attribute, semiring
        ).offer(evaluation.description)
        provider = Party(
            evaluation.description.provider, list(offer), acceptance=None
        )
        client = Party(
            request.client, list(request.requirements), request.acceptance
        )
        return negotiate(
            [provider, client],
            semiring,
            verify_scheduler_independence=True,
        )

    def _sign(
        self,
        evaluation: CandidateEvaluation,
        request: ClientRequest,
        semiring: Semiring,
        tick: int,
    ) -> SLA:
        """Step 5: the SLA binding, stamped with the session's ``tick``."""
        pool: Dict[str, Variable] = {
            var.name: var
            for constraint in request.requirements
            for var in constraint.scope
        }
        offer = compile_document(
            evaluation.description.qos, request.attribute, semiring, pool
        )
        agreed = combine(
            list(request.requirements) + offer, semiring=semiring
        )
        sla = SLA(
            client=request.client,
            providers=(evaluation.description.provider,),
            attribute=request.attribute,
            semiring=semiring,
            agreed_constraint=agreed,
            agreed_level=evaluation.blevel,
            resource_assignment=dict(evaluation.best_assignment or {}),
            service_ids=(evaluation.description.service_id,),
            operation=request.operation,
            created_at=tick,
        )
        self.slas.add(sla)
        return sla

    # ------------------------------------------------------------------
    # Composition selection
    # ------------------------------------------------------------------

    def negotiate_composition(
        self,
        client: str,
        slots: Sequence[str],
        attribute: str,
        pattern: str = "pipeline",
        minimum_level: Any = None,
        rule: Optional[AggregationRule] = None,
        slo_target: Any = None,
        slo_choose: str = "worst-case",
    ) -> Tuple[Optional[SLA], Optional[Plan], Dict[str, Any]]:
        """Choose one provider per operation slot, optimizing the
        aggregated QoS of the composite (paper: "look for complex services
        by composing together simpler service interfaces").

        Returns ``(sla, plan, diagnostics)``; ``sla`` is ``None`` when no
        selection reaches ``minimum_level``.

        ``slo_target`` arms the unachievable-SLO precheck: before the
        selection SCSP is even built, the analytics fold the per-slot
        *best* offers through the aggregation rule (the exact reachable
        optimum, by monotonicity) and compare against the target.  An
        unachievable target short-circuits to ``(None, None,
        diagnostics)`` with the typed verdict — including remediation
        guidance — under ``diagnostics["slo"]``, saving the doomed solve.
        """
        with get_tracer().span(
            "broker.composition",
            client=client,
            slots=len(slots),
            attribute=attribute,
            pattern=pattern,
        ):
            return self._negotiate_composition(
                client,
                slots,
                attribute,
                pattern,
                minimum_level,
                rule,
                slo_target,
                slo_choose,
            )

    def _negotiate_composition(
        self,
        client: str,
        slots: Sequence[str],
        attribute: str,
        pattern: str,
        minimum_level: Any,
        rule: Optional[AggregationRule],
        slo_target: Any = None,
        slo_choose: str = "worst-case",
    ) -> Tuple[Optional[SLA], Optional[Plan], Dict[str, Any]]:
        tick = self._tick()
        semiring = resolve_attribute(attribute).semiring()
        if rule is None:
            try:
                rule = AGGREGATION_RULES[attribute]
            except KeyError:
                raise BrokerError(
                    f"no aggregation rule for attribute {attribute!r}"
                ) from None

        # Scalar offer per candidate: its best achievable level.
        slot_candidates: List[List[ServiceDescription]] = []
        offer_level: Dict[str, Any] = {}
        for operation in slots:
            candidates = self.registry.find(
                operation=operation, requires_attribute=attribute
            )
            if not candidates:
                raise BrokerError(
                    f"no provider for slot operation {operation!r}"
                )
            slot_candidates.append(candidates)
            for description in candidates:
                if description.service_id not in offer_level:
                    offer_level[description.service_id] = self._offer_level(
                        description, attribute, semiring
                    )

        # Unachievable-SLO precheck: fold the per-slot best offers (the
        # reachable optimum) before spending a selection solve.
        if slo_target is not None:
            verdict = self._precheck_slo(
                slot_candidates,
                offer_level,
                pattern,
                attribute,
                semiring,
                rule,
                slo_target,
                slo_choose,
            )
            if verdict is not None and not verdict.achievable:
                diagnostics = {
                    "offer_levels": dict(offer_level),
                    "blevel": None,
                    "evaluations": 0,
                    "slo": verdict.to_dict(),
                }
                self._post(self.name, "composition-slo-reject", client)
                return None, None, diagnostics

        # One selection variable per slot, domain = candidate service ids.
        selection_vars = [
            Variable(f"slot{i}", tuple(d.service_id for d in candidates))
            for i, candidates in enumerate(slot_candidates)
        ]

        fold = {
            "pipeline": rule.sequence,
            "split": rule.split,
            "choose": rule.choose,
        }.get(pattern)
        if fold is None:
            raise BrokerError(f"unknown composition pattern {pattern!r}")

        def aggregated(*chosen_ids: str) -> Any:
            return fold([offer_level[sid] for sid in chosen_ids])

        objective = FunctionConstraint(
            semiring, selection_vars, aggregated, name=f"compose-{attribute}"
        )
        problem = SCSP([objective], name="composition")
        result = self._solve(problem)

        diagnostics = {
            "offer_levels": dict(offer_level),
            "blevel": result.blevel,
            "evaluations": result.stats.leaves_evaluated,
        }
        if minimum_level is not None and not semiring.geq(
            result.blevel, minimum_level
        ):
            return None, None, diagnostics

        assert result.best_assignment is not None
        chosen_ids = [
            result.best_assignment[var.name] for var in selection_vars
        ]
        plan_children = [Invoke(sid) for sid in chosen_ids]
        plan: Plan = {
            "pipeline": Pipeline,
            "split": Split,
            "choose": Choose,
        }[pattern](plan_children)

        providers = tuple(
            self.registry.get(sid).provider for sid in chosen_ids
        )
        sla = SLA(
            client=client,
            providers=providers,
            attribute=attribute,
            semiring=semiring,
            agreed_constraint=objective,
            agreed_level=result.blevel,
            resource_assignment=dict(result.best_assignment),
            service_ids=tuple(chosen_ids),
            created_at=tick,
        )
        self.slas.add(sla)
        self._post(self.name, "composition-sla", sla.sla_id)
        get_events().emit(
            "broker.composition-sla",
            sla_id=sla.sla_id,
            client=client,
            attribute=attribute,
            service_ids=list(chosen_ids),
        )
        return sla, plan, diagnostics

    def _precheck_slo(
        self,
        slot_candidates: List[List[ServiceDescription]],
        offer_level: Dict[str, Any],
        pattern: str,
        attribute: str,
        semiring: Semiring,
        rule: Optional[AggregationRule],
        slo_target: Any,
        slo_choose: str,
    ) -> Any:
        """The detector over per-slot best offers (see
        :func:`repro.slo.check_slo`)."""
        from ..slo import SLOError, check_slo

        best_ids: List[str] = []
        for candidates in slot_candidates:
            best = candidates[0].service_id
            for description in candidates[1:]:
                if semiring.gt(
                    offer_level[description.service_id], offer_level[best]
                ):
                    best = description.service_id
            best_ids.append(best)
        plan_type = {
            "pipeline": Pipeline,
            "split": Split,
            "choose": Choose,
        }[pattern]
        plan = plan_type([Invoke(sid) for sid in best_ids])
        try:
            return check_slo(
                plan,
                {sid: offer_level[sid] for sid in best_ids},
                slo_target,
                attribute=attribute,
                choose=slo_choose,
                rule=rule,
                semiring=semiring,
            )
        except SLOError as exc:
            raise BrokerError(f"SLO precheck failed: {exc}") from exc

    # ------------------------------------------------------------------
    # SLO analytics queries
    # ------------------------------------------------------------------

    def advertised_levels(
        self, attribute: str, operation: Optional[str] = None
    ) -> Dict[str, Any]:
        """Each published service's best achievable level for
        ``attribute`` (its scalar offer), via the broker's memoized
        offer compiler and solve cache."""
        semiring = resolve_attribute(attribute).semiring()
        return {
            description.service_id: self._offer_level(
                description, attribute, semiring
            )
            for description in self.registry.find(
                operation=operation, requires_attribute=attribute
            )
        }

    def slo_report(
        self,
        plan: Plan,
        target: float,
        attribute: str = "availability",
        use_observations: bool = True,
        **options: Any,
    ) -> Any:
        """Full SLO analytics (:func:`repro.slo.analyze`) for a plan over
        this broker's market: published levels come from the registered
        QoS offers, delivered-quality evidence from the registry's
        observation ledger (``use_observations=False`` trusts the
        advertisements).  Extra keyword ``options`` pass through to
        ``analyze`` (``buffer``, ``min_attempts``, ``choose``, …)."""
        from ..slo import analyze

        semiring = resolve_attribute(attribute).semiring()
        published = {
            service_id: self._offer_level(
                self.registry.get(service_id), attribute, semiring
            )
            for service_id in set(plan.services())
        }
        observations = (
            self.registry.observation_windows() if use_observations else None
        )
        if not use_observations:
            options.setdefault("trust_published", True)
        return analyze(
            plan,
            published,
            target,
            attribute=attribute,
            observations=observations,
            **options,
        )

    # ------------------------------------------------------------------
    # Multi-criteria (Pareto) selection
    # ------------------------------------------------------------------

    def negotiate_multicriteria(
        self,
        client: str,
        operation: str,
        attributes: Sequence[str],
        requirements: Optional[List[SoftConstraint]] = None,
    ) -> "MulticriteriaResult":
        """Negotiate several QoS attributes jointly over their product
        semiring (paper Sec. 4: "the cartesian product of multiple
        c-semirings is still a c-semiring and, therefore, we can model
        also a multicriteria optimization").

        Each candidate's offers for every attribute are folded into one
        product-valued constraint; incomparable trade-offs survive as a
        Pareto frontier instead of being collapsed by an arbitrary
        scalarization.  ``requirements`` (optional) are product-valued
        client constraints combined into every candidate's problem.
        """
        from ..semirings.product import ProductSemiring

        if len(attributes) < 2:
            raise BrokerError(
                "multicriteria negotiation needs at least two attributes"
            )
        self._tick()
        component_semirings = [
            resolve_attribute(a).semiring() for a in attributes
        ]
        product = ProductSemiring(component_semirings)

        candidates = [
            d
            for d in self.registry.find(operation=operation)
            if all(a in d.qos.attributes() for a in attributes)
        ]
        if not candidates:
            return MulticriteriaResult(
                client, operation, tuple(attributes), [], product
            )

        points: List[ParetoPoint] = []
        for description in candidates:
            pool: Dict[str, Variable] = {
                var.name: var
                for constraint in (requirements or [])
                for var in constraint.scope
            }
            per_attribute = []
            for attribute, semiring in zip(attributes, component_semirings):
                offer = compile_document(
                    description.qos, attribute, semiring, pool
                )
                per_attribute.append(
                    combine(offer, semiring=semiring)
                )
            scope = tuple(
                {
                    var.name: var
                    for constraint in per_attribute
                    for var in constraint.scope
                }.values()
            )

            def joint(*values, _scope=scope, _parts=per_attribute):
                assignment = {
                    var.name: value for var, value in zip(_scope, values)
                }
                return tuple(part.value(assignment) for part in _parts)

            offer_constraint = FunctionConstraint(
                product, scope, joint, name=description.service_id
            )
            constraints = list(requirements or []) + [offer_constraint]
            problem = SCSP(constraints, name=description.service_id)
            result = solve(problem, method="exhaustive")
            for value, group in zip(result.frontier, result.optima):
                for assignment in group:
                    points.append(
                        ParetoPoint(
                            description=description,
                            level=value,
                            assignment=dict(assignment),
                        )
                    )

        # Pareto-filter across candidates.
        frontier_values = product.max_elements(
            [point.level for point in points]
        )
        frontier = [
            point for point in points if point.level in frontier_values
        ]
        frontier.sort(
            key=lambda p: (p.description.service_id, repr(p.level))
        )
        return MulticriteriaResult(
            client, operation, tuple(attributes), frontier, product
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _post(self, sender: str, kind: str, body: Any) -> None:
        """Journal a protocol step on the bus when one is attached."""
        if self.bus is not None:
            if sender not in self.bus.endpoints():
                self.bus.register(sender)
            self.bus.send(sender, self.ENDPOINT, kind, body)
