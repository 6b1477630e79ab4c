"""The SOA query engine (paper Sec. 8, stated future work).

"The main results will be the development of a SOA query engine, that
will use the constraint satisfaction solver to select which available
service will satisfy a given query.  It will also look for complex
services by composing together simpler service interfaces."

A :class:`ServiceQuery` states *what* the client has and wants (data
types consumed/produced, via the interfaces' ``inputs``/``outputs``) and
*how well* it must be delivered (a QoS attribute, an optional minimum
level).  The engine:

1. matches single services whose interface fits;
2. when allowed, chains services into pipelines (type-directed search up
   to ``max_chain`` stages) whose interfaces compose;
3. scores every candidate plan with the attribute's semiring — each
   service contributes its best offer level (an SCSP solve over its QoS
   document), aggregated along the plan by the composition rules;
4. ranks matches best-first in the semiring order and applies the
   minimum-level cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

from ..semirings.base import Semiring
from ..solver import SCSP, solve
from ..caching import DEFAULT_CACHE_SIZE, LRUCache
from .capabilities import CapabilityPolicy, compose_policies
from .composition import AGGREGATION_RULES, AggregationRule, Invoke, Pipeline, Plan
from .qos import compile_document, resolve_attribute
from .registry import ServiceRegistry
from .service import ServiceDescription


class QueryError(Exception):
    """Raised on unanswerable or malformed queries."""


@dataclass
class ServiceQuery:
    """A declarative request against the registry.

    Exactly one of ``operation`` (name-directed) or ``produces``
    (type-directed) must be given.  Type-directed queries may also state
    ``consumes`` — the data the client can supply — and permit pipelines
    via ``max_chain`` ≥ 2.
    """

    attribute: str
    operation: Optional[str] = None
    produces: Optional[Sequence[str]] = None
    consumes: Sequence[str] = ()
    minimum_level: Any = None
    max_chain: int = 1
    tag: Optional[str] = None
    client_capabilities: Optional[CapabilityPolicy] = None

    def __post_init__(self) -> None:
        if (self.operation is None) == (self.produces is None):
            raise QueryError(
                "a query names either an operation or the outputs it "
                "needs (produces=…), not both"
            )
        if self.max_chain < 1:
            raise QueryError("max_chain must be at least 1")


@dataclass
class QueryMatch:
    """One candidate answer: a plan with its aggregated QoS level."""

    plan: Plan
    level: Any
    providers: Tuple[str, ...]
    stages: int

    def describe(self) -> str:
        return f"{self.plan.describe()} @ {self.level!r}"


@dataclass
class QueryAnswer:
    """Ranked matches (semiring-best first)."""

    query: ServiceQuery
    matches: List[QueryMatch]
    candidates_considered: int = 0

    @property
    def best(self) -> Optional[QueryMatch]:
        return self.matches[0] if self.matches else None

    @property
    def satisfiable(self) -> bool:
        return bool(self.matches)


class QueryEngine:
    """Answers :class:`ServiceQuery` objects against a registry.

    The per-(service, attribute) offer-level memo used to grow without
    bound as the registry churned; it is now an LRU capped at
    ``cache_size`` entries, with hit/miss counters on the telemetry
    registry (``cache_hits_total{cache="query-offer-level"}``).
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.registry = registry
        self._level_cache = LRUCache(cache_size, name="query-offer-level")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def query(self, query: ServiceQuery) -> QueryAnswer:
        semiring = resolve_attribute(query.attribute).semiring()
        rule = AGGREGATION_RULES.get(query.attribute)
        if rule is None:
            raise QueryError(
                f"no aggregation rule for attribute {query.attribute!r}"
            )

        if query.operation is not None:
            plans = self._match_by_operation(query)
        else:
            plans = self._match_by_types(query)
        if query.client_capabilities is not None:
            plans = [
                plan
                for plan in plans
                if self._capabilities_compatible(plan, query)
            ]

        matches: List[QueryMatch] = []
        for plan in plans:
            level = self._score(plan, query.attribute, semiring, rule)
            if level is None:
                continue
            if query.minimum_level is not None and not semiring.geq(
                level, query.minimum_level
            ):
                continue
            providers = tuple(
                self.registry.get(service_id).provider
                for service_id in plan.services()
            )
            matches.append(
                QueryMatch(plan, level, providers, len(plan.services()))
            )

        ranked = self._rank(matches, semiring)
        return QueryAnswer(
            query=query, matches=ranked, candidates_considered=len(plans)
        )

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------

    def _match_by_operation(self, query: ServiceQuery) -> List[Plan]:
        descriptions = self.registry.find(
            operation=query.operation,
            tag=query.tag,
            requires_attribute=query.attribute,
        )
        return [Invoke(d.service_id) for d in descriptions]

    def _match_by_types(self, query: ServiceQuery) -> List[Plan]:
        """Type-directed search: chain services whose interfaces compose.

        A pipeline ``s1 ▶ … ▶ sn`` is a candidate when ``s1`` consumes
        only what the client supplies, each stage consumes only what the
        previous one produced (plus the client's inputs), and the final
        stage produces everything the query asks for.
        """
        wanted: Set[str] = set(query.produces or ())
        supplied: Set[str] = set(query.consumes)
        descriptions = [
            d
            for d in self.registry.find(
                tag=query.tag, requires_attribute=query.attribute
            )
        ]

        plans: List[Plan] = []

        def extend(
            chain: List[ServiceDescription],
            available: Set[str],
            previous_outputs: Set[str],
        ) -> None:
            if chain and wanted <= available:
                if len(chain) == 1:
                    plans.append(Invoke(chain[0].service_id))
                else:
                    plans.append(
                        Pipeline([Invoke(d.service_id) for d in chain])
                    )
                return  # a satisfied chain need not be extended
            if len(chain) >= query.max_chain:
                return
            used = {d.service_id for d in chain}
            for description in descriptions:
                if description.service_id in used:
                    continue
                needs = set(description.interface.inputs)
                if not needs <= available:
                    continue
                # a genuine pipeline stage consumes something the previous
                # stage produced — otherwise the prefix is dead weight
                if chain and not needs & previous_outputs:
                    continue
                extend(
                    chain + [description],
                    available | set(description.interface.outputs),
                    set(description.interface.outputs),
                )

        extend([], supplied, supplied)
        # deduplicate structurally identical plans
        unique: List[Plan] = []
        for plan in plans:
            if plan not in unique:
                unique.append(plan)
        return unique

    def _capabilities_compatible(
        self, plan: Plan, query: ServiceQuery
    ) -> bool:
        """Every stage's MUST/MAY policy must compose with the client's
        (paper Sec. 8: a candidate insisting on capabilities the client
        forbids — or vice versa — cannot be bound).  Stages publishing no
        policy are unconstrained."""
        policies = [query.client_capabilities]
        for service_id in plan.services():
            capability = self.registry.get(service_id).capabilities
            if capability is not None:
                policies.append(capability)
        return compose_policies(policies).compatible

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _offer_level(
        self, service_id: str, attribute: str, semiring: Semiring
    ) -> Optional[Any]:
        # An entry keeps the description its level came from: after an
        # unpublish and a republish under the same id it is stale.
        description = self.registry.get(service_id)
        key = (service_id, attribute)
        entry = self._level_cache.get(key)
        if entry is not None and entry[0] is description:
            return entry[1]
        constraints = compile_document(description.qos, attribute, semiring, {})
        level = (
            solve(SCSP(constraints, name=service_id)).blevel
            if constraints
            else None
        )
        self._level_cache.put(key, (description, level))
        return level

    def _score(
        self,
        plan: Plan,
        attribute: str,
        semiring: Semiring,
        rule: AggregationRule,
    ) -> Optional[Any]:
        levels = []
        for service_id in plan.services():
            level = self._offer_level(service_id, attribute, semiring)
            if level is None:
                return None
            levels.append(level)
        if len(levels) == 1:
            return levels[0]
        return rule.sequence(levels)

    @staticmethod
    def _rank(matches: List[QueryMatch], semiring: Semiring) -> List[QueryMatch]:
        """Best-first by repeated maximal extraction (handles partial
        orders); ties break toward shorter plans, then provider names."""
        remaining = sorted(
            matches, key=lambda m: (m.stages, m.providers)
        )
        ranked: List[QueryMatch] = []
        while remaining:
            best = remaining[0]
            for match in remaining[1:]:
                if semiring.gt(match.level, best.level):
                    best = match
            remaining.remove(best)
            ranked.append(best)
        return ranked
