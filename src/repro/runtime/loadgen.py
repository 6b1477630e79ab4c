"""Load generation against the runtime: synthetic client populations.

Synthesizes many concurrent clients driving one
:class:`~repro.runtime.server.RuntimeServer` and reports what the
serving layer actually delivered — throughput, latency percentiles,
queue waits, retries, degradations.  Two classic modes:

* **open loop** — arrivals follow a seeded Poisson process at ``rate``
  requests/second, independent of completions (models internet traffic;
  exposes queueing collapse under overload);
* **closed loop** — ``clients`` concurrent loops, each submitting its
  next request only after the previous one resolved, with an optional
  think time (models a fixed user population).

Arrival schedules, client naming and request synthesis all derive from
one seeded RNG, so a load run is reproducible end to end (the server
then derives per-session RNGs in admission order — see
:mod:`repro.runtime.server`).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..config import NON_NEGATIVE, POSITIVE, POSITIVE_INT, Config, knob
from ..constraints.polynomial import Polynomial, polynomial_constraint
from ..constraints.variables import integer_variable
from ..soa.broker import ClientRequest
from ..soa.qos import QoSDocument, QoSPolicy, resolve_attribute
from ..soa.registry import ServiceRegistry
from ..soa.service import ServiceDescription, ServiceInterface
from .server import RuntimeServer, SessionResult, SessionStatus

#: Signature of the per-arrival request factory.
RequestFactory = Callable[[str, int], ClientRequest]


class LoadGenError(Exception):
    """Raised on malformed load profiles."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0–100); 0.0 on empty input."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise LoadGenError("percentile q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: List[float]) -> Dict[str, float]:
    """The latency digest every report row uses."""
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


@dataclass(frozen=True)
class LoadProfile(Config):
    """Shape of one synthetic client population."""

    error = LoadGenError

    clients: int = knob(
        10,
        range=POSITIVE_INT,
        flag="--clients",
        help="client population size",
    )
    #: Total sessions; ``None`` = one per client.
    requests: Optional[int] = knob(
        None,
        range=POSITIVE_INT,
        optional=True,
        flag="--requests",
        metavar="N",
        help="total sessions (default: one per client)",
    )
    mode: str = knob("open", choices=("open", "closed"), flag="--mode")
    #: Open loop: mean arrivals per second.
    rate: float = knob(
        50.0,
        range=POSITIVE,
        flag="--rate",
        metavar="RPS",
        help="open loop: mean Poisson arrival rate",
    )
    #: Closed loop: pause between a client's calls.
    think_time_s: float = knob(
        0.0,
        range=NON_NEGATIVE,
        flag="--think-time",
        metavar="SECONDS",
        help="closed loop: pause between a client's requests",
    )
    seed: Optional[int] = None

    @property
    def total_requests(self) -> int:
        return self.requests if self.requests is not None else self.clients


@dataclass
class LoadReport:
    """What the runtime delivered under one load profile."""

    offered: int
    duration_s: float
    throughput_rps: float
    outcomes: Dict[str, int]
    retries_total: int
    latency_s: Dict[str, float]
    queue_wait_s: Dict[str, float]
    results: List[SessionResult] = field(default_factory=list)
    #: Per-client allocation fairness (:func:`fairness_summary`);
    #: ``None`` when no session carried allocation-round metadata.
    fairness: Optional[Dict[str, float]] = None

    @property
    def completed(self) -> int:
        return self.outcomes.get(SessionStatus.COMPLETED.value, 0)

    @property
    def degraded(self) -> int:
        return self.outcomes.get(SessionStatus.DEGRADED.value, 0)

    @property
    def overloaded(self) -> int:
        return self.outcomes.get(SessionStatus.OVERLOADED.value, 0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (individual sessions omitted)."""
        payload = {
            "offered": self.offered,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "outcomes": dict(self.outcomes),
            "retries_total": self.retries_total,
            "latency_s": dict(self.latency_s),
            "queue_wait_s": dict(self.queue_wait_s),
        }
        if self.fairness is not None:
            payload["fairness"] = dict(self.fairness)
        return payload


class LoadGenerator:
    """Drives one server with a synthetic population and measures it."""

    def __init__(
        self,
        server: RuntimeServer,
        profile: Optional[LoadProfile] = None,
        request_factory: Optional[RequestFactory] = None,
    ) -> None:
        self.server = server
        self.profile = profile or LoadProfile()
        self.request_factory = request_factory or synthetic_request_factory()
        self._rng = random.Random(self.profile.seed)

    async def run(self) -> LoadReport:
        """One full load run (starts/stops the server if needed)."""
        owns_lifecycle = not self.server.started
        if owns_lifecycle:
            await self.server.start()
        started = time.perf_counter()
        try:
            if self.profile.mode == "open":
                results = await self._open_loop()
            else:
                results = await self._closed_loop()
        finally:
            duration = time.perf_counter() - started
            if owns_lifecycle:
                await self.server.stop()
        return self._report(results, duration)

    def run_sync(self) -> LoadReport:
        return asyncio.run(self.run())

    # ------------------------------------------------------------------
    # Arrival processes
    # ------------------------------------------------------------------

    def _client_name(self, index: int) -> str:
        return f"c{index % self.profile.clients}"

    async def _open_loop(self) -> List[SessionResult]:
        """Submit each arrival at its absolute due time.  A loop stall
        (a session running, a slow submit) builds a backlog that is
        then submitted back to back, instead of lowering the rate."""
        clock = time.perf_counter
        futures = []
        due = clock()
        for index in range(self.profile.total_requests):
            request = self.request_factory(self._client_name(index), index)
            futures.append(self.server.submit(request))
            due += self._rng.expovariate(self.profile.rate)
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
        return list(await asyncio.gather(*futures))

    async def _closed_loop(self) -> List[SessionResult]:
        total = self.profile.total_requests
        # Spread the total across the population, first clients take the
        # remainder, so exactly ``total`` sessions are issued.
        base, extra = divmod(total, self.profile.clients)
        counts = [
            base + (1 if c < extra else 0)
            for c in range(self.profile.clients)
        ]
        next_index = iter(range(total))

        async def client_loop(client: str, count: int):
            out = []
            for _ in range(count):
                request = self.request_factory(client, next(next_index))
                out.append(await self.server.submit(request))
                if self.profile.think_time_s > 0:
                    await asyncio.sleep(self.profile.think_time_s)
            return out

        batches = await asyncio.gather(
            *(
                client_loop(f"c{c}", count)
                for c, count in enumerate(counts)
                if count > 0
            )
        )
        return [result for batch in batches for result in batch]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(
        self, results: List[SessionResult], duration: float
    ) -> LoadReport:
        return build_report(results, duration)


def build_report(
    results: List[SessionResult], duration: float
) -> LoadReport:
    """Digest raw session results into one :class:`LoadReport`.

    Module-level so callers that group results themselves (per-shard
    fleet reports) produce digests with exactly the generator's shape.
    """
    outcomes: Dict[str, int] = {}
    for result in results:
        key = result.status.value
        outcomes[key] = outcomes.get(key, 0) + 1
    served = [result for result in results if result.attempts > 0]
    finished = outcomes.get(SessionStatus.COMPLETED.value, 0) + outcomes.get(
        SessionStatus.DEGRADED.value, 0
    )
    return LoadReport(
        offered=len(results),
        duration_s=duration,
        throughput_rps=finished / duration if duration > 0 else 0.0,
        outcomes=outcomes,
        retries_total=sum(result.retries for result in results),
        latency_s=summarize([r.latency_s for r in served]),
        queue_wait_s=summarize([r.queue_wait_s for r in served]),
        results=results,
        fairness=fairness_summary(results) or None,
    )


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly
    even, ``1/n`` is one client taking everything; 0.0 on empty/zero
    input."""
    if not values:
        return 0.0
    square_sum = sum(x * x for x in values)
    if square_sum <= 0.0:
        return 0.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def fairness_summary(
    results: Sequence[SessionResult],
) -> Dict[str, float]:
    """Per-client fairness digest over allocation-round metadata.

    Each session served through an allocation policy carries an
    :class:`~repro.soa.allocation.AllocationInfo` with its *realized*
    satisfaction (agreed level mapped to ``[0, 1]``, discounted by the
    session's queue rank on its provider within the round).  Clients
    are scored by their mean realized satisfaction across sessions, and
    the digest reports Jain's index, the worst-off client and the mean
    over those per-client scores.  Empty (``{}``) when no session has
    round metadata — plain (policy-less) runs stay unchanged.
    """
    per_client: Dict[str, List[float]] = {}
    for result in results:
        negotiation = getattr(result, "negotiation", None)
        info = getattr(negotiation, "allocation", None)
        if info is None or not negotiation.success:
            continue
        per_client.setdefault(result.request.client, []).append(
            info.realized_satisfaction
        )
    if not per_client:
        return {}
    scores = sorted(
        sum(values) / len(values) for values in per_client.values()
    )
    return {
        "clients": float(len(scores)),
        "sessions": float(
            sum(len(values) for values in per_client.values())
        ),
        "jain_index": jain_index(scores),
        "min_satisfaction": scores[0],
        "mean_satisfaction": sum(scores) / len(scores),
    }


def merge_reports(reports: Sequence[LoadReport]) -> LoadReport:
    """Merge per-shard reports into one fleet report.

    Percentiles are *recomputed from the concatenated raw samples* —
    averaging per-shard percentiles is statistically wrong (the p99 of
    a fleet is not the mean of per-shard p99s), so every report to be
    merged must still carry its raw ``results``.  Shard runs overlap in
    wall-clock time, so the merged duration is the longest shard window
    and the merged throughput is total finished work over that window.
    """
    if not reports:
        raise LoadGenError("merge_reports needs at least one report")
    for report in reports:
        if report.offered != len(report.results):
            raise LoadGenError(
                "cannot merge a report without its raw results "
                f"(offered={report.offered}, "
                f"samples={len(report.results)})"
            )
    merged = [result for report in reports for result in report.results]
    duration = max(report.duration_s for report in reports)
    return build_report(merged, duration)


# ----------------------------------------------------------------------
# Synthetic markets
# ----------------------------------------------------------------------


def synthesize_market(
    providers: int = 4,
    operation: str = "render",
    attribute: str = "cost",
    domain: int = 8,
    seed: Optional[int] = None,
) -> ServiceRegistry:
    """A small but real market: ``providers`` services for one
    operation, each advertising a polynomial cost policy over a shared
    resource variable — so every negotiation performs genuine (CPU-bound)
    SCSP solves of a few hundred leaves."""
    rng = random.Random(seed)
    registry = ServiceRegistry()
    for index in range(providers):
        base = round(rng.uniform(2.0, 18.0), 2)
        slope = 1.0 + (index % 3)
        document = QoSDocument(
            service_name=operation,
            provider=f"P{index}",
            policies=[
                QoSPolicy(
                    attribute=attribute,
                    variables={"x": range(0, domain + 1)},
                    polynomial=Polynomial.linear({"x": slope}, base),
                ),
            ],
        )
        registry.publish(
            ServiceDescription(
                service_id=f"{operation}-P{index}",
                name=operation,
                provider=f"P{index}",
                interface=ServiceInterface(operation=operation),
                qos=document,
            )
        )
    return registry


def synthetic_request_factory(
    operation: str = "render",
    attribute: str = "cost",
    domain: int = 8,
) -> RequestFactory:
    """Requests matching :func:`synthesize_market`: each client demands
    the attribute over the shared resource variable."""
    semiring = resolve_attribute(attribute).semiring()
    x = integer_variable("x", domain)
    requirement = polynomial_constraint(
        semiring, [x], Polynomial.linear({"x": 1.0}), name="client-demand"
    )

    def factory(client: str, index: int) -> ClientRequest:
        return ClientRequest(
            client=client,
            operation=operation,
            attribute=attribute,
            requirements=[requirement],
        )

    return factory


def synthesize_contention_market(
    providers: int = 3,
    operation: str = "store",
    attribute: str = "fuzzy-reliability",
    top_quality: float = 0.9,
    quality_step: float = 0.1,
) -> ServiceRegistry:
    """A market built to exhibit allocation contention.

    ``providers`` services for one operation with strictly decreasing
    constant quality levels (``0.9, 0.8, 0.7, …`` by default): every
    client's individually-best choice is the *same* provider, so a
    greedy market piles every session onto ``P0`` and the per-round
    queue discount (``γ^rank``, see :mod:`repro.soa.allocation`)
    punishes the pile-up — the scenario the fairness bench measures
    greedy vs fair policies on.
    """
    if providers < 2:
        raise LoadGenError(
            "a contention market needs at least 2 providers"
        )
    registry = ServiceRegistry()
    for index in range(providers):
        quality = round(
            max(0.05, top_quality - index * quality_step), 6
        )
        document = QoSDocument(
            service_name=operation,
            provider=f"P{index}",
            policies=[
                QoSPolicy(attribute=attribute, constant=quality)
            ],
        )
        registry.publish(
            ServiceDescription(
                service_id=f"{operation}-P{index}",
                name=operation,
                provider=f"P{index}",
                interface=ServiceInterface(operation=operation),
                qos=document,
            )
        )
    return registry


def contention_request_factory(
    operation: str = "store",
    attribute: str = "fuzzy-reliability",
) -> RequestFactory:
    """Requests matching :func:`synthesize_contention_market`: bare
    attribute demands, so candidate evaluation reduces to the offered
    constant and all contention is in *who gets whom*."""

    def factory(client: str, index: int) -> ClientRequest:
        return ClientRequest(
            client=client,
            operation=operation,
            attribute=attribute,
        )

    return factory
