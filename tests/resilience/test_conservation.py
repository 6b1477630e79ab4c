"""Conservation under seeded random fault schedules.

Every submitted request ends in exactly one of three states: an
agreement (``completed``/``degraded``), a typed rejection, or a status
the dead-letter queue captures, with one envelope each.  The
``runtime_sessions_total{outcome}`` counter reconciles with the result
ledger outcome by outcome.  Each schedule draws crash probabilities, an
outage window, a small admission bound, a bulkhead limit, the retry
budget and the submission bursts from one seed, and drives a
:class:`RuntimeServer` and a 2-shard :class:`FleetFrontend` with it.
"""

import asyncio
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.fleet import FleetConfig, FleetFrontend
from repro.resilience import BulkheadConfig, DLQConfig, ResilienceConfig
from repro.runtime import (
    Overloaded,
    RetryPolicy,
    RuntimeConfig,
    RuntimeServer,
    SessionStatus,
)
from repro.soa import (
    BernoulliCrash,
    Broker,
    BurstOutage,
    FaultInjector,
    ServiceRegistry,
)
from repro.telemetry import telemetry_session

from .conftest import publish_cost_provider

SESSIONS = 40
SEEDS = range(6)

AGREEMENTS = {SessionStatus.COMPLETED, SessionStatus.DEGRADED}
TYPED_REJECTIONS = {
    SessionStatus.OVERLOADED,
    SessionStatus.BULKHEAD_REJECTED,
    SessionStatus.REJECTED,
}


class Schedule:
    """One seeded draw of faults, bounds and submission bursts."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.crash = {p: rng.uniform(0.0, 0.6) for p in ("P1", "P2", "P3")}
        self.outage = (rng.randrange(SESSIONS), rng.randint(1, SESSIONS // 2))
        self.queue = rng.randint(3, 12)
        self.workers = rng.randint(1, 3)
        self.bulkhead = rng.randint(3, 12)
        self.attempts = rng.randint(1, 3)
        self.bursts = []
        left = SESSIONS
        while left:
            size = min(left, rng.randint(1, 8))
            self.bursts.append(size)
            left -= size

    def injector(self, *_):
        injector = FaultInjector(seed=0)
        for provider, probability in self.crash.items():
            service = f"filter-{provider}"
            injector.attach(service, BernoulliCrash(probability))
            injector.attach(service, BurstOutage(*self.outage))
        return injector

    def resilience(self):
        return ResilienceConfig(
            bulkhead=BulkheadConfig(default_limit=self.bulkhead),
            dlq=DLQConfig(),
        )

    def retry(self):
        return RetryPolicy(max_attempts=self.attempts, base_backoff_s=0.0)


def market():
    registry = ServiceRegistry()
    publish_cost_provider(registry, "P1", base=5.0)
    publish_cost_provider(registry, "P2", base=3.0)
    publish_cost_provider(registry, "P3", base=8.0)
    return registry


async def drive(target, schedule, make_request):
    """Submit in bursts (one loop turn between bursts) and await all."""
    futures = []
    resolutions = Counter()
    for size in schedule.bursts:
        for _ in range(size):
            # Half the sessions come from four returning clients, which
            # can degrade to an SLA signed earlier; the other half from
            # fresh clients, which can only fail.  Every seventh asks
            # for an operation nobody offers.
            n = len(futures)
            request = make_request(f"C{n % 4}" if n % 2 else f"N{n}")
            if n % 7 == 6:
                request = replace(request, operation="render")
            future = target.submit(request)
            future.add_done_callback(lambda f: resolutions.update([id(f)]))
            futures.append(future)
        await asyncio.sleep(0)
    results = await asyncio.gather(*futures)
    await asyncio.sleep(0)  # let the last done-callbacks run
    assert all(resolutions[id(f)] == 1 for f in futures)
    return results


def check_conservation(results, ledger, ids, dlq, counted):
    # One result per submission, and the ledger holds exactly those.
    assert len(results) == SESSIONS
    assert len(set(ids(results))) == SESSIONS
    assert Counter(ids(ledger)) == Counter(ids(results))
    captured = set(dlq.config.capture_statuses)
    for result in results:
        if result.status in AGREEMENTS:
            assert result.sla is not None
        elif result.status in TYPED_REJECTIONS:
            if result.status is SessionStatus.OVERLOADED:
                assert isinstance(result, Overloaded)
        else:
            assert result.status.value in captured, result.status
    # One envelope per captured result, and none for anything else.
    envelopes = Counter(
        letter.session_key or letter.index for letter in dlq.letters()
    )
    expected = Counter(
        result.session_key or result.index
        for result in results
        if result.status.value in captured
    )
    assert envelopes == expected
    assert counted == Counter(result.status.value for result in results)


def outcome_counts(registry, name, **fixed):
    totals = Counter()
    for sample in registry.get(name).samples():
        labels = sample["labels"]
        if all(labels[k] == v for k, v in fixed.items()) and sample["value"]:
            totals[labels["outcome"]] += int(sample["value"])
    return totals


@pytest.mark.parametrize("seed", SEEDS)
def test_server_conserves_every_session(seed, make_request):
    schedule = Schedule(seed)
    server = RuntimeServer(
        Broker(market()),
        RuntimeConfig(
            workers=schedule.workers,
            max_queue_depth=schedule.queue,
            deadline_s=None,
            retry=schedule.retry(),
            seed=seed,
            probe_interval_s=0.0,
        ),
        injector=schedule.injector(),
        resilience=schedule.resilience(),
    )

    async def run():
        async with server:
            return await drive(server, schedule, make_request)

    with telemetry_session() as session:
        results = asyncio.run(run())
        counted = outcome_counts(session.registry, "runtime_sessions_total")
    check_conservation(
        results,
        server.results,
        lambda rs: [r.index for r in rs],
        server.resilience.dlq,
        counted,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fleet_conserves_every_session(seed, make_request):
    schedule = Schedule(seed)
    frontend = FleetFrontend(
        market(),
        FleetConfig(
            shards=2,
            workers_per_shard=schedule.workers,
            ingress_depth=schedule.queue,
            seed=seed,
            runtime=RuntimeConfig(deadline_s=None, retry=schedule.retry()),
            resilience=schedule.resilience(),
        ),
        injector_factory=schedule.injector,
    )

    async def run():
        async with frontend:
            return await drive(frontend, schedule, make_request)

    with telemetry_session() as session:
        results = asyncio.run(run())
        served = outcome_counts(session.registry, "runtime_sessions_total")
        edge = outcome_counts(
            session.registry, "fleet_sessions_total", shard="ingress"
        )
    # Fleet-edge overloads never reach a shard server's counter.
    check_conservation(
        results,
        frontend.results,
        lambda rs: [r.session_key for r in rs],
        frontend.dlq,
        served + edge,
    )
