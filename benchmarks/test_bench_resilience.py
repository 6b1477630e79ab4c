"""E15 — chaos gate: availability under a provider outage (ours).

The acceptance run of the resilience layer (ISSUE 7): a sharded fleet
serves a keyed session trace while a ``BurstOutage`` takes the cheapest
provider down for a window of the global admission sequence — the same
incident shape as the E14 fleet trace.  Two configurations run on the
same market, the same faults, the same seed:

* **enabled** — circuit breakers + health-checked matchmaking + DLQ.
  The first failures trip the cheapest provider's breaker (and the
  probe loop quarantines it), matchmaking routes around the outage, and
  availability — *fresh* agreements, ``completed / offered`` — must
  stay ≥ 0.99 with zero manual rebinding.
* **disabled** — the pre-resilience serving path.  Every session that
  lands in the window burns its retries against the dead provider; its
  client is a first-time one with no earlier agreement to degrade to,
  so it fails (a faulted attempt leaves no SLA behind), and
  availability measurably drops.

A second trace gates bulkheads with a one-operation flood: ``filter``
is offered at five times what the fleet can serve (every attempt at a
``filter`` provider is delayed), next to a light, healthy ``lookup``
operation, against a fleet-edge admission bound.  Without bulkheads
the flood fills the bound, and ``lookup`` sessions are turned away or
queue behind it.  With ``--bulkhead-limit`` the flood holds at most its
compartment per shard, and ``lookup`` must keep availability ≥ 0.99
and a p99 latency under half of the unbulkheaded run's.

Quick mode (default, CI-sized) serves 48 sessions over 2 shards, and a
one-second flood; set ``REPRO_BENCH_FULL=1`` for the E14-sized trace
(640 sessions, 4 shards) and a three-second flood.  Results land in
``benchmarks/.out/BENCH_PR7.json``.
"""

import asyncio
import os

from conftest import BENCH_OUT, record_bench_artifact, report

from repro.constraints import (
    Polynomial,
    integer_variable,
    polynomial_constraint,
)
from repro.fleet import FleetConfig, FleetFrontend
from repro.resilience import (
    BreakerConfig,
    BulkheadConfig,
    DLQConfig,
    HealthConfig,
    ResilienceConfig,
)
from repro.runtime import RetryPolicy, RuntimeConfig
from repro.semirings import WeightedSemiring
from repro.soa import (
    BurstOutage,
    ClientRequest,
    FaultInjector,
    QoSDocument,
    QoSPolicy,
    RandomDelay,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

SCALE = {
    "quick": {
        "sessions": 48, "shards": 2, "outage": (8, 16), "flood_s": 1.0,
    },
    "full": {
        "sessions": 640, "shards": 4, "outage": (64, 256), "flood_s": 3.0,
    },
}[("full" if FULL else "quick")]

#: Cheapest first: every healthy negotiation binds provider P0, so the
#: outage window hits the hot path, not a spare.
PROVIDERS = {"P0": 2.0, "P1": 4.0, "P2": 6.0, "P3": 9.0}

AVAILABILITY_GATE = 0.99

ARTIFACT = f"{BENCH_OUT}/BENCH_PR7.json"

RESILIENCE = ResilienceConfig(
    # Trip on the first failure and stay open for the whole bench: a
    # concurrent success on the dead provider (a pre-outage session
    # finishing late) can reset a failure *streak* but cannot close an
    # open breaker, so the availability gate does not depend on worker
    # interleaving.  Health probes quarantine/reinstate in parallel.
    breaker=BreakerConfig(failure_threshold=1, recovery_s=60.0),
    health=HealthConfig(interval_s=0.01, unhealthy_after=2),
    dlq=DLQConfig(),
)


def build_market(operations=("filter",)):
    registry = ServiceRegistry()
    for operation in operations:
        for provider, base in PROVIDERS.items():
            publish(registry, operation, provider, base)
    return registry


def publish(registry, operation, provider, base):
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=QoSDocument(
                service_name=operation,
                provider=provider,
                policies=[
                    QoSPolicy(
                        attribute="cost",
                        variables={"x": range(0, 11)},
                        polynomial=Polynomial.linear({"x": 1.0}, base),
                    )
                ],
            ),
        )
    )


def make_request(client, operation="filter"):
    x = integer_variable("x", 10)
    requirement = polynomial_constraint(
        WeightedSemiring(), [x], Polynomial.linear({"x": 2})
    )
    return ClientRequest(
        client=client,
        operation=operation,
        attribute="cost",
        requirements=[requirement],
    )


def make_requests(count):
    return [make_request(f"client-{i}") for i in range(count)]


def run_trace(resilience):
    """One full trace; returns (results, frontend)."""
    start, length = SCALE["outage"]

    def injector_factory(shard_id):
        injector = FaultInjector(seed=3)
        injector.attach(
            "filter-P0", BurstOutage(start=start, length=length)
        )
        return injector

    frontend = FleetFrontend(
        build_market(),
        FleetConfig(
            shards=SCALE["shards"],
            workers_per_shard=2,
            seed=17,
            resilience=resilience,
            runtime=RuntimeConfig(
                deadline_s=None,
                retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            ),
        ),
        injector_factory=injector_factory,
    )
    results = frontend.run(make_requests(SCALE["sessions"]))
    return results, frontend


def availability(results):
    """Fresh agreements per offered session — a degraded session keeps
    the client alive on a stale SLA, which is not availability."""
    completed = sum(
        1 for result in results if result.status.value == "completed"
    )
    return completed / len(results)


def test_chaos_outage_availability(benchmark):
    traces = {}

    def both_traces():
        traces["enabled"] = run_trace(RESILIENCE)
        traces["disabled"] = run_trace(None)
        return traces

    benchmark.pedantic(both_traces, rounds=1, iterations=1)

    enabled_results, enabled_fleet = traces["enabled"]
    disabled_results, _ = traces["disabled"]
    on = availability(enabled_results)
    off = availability(disabled_results)

    # No session may be dropped outright in either configuration: with
    # the layer on every client gets an agreement; with it off, a
    # session ends without one only once its retries are exhausted.
    for results in (enabled_results, disabled_results):
        assert len(results) == SCALE["sessions"]
    assert all(result.ok for result in enabled_results)
    failed = [result for result in disabled_results if not result.ok]
    assert all(
        result.status.value == "failed"
        and result.attempts == 3
        and "no known SLA" in result.detail
        for result in failed
    )

    # The chaos gate: breakers + health + DLQ keep fresh-agreement
    # availability at ≥ 0.99 through the outage, no operator involved.
    assert on >= AVAILABILITY_GATE, (
        f"availability {on:.4f} under outage below the "
        f"{AVAILABILITY_GATE} gate"
    )
    # The breaker actually tripped on the dead provider (the wins above
    # are rerouting, not luck)...
    p0_transitions = enabled_fleet.breakers.breaker("P0").transitions
    assert any(to == "open" for _, _, to in p0_transitions)
    # ...and turning the layer off measurably degrades the same trace.
    assert off <= on - 0.05, (
        f"disabling resilience should cost ≥5% availability "
        f"(enabled {on:.4f}, disabled {off:.4f})"
    )

    snapshot = enabled_fleet.resilience_snapshot()
    report(
        f"E15 chaos gate — {'full' if FULL else 'quick'} "
        f"({SCALE['sessions']} sessions, {SCALE['shards']} shards, "
        f"outage ticks {SCALE['outage'][0]}–"
        f"{SCALE['outage'][0] + SCALE['outage'][1]})",
        [
            ("enabled", f"{on:.4f}", 0, snapshot["breakers"].get("P0", "-"),
             snapshot["dlq"]["depth"]),
            ("disabled", f"{off:.4f}", len(failed), "-", "-"),
        ],
        headers=(
            "resilience", "availability", "failed", "P0 breaker", "dlq depth"
        ),
    )
    record_bench_artifact(
        "resilience_chaos",
        {
            "mode": "full" if FULL else "quick",
            "sessions": SCALE["sessions"],
            "shards": SCALE["shards"],
            "outage_ticks": list(SCALE["outage"]),
            "availability_enabled": round(on, 4),
            "availability_disabled": round(off, 4),
            "failed_disabled": len(failed),
            "availability_gate": AVAILABILITY_GATE,
            "gate_passed": on >= AVAILABILITY_GATE,
            "manual_rebinds": 0,
            "breaker_states": snapshot["breakers"],
            "breaker_p0_tripped": True,
            "health_transitions": snapshot.get("health_transitions", []),
            "quarantined_at_end": snapshot.get("quarantined", []),
            "dlq": snapshot["dlq"],
        },
        path=ARTIFACT,
    )


# ----------------------------------------------------------------------
# Bulkheads under a one-operation flood
# ----------------------------------------------------------------------

#: ``filter`` sessions per second offered, and ``lookup`` sessions per
#: second beside them.  Every ``filter`` attempt is delayed by
#: ``FLOOD_DELAY_MS``, so 2 shards × 2 workers serve about 80 per second.
FLOOD_RATE = 400.0
HEALTHY_RATE = 40.0
FLOOD_DELAY_MS = 50.0
#: The fleet-edge admission bound the flood fills without bulkheads.
FLOOD_INGRESS = 64
#: Per-shard compartment per operation (``--bulkhead-limit``).
BULKHEAD_LIMIT = 4


async def _flood(bulkhead):
    def injector_factory(shard_id):
        injector = FaultInjector(seed=3)
        for provider in PROVIDERS:
            injector.attach(
                f"filter-{provider}", RandomDelay(1.0, FLOOD_DELAY_MS)
            )
        return injector

    frontend = FleetFrontend(
        build_market(("filter", "lookup")),
        FleetConfig(
            shards=2,
            workers_per_shard=2,
            ingress_depth=FLOOD_INGRESS,
            seed=17,
            runtime=RuntimeConfig(deadline_s=None),
            resilience=(
                ResilienceConfig(
                    bulkhead=BulkheadConfig(default_limit=BULKHEAD_LIMIT)
                )
                if bulkhead
                else None
            ),
        ),
        injector_factory=injector_factory,
    )
    seconds = SCALE["flood_s"]
    arrivals = sorted(
        [(i / FLOOD_RATE, "filter", i) for i in range(int(FLOOD_RATE * seconds))]
        + [
            # A hair late, so a lookup never ties with a flood arrival.
            (i / HEALTHY_RATE + 1e-4, "lookup", i)
            for i in range(int(HEALTHY_RATE * seconds))
        ]
    )
    loop = asyncio.get_running_loop()
    healthy = []
    async with frontend:
        started = loop.time()
        for due, operation, i in arrivals:
            wait = started + due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            future = frontend.submit(make_request(f"{operation}-{i}", operation))
            if operation == "lookup":
                healthy.append(future)
        results = await asyncio.gather(*healthy)
    return results


def healthy_stats(results):
    """(p99 latency in ms of the completed sessions, availability)."""
    completed = sorted(
        r.latency_s for r in results if r.status.value == "completed"
    )
    rank = max(1, round(0.99 * len(completed)))
    p99 = completed[rank - 1] * 1000 if completed else float("inf")
    return p99, len(completed) / len(results)


def test_flood_bulkhead_isolation(benchmark):
    runs = {}

    def both_floods():
        runs["on"] = healthy_stats(asyncio.run(_flood(True)))
        runs["off"] = healthy_stats(asyncio.run(_flood(False)))
        return runs

    benchmark.pedantic(both_floods, rounds=1, iterations=1)
    (p99_on, avail_on), (p99_off, avail_off) = runs["on"], runs["off"]

    # With bulkheads the healthy operation does not notice the flood...
    assert avail_on >= AVAILABILITY_GATE, (
        f"lookup availability {avail_on:.4f} beside the flood, with "
        f"bulkheads, below the {AVAILABILITY_GATE} gate"
    )
    # ...and without them it does, in availability and in its tail.
    assert avail_off <= avail_on - 0.05, (
        f"bulkheads should keep ≥5% more lookups available "
        f"(on {avail_on:.4f}, off {avail_off:.4f})"
    )
    assert p99_on <= p99_off / 2, (
        f"bulkheads should halve the lookup p99 (on {p99_on:.1f} ms, "
        f"off {p99_off:.1f} ms)"
    )

    report(
        f"E15 flood gate — {'full' if FULL else 'quick'} "
        f"(filter {FLOOD_RATE:g}/s delayed {FLOOD_DELAY_MS:g} ms, lookup "
        f"{HEALTHY_RATE:g}/s, {SCALE['flood_s']:g} s, ingress "
        f"{FLOOD_INGRESS})",
        [
            (f"limit {BULKHEAD_LIMIT}", f"{avail_on:.4f}", f"{p99_on:.1f}"),
            ("off", f"{avail_off:.4f}", f"{p99_off:.1f}"),
        ],
        headers=("bulkhead", "lookup availability", "lookup p99 ms"),
    )
    record_bench_artifact(
        "resilience_flood",
        {
            "mode": "full" if FULL else "quick",
            "flood_rate": FLOOD_RATE,
            "healthy_rate": HEALTHY_RATE,
            "flood_delay_ms": FLOOD_DELAY_MS,
            "flood_s": SCALE["flood_s"],
            "ingress_depth": FLOOD_INGRESS,
            "bulkhead_limit": BULKHEAD_LIMIT,
            "healthy_availability_on": round(avail_on, 4),
            "healthy_availability_off": round(avail_off, 4),
            "healthy_p99_ms_on": round(p99_on, 1),
            "healthy_p99_ms_off": round(p99_off, 1),
        },
        path=ARTIFACT,
    )
