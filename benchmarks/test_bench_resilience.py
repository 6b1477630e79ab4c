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
  lands in the window burns its retries against the dead provider and
  degrades to a stale SLA, so availability measurably drops.

Quick mode (default, CI-sized) serves 48 sessions over 2 shards; set
``REPRO_BENCH_FULL=1`` for the E14-sized trace (640 sessions, 4
shards).  Results land in ``benchmarks/.out/BENCH_PR7.json``.
"""

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
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

SCALE = {
    "quick": {"sessions": 48, "shards": 2, "outage": (8, 16)},
    "full": {"sessions": 640, "shards": 4, "outage": (64, 256)},
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


def build_market():
    registry = ServiceRegistry()
    for provider, base in PROVIDERS.items():
        registry.publish(
            ServiceDescription(
                service_id=f"filter-{provider}",
                name="filter",
                provider=provider,
                interface=ServiceInterface(operation="filter"),
                qos=QoSDocument(
                    service_name="filter",
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
    return registry


def make_requests(count):
    weighted = WeightedSemiring()
    x = integer_variable("x", 10)
    requirement = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": 2})
    )
    return [
        ClientRequest(
            client=f"client-{i}",
            operation="filter",
            attribute="cost",
            requirements=[requirement],
        )
        for i in range(count)
    ]


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

    # No session may be dropped outright in either configuration.
    for results in (enabled_results, disabled_results):
        assert len(results) == SCALE["sessions"]
        assert all(result.ok for result in results)

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
            ("enabled", f"{on:.4f}", snapshot["breakers"].get("P0", "-"),
             snapshot["dlq"]["depth"]),
            ("disabled", f"{off:.4f}", "-", "-"),
        ],
        headers=("resilience", "availability", "P0 breaker", "dlq depth"),
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
