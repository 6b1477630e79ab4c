#!/usr/bin/env python3
"""A QoS broker marketplace, end to end (paper Sec. 4, Fig. 6).

Providers publish QoS-enabled services to a UDDI-like registry; a client
asks the broker for a binding with required QoS; the broker runs the
five-step negotiation, signs an SLA with the best provider, composes a
two-stage pipeline, executes it under fault injection, and the SLA
monitor detects the violation when a provider suffers an outage —
closing the negotiate → bind → execute → monitor loop the paper sketches.

Also demonstrates the Fig. 5 graphical fuzzy agreement (provider and
client preference curves intersecting at 0.5) and a two-criteria
negotiation over the product semiring Weighted × Probabilistic.

Run:  python examples/broker_marketplace.py
"""

import zlib

from repro.constraints import (
    FunctionConstraint,
    Polynomial,
    integer_variable,
    polynomial_constraint,
)
from repro.sccp import interval
from repro.semirings import FuzzySemiring, WeightedSemiring, product_of
from repro.soa import (
    Broker,
    BurstOutage,
    ClientRequest,
    ExecutionEngine,
    FaultInjector,
    MessageBus,
    QoSDocument,
    QoSPolicy,
    Service,
    ServiceDescription,
    ServiceInterface,
    ServicePool,
    ServiceRegistry,
    SLAMonitor,
    fuzzy_agreement,
)


def publish_market(registry: ServiceRegistry) -> ServicePool:
    """Three compression providers and two archival providers."""
    pool = ServicePool()
    offers = [
        # (operation, provider, fixed cost, per-job cost, reliability)
        ("compress", "ACME", 4.0, 1.0, 0.97),
        ("compress", "Globex", 2.0, 2.0, 0.99),
        ("compress", "Initech", 6.0, 0.5, 0.90),
        ("archive", "ACME", 3.0, 1.0, 0.995),
        ("archive", "Hooli", 1.0, 3.0, 0.95),
    ]
    for operation, provider, fixed, variable_cost, reliability in offers:
        document = QoSDocument(
            service_name=operation,
            provider=provider,
            policies=[
                QoSPolicy(
                    attribute="cost",
                    variables={"jobs": range(0, 11)},
                    polynomial=Polynomial.linear(
                        {"jobs": variable_cost}, fixed
                    ),
                ),
                QoSPolicy(attribute="reliability", constant=reliability),
            ],
        )
        service_id = f"{operation}-{provider}"
        registry.publish(
            ServiceDescription(
                service_id=service_id,
                name=operation,
                provider=provider,
                interface=ServiceInterface(operation=operation),
                qos=document,
            )
        )
        pool.add(
            Service(
                registry.get(service_id),
                reliability=reliability,
                base_latency_ms=20.0,
                seed=zlib.crc32(service_id.encode()),
            )
        )
    return pool


def negotiate_binding(broker: Broker) -> None:
    print("— Step 1–5: single-service negotiation (Weighted cost) —")
    weighted = WeightedSemiring()
    jobs = integer_variable("jobs", 10)
    # Client policy: overhead grows with batch size; accept 0–25 EUR total.
    client_policy = polynomial_constraint(
        weighted, [jobs], Polynomial.linear({"jobs": 1.0})
    )
    request = ClientRequest(
        client="photo-shop",
        operation="compress",
        attribute="cost",
        requirements=[client_policy],
        acceptance=interval(weighted, lower=25.0, upper=0.0),
    )
    result = broker.negotiate(request, verify_scheduler_independence=True)
    print(f"  candidates: {[(e.provider, e.blevel) for e in result.evaluations]}")
    assert result.success and result.sla is not None
    print(
        f"  SLA#{result.sla.sla_id}: provider={result.sla.providers[0]}, "
        f"agreed cost level = {result.sla.agreed_level:g} at "
        f"{result.sla.resource_assignment}"
    )
    assert result.outcome is not None and result.outcome.scheduler_independent
    print("  ✓ nmsccp confirmation run is scheduler-independent")


def compose_and_monitor(broker: Broker, pool: ServicePool) -> None:
    print("— Composition + execution + SLA monitoring —")
    sla, plan, diagnostics = broker.negotiate_composition(
        client="photo-shop",
        slots=["compress", "archive"],
        attribute="reliability",
        minimum_level=0.90,
    )
    assert sla is not None and plan is not None
    print(
        f"  plan: {plan.describe()} — composite reliability "
        f"{sla.agreed_level:.4f} (per-candidate: "
        f"{ {k: round(v, 3) for k, v in diagnostics['offer_levels'].items()} })"
    )

    injector = FaultInjector(seed=11)
    # The chosen archive provider suffers a 12-tick outage mid-run.
    injector.attach(plan.services()[-1], BurstOutage(start=30, length=12))
    engine = ExecutionEngine(pool, injector=injector, seed=5)
    monitor = SLAMonitor(sla, window=20, min_samples=10)

    for report in engine.execute_many(plan, runs=80, payload="album.zip"):
        monitor.observe(report)

    print(
        f"  80 runs: observed availability {engine.observed_availability():.3f}, "
        f"mean latency {engine.mean_latency():.1f} ms"
    )
    print(
        f"  monitor: {len(monitor.violations)} violation(s); first: "
        f"{monitor.violations[0] if monitor.violations else '—'}"
    )
    assert monitor.violations, "the outage must trip the SLA monitor"
    print("  ✓ the injected outage is detected as an SLA violation")


def figure5_agreement() -> None:
    print("— Fig. 5: graphical fuzzy agreement —")
    fuzzy = FuzzySemiring()
    resource = integer_variable("resource", 9, lower=1)

    def provider_curve(amount: int) -> float:
        # Rising preference: providers like selling more resource.
        return {1: 0.0, 2: 0.1, 3: 0.2, 4: 0.3, 5: 0.5,
                6: 0.7, 7: 0.8, 8: 0.9, 9: 1.0}[amount]

    def client_curve(amount: int) -> float:
        # Falling preference: clients like paying for less.
        return {1: 1.0, 2: 0.9, 3: 0.8, 4: 0.7, 5: 0.5,
                6: 0.3, 7: 0.2, 8: 0.1, 9: 0.0}[amount]

    provider = FunctionConstraint(fuzzy, (resource,), provider_curve, name="Cp")
    client = FunctionConstraint(fuzzy, (resource,), client_curve, name="Cc")
    combined, blevel = fuzzy_agreement(provider, client)
    print(f"  blevel of Cp ⊗ Cc = {blevel} (paper: 0.5 at the intersection)")
    assert blevel == 0.5
    best = [
        assignment["resource"]
        for assignment, value in combined.enumerate_values()
        if value == blevel
    ]
    print(f"  agreement reached at resource = {best}")
    print("  ✓ the best shared level is the curves' crossing point")


def multicriteria_negotiation(broker: Broker) -> None:
    print("— Multi-criteria: cost × reliability (product semiring) —")
    pair = product_of("weighted", "probabilistic")
    jobs = integer_variable("jobs", 10)

    def client_pref(j: int):
        return (float(j), 1.0)  # cost grows with jobs; no reliability penalty

    client_policy = FunctionConstraint(pair, (jobs,), client_pref, name="client")
    request = ClientRequest(
        client="photo-shop",
        operation="compress",
        attribute="cost",  # document lookup key; semiring overridden below
        requirements=[client_policy],
        semiring=pair,
    )
    # Providers publish cost and reliability separately; fold them into
    # product-semiring offers by hand for this demo.
    evaluations = []
    for description in broker.registry.find(operation="compress"):
        cost_policy = description.qos.policy_for("cost")
        rel_policy = description.qos.policy_for("reliability")
        poly = cost_policy.polynomial

        def offer(j, poly=poly, rel=rel_policy.constant):
            return (poly.evaluate({"jobs": j}), rel)

        offer_constraint = FunctionConstraint(
            pair, (jobs,), offer, name=description.provider
        )
        combined = client_policy.combine(offer_constraint)
        frontier = pair.max_elements(
            value for _, value in combined.enumerate_values()
        )
        evaluations.append((description.provider, frontier))
    for provider, frontier in evaluations:
        print(f"  {provider:<8} Pareto frontier: {frontier}")
    print("  ✓ incomparable cost/reliability trade-offs surface as a frontier")


def main() -> None:
    registry = ServiceRegistry()
    pool = publish_market(registry)
    broker = Broker(registry, bus=MessageBus())
    negotiate_binding(broker)
    compose_and_monitor(broker, pool)
    figure5_agreement()
    multicriteria_negotiation(broker)


if __name__ == "__main__":
    main()
