"""Command-line interface: ``python -m repro.cli <command> …``.

Exposes the library's main flows over JSON files (the wire format of
:mod:`repro.serialization`):

* ``solve PROBLEM.json``        — solve an SCSP, print blevel + optima;
* ``coalitions NETWORK.json``   — best (stable) partition of a trust net;
* ``negotiate MARKET.json``     — run the broker over a market spec;
* ``runtime MARKET.json``       — serve concurrent sessions of a market
  through the asyncio runtime (admission, deadlines, retry, faults);
* ``loadgen``                   — drive the runtime with a synthetic
  client population and report throughput + latency percentiles;
* ``fleet``                     — serve the same load through a sharded
  multi-broker fleet (consistent-hash routing, two-tier solve cache);
* ``dlq``                       — inspect or replay a dead-letter file
  captured by a resilient serving run;
* ``slo MARKET.json``           — SLO analytics for a composition plan:
  composite bound, unachievable-SLO verdict with remediation guidance,
  per-stage error-budget breakdown, observation-discounted levels;
* ``validate-semiring NAME``    — check the semiring laws on a sample.

The serving commands (``runtime``/``loadgen``/``fleet``) accept the
resilience flags (``--resilience``, ``--breaker-*``, ``--bulkhead-*``,
``--health-*``, ``--hedge-*``, ``--dlq``/``--dlq-out``) described in
``docs/resilience.md``.

Each command reads JSON and prints a JSON result on stdout, so the tools
compose in shell pipelines.  Exit status 0 = the engine ran and found an
answer; 1 = well-formed input but no solution (inconsistent problem,
failed negotiation, no stable partition found); 2 = bad input,
including a flag value out of its range (rejected while the arguments
are parsed, before any market is built).

Observability (any command): ``--telemetry`` collects metrics and spans
for the run and embeds the snapshot under a ``"telemetry"`` key in the
output; ``--trace-out PATH`` writes the span/event journal as JSON
lines; ``--prometheus-out PATH`` writes the metrics in Prometheus text
format.  Both paths are checked before the command runs: one that cannot
be written exits 2 with nothing printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, NoReturn, Optional, Tuple

from . import serialization
from .coalitions import solve_engine, solve_exact, solve_local_search
from .sccp.check import CheckSpec
from .semirings.properties import validate_semiring
from .semirings.registry import get_semiring
from .soa.broker import Broker, BrokerError, ClientRequest
from .soa.registry import RegistryError, ServiceRegistry
from .soa.service import ServiceDescription, ServiceInterface
from .solver import solve
from .telemetry import (
    TelemetrySession,
    snapshot as telemetry_snapshot,
    telemetry_session,
    write_prometheus,
    write_trace_jsonl,
)

#: The session active for the current command (set by ``main``); when
#: present, ``_emit`` attaches its snapshot to the printed payload.
_session: Optional[TelemetrySession] = None


def _bad_input(message: str) -> NoReturn:
    """Report bad input on stderr and exit with the documented status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _bad_input(f"cannot read {path}: {exc}")


def _unwritable(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or ``None`` when it can."""
    target = Path(path)
    if target.is_dir():
        return "is a directory"
    parent = target.parent
    if not parent.is_dir():
        return f"directory {str(parent)!r} does not exist"
    if not os.access(target if target.exists() else parent, os.W_OK):
        return "permission denied"
    return None


def _emit(payload: Dict[str, Any]) -> None:
    if _session is not None:
        payload = {
            **payload,
            "telemetry": telemetry_snapshot(
                _session.registry, _session.tracer, _session.events
            ),
        }
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    problem = serialization.problem_from_dict(_read_json(args.problem))
    result = solve(problem, method=args.method)
    _emit(
        {
            "problem": problem.name,
            "method": result.method,
            "blevel": serialization.value_to_json(result.blevel),
            "consistent": result.is_consistent,
            "optima": [
                [
                    {
                        name: serialization.value_to_json(value)
                        for name, value in assignment.items()
                    }
                    for assignment in group
                ]
                for group in result.optima
            ],
            "stats": {
                "leaves_evaluated": result.stats.leaves_evaluated,
                "nodes_expanded": result.stats.nodes_expanded,
                "prunes": result.stats.prunes,
            },
        }
    )
    return 0 if result.is_consistent else 1


def cmd_coalitions(args: argparse.Namespace) -> int:
    network = serialization.trust_network_from_dict(
        _read_json(args.network)
    )
    if args.method == "exact":
        solution = solve_exact(
            network, op=args.op, aggregate=args.aggregate
        )
    elif args.method == "engine":
        solution = solve_engine(
            network,
            op=args.op,
            aggregate=args.aggregate,
            seed=args.seed,
            restarts=args.restarts,
            max_iterations=args.max_iterations,
            neighbour_sample=args.neighbour_sample,
            workers=args.workers,
        )
    else:
        solution = solve_local_search(
            network,
            op=args.op,
            aggregate=args.aggregate,
            seed=args.seed,
            restarts=args.restarts,
            max_iterations=args.max_iterations,
            neighbour_sample=args.neighbour_sample,
        )
    _emit(serialization.coalition_solution_to_dict(solution))
    # "No solution" covers the heuristics ending on an unstable local
    # optimum, not just exact search proving no stable partition exists
    # — a partition with blocking coalitions is not a valid Def. 4
    # answer, merely the best one seen.
    return 0 if solution.found and solution.stable else 1


def _market_registry(market: Dict[str, Any]) -> ServiceRegistry:
    """Publish every service of a market spec into a fresh registry."""
    registry = ServiceRegistry()
    for entry in market.get("services", []):
        document = serialization.qos_document_from_dict(entry["qos"])
        registry.publish(
            ServiceDescription(
                service_id=entry["service_id"],
                name=entry.get("name", document.service_name),
                provider=document.provider,
                interface=ServiceInterface(operation=entry["operation"]),
                qos=document,
                tags=tuple(entry.get("tags", ())),
            )
        )
    return registry


def _market_request(market: Dict[str, Any]) -> ClientRequest:
    """The client request of a market spec."""
    spec = market["request"]
    from .soa.qos import resolve_attribute

    semiring = resolve_attribute(spec["attribute"]).semiring()
    acceptance = None
    if "acceptance" in spec:
        acceptance = CheckSpec(
            semiring,
            lower=serialization.value_from_json(
                spec["acceptance"].get("lower")
            ),
            upper=serialization.value_from_json(
                spec["acceptance"].get("upper")
            ),
        )
    return ClientRequest(
        client=spec.get("client", "cli"),
        operation=spec["operation"],
        attribute=spec["attribute"],
        acceptance=acceptance,
    )


def _load_market(path: str) -> Dict[str, Any]:
    market = _read_json(path)
    if not isinstance(market, dict) or market.get("kind") != "market":
        _bad_input("payload is not a market spec")
    return market


def cmd_negotiate(args: argparse.Namespace) -> int:
    market = _load_market(args.market)
    registry = _market_registry(market)
    request = _market_request(market)
    broker = _broker(args, registry)
    result = broker.negotiate(
        request,
        verify_scheduler_independence=getattr(
            args, "verify_independence", False
        ),
    )
    _emit(
        {
            "success": result.success,
            "detail": result.detail,
            "sla": None
            if result.sla is None
            else {
                "sla_id": result.sla.sla_id,
                "providers": list(result.sla.providers),
                "service_ids": list(result.sla.service_ids),
                "agreed_level": serialization.value_to_json(
                    result.sla.agreed_level
                ),
            },
            "evaluations": [
                {
                    "provider": evaluation.provider,
                    "service_id": evaluation.description.service_id,
                    "blevel": serialization.value_to_json(evaluation.blevel),
                    "accepted": evaluation.accepted,
                }
                for evaluation in result.evaluations
            ],
        }
    )
    return 0 if result.success else 1


def _broker(
    args: argparse.Namespace, registry: ServiceRegistry
) -> Broker:
    """A broker honouring the ``--solve-cache``/``--allocation-policy``
    flags."""
    allocation = getattr(args, "allocation_policy", None)
    rounds = None
    if allocation is not None:
        from .runtime.batching import BatchConfig

        rounds = BatchConfig(
            window_ms=args.batch_window_ms, max_batch=args.batch_max
        )
    return Broker(
        registry,
        solve_cache=args.solve_cache,
        allocation_policy=allocation,
        rounds=rounds,
    )


def _build_injector(
    args: argparse.Namespace, registry: ServiceRegistry
) -> Optional["FaultInjector"]:
    """Fault injector from the ``--fault-*`` flags, attached to every
    published service; ``None`` when no fault flag was given."""
    from .soa.faults import (
        BernoulliCrash,
        BurstOutage,
        FaultInjector,
        RandomDelay,
    )

    models = []
    if args.fault_crash is not None:
        models.append(BernoulliCrash(args.fault_crash))
    if args.fault_outage is not None:
        models.append(BurstOutage(*args.fault_outage))
    if args.fault_delay is not None:
        models.append(RandomDelay(*args.fault_delay))
    if not models:
        return None
    injector = FaultInjector(seed=args.seed)
    for description in registry.find():
        for model in models:
            injector.attach(description.service_id, model)
    return injector


def _resilience_config(
    args: argparse.Namespace,
) -> "Optional[ResilienceConfig]":
    """Resilience layer from the ``--breaker-*``/``--bulkhead-*``/
    ``--health-*``/``--hedge-*``/``--dlq*`` flags.

    ``--resilience`` turns every pattern on at its defaults; otherwise
    each pattern activates when one of its own flags is given.  Returns
    ``None`` (the exact pre-resilience serving path) when nothing asked
    for it.
    """
    from .resilience import (
        BreakerConfig,
        BulkheadConfig,
        DLQConfig,
        HealthConfig,
        HedgeConfig,
        ResilienceConfig,
    )

    everything = args.resilience
    breaker = None
    if everything or args.breaker_threshold or args.breaker_recovery:
        breaker = BreakerConfig(
            failure_threshold=args.breaker_threshold or 3,
            recovery_s=(
                args.breaker_recovery
                if args.breaker_recovery is not None
                else 0.25
            ),
        )
    bulkhead = None
    if everything or args.bulkhead_limit:
        bulkhead = BulkheadConfig(default_limit=args.bulkhead_limit or 16)
    health = None
    if everything or args.health_interval or args.health_unhealthy_after:
        health = HealthConfig(
            interval_s=args.health_interval or 0.05,
            unhealthy_after=args.health_unhealthy_after or 2,
        )
    hedge = None
    if everything or args.hedge_delay or args.hedge_percentile:
        hedge = HedgeConfig(
            delay_s=(
                args.hedge_delay if args.hedge_delay is not None else 0.1
            ),
            percentile=args.hedge_percentile or 95.0,
        )
    dlq = None
    if everything or args.dlq or args.dlq_out:
        dlq = DLQConfig()
    if not any((breaker, bulkhead, health, hedge, dlq)):
        return None
    return ResilienceConfig(
        breaker=breaker,
        bulkhead=bulkhead,
        health=health,
        hedge=hedge,
        dlq=dlq,
    )


def _write_dlq(args: argparse.Namespace, dlq: Any) -> Optional[str]:
    """Persist the captured dead letters when ``--dlq-out`` was given."""
    if dlq is None or not getattr(args, "dlq_out", None):
        return None
    return str(dlq.to_jsonl(args.dlq_out))


def _runtime_config(args: argparse.Namespace) -> "RuntimeConfig":
    from .runtime import RetryPolicy, RuntimeConfig

    return RuntimeConfig(
        workers=args.workers,
        max_queue_depth=args.queue,
        deadline_s=args.deadline if args.deadline > 0 else None,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            base_backoff_s=args.base_backoff,
        ),
        seed=args.seed,
        verify_independence=getattr(args, "verify_independence", False),
    )


def _session_summary(result: "SessionResult") -> Dict[str, Any]:
    return {
        "index": result.index,
        "client": result.request.client,
        "status": result.status.value,
        "attempts": result.attempts,
        "retries": result.retries,
        "sla_id": None if result.sla is None else result.sla.sla_id,
        "agreed_level": None
        if result.sla is None
        else serialization.value_to_json(result.sla.agreed_level),
        "queue_wait_s": round(result.queue_wait_s, 6),
        "latency_s": round(result.latency_s, 6),
        "detail": result.detail,
    }


def cmd_runtime(args: argparse.Namespace) -> int:
    """Serve N copies of a market's request through the runtime."""
    from .runtime import RuntimeServer, SessionStatus

    market = _load_market(args.market)
    registry = _market_registry(market)
    request = _market_request(market)
    injector = _build_injector(args, registry)
    server = RuntimeServer(
        _broker(args, registry),
        _runtime_config(args),
        injector=injector,
        resilience=_resilience_config(args),
    )
    template = request
    requests = [
        ClientRequest(
            client=f"{template.client}-{index}",
            operation=template.operation,
            attribute=template.attribute,
            requirements=template.requirements,
            acceptance=template.acceptance,
        )
        for index in range(args.requests)
    ]
    results = server.run(requests)
    outcomes: Dict[str, int] = {}
    for result in results:
        key = result.status.value
        outcomes[key] = outcomes.get(key, 0) + 1
    served = outcomes.get(SessionStatus.COMPLETED.value, 0) + outcomes.get(
        SessionStatus.DEGRADED.value, 0
    )
    payload = {
        "requests": len(results),
        "outcomes": outcomes,
        "retries_total": sum(result.retries for result in results),
        "sessions": [_session_summary(result) for result in results],
    }
    if server.resilience.config.any_enabled:
        payload["resilience"] = server.resilience.snapshot()
        dlq_path = _write_dlq(args, server.resilience.dlq)
        if dlq_path is not None:
            payload["dlq_out"] = dlq_path
    _emit(payload)
    return 0 if served == len(results) else 1


def _synthetic_market(args: argparse.Namespace):
    """The synthetic market + request factory for loadgen/fleet runs:
    the default polynomial-cost market, or (``--contention``) the
    decreasing-quality contention market the fairness scenario uses."""
    from .runtime import (
        contention_request_factory,
        synthesize_contention_market,
        synthesize_market,
        synthetic_request_factory,
    )

    if getattr(args, "contention", False):
        return (
            synthesize_contention_market(
                providers=args.contention_providers
            ),
            contention_request_factory(),
        )
    return synthesize_market(seed=args.seed), synthetic_request_factory()


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Measure the runtime under a synthetic client population."""
    from .runtime import LoadGenerator, LoadProfile, RuntimeServer

    if args.market is not None:
        market = _load_market(args.market)
        registry = _market_registry(market)
        template = _market_request(market)

        def factory(client: str, index: int) -> ClientRequest:
            return ClientRequest(
                client=client,
                operation=template.operation,
                attribute=template.attribute,
                requirements=template.requirements,
                acceptance=template.acceptance,
            )

    else:
        registry, factory = _synthetic_market(args)

    injector = _build_injector(args, registry)
    server = RuntimeServer(
        _broker(args, registry),
        _runtime_config(args),
        injector=injector,
        resilience=_resilience_config(args),
    )
    profile = LoadProfile(
        clients=args.clients,
        requests=args.requests,
        mode=args.mode,
        rate=args.rate,
        think_time_s=args.think_time,
        seed=args.seed,
    )
    generator = LoadGenerator(server, profile, factory)
    report = generator.run_sync()
    payload = report.to_dict()
    if server.resilience.config.any_enabled:
        payload["resilience"] = server.resilience.snapshot()
        dlq_path = _write_dlq(args, server.resilience.dlq)
        if dlq_path is not None:
            payload["dlq_out"] = dlq_path
    _emit(payload)
    return 0 if report.completed + report.degraded > 0 else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    """Measure a sharded broker fleet under synthetic load."""
    from .fleet import FleetConfig, FleetFrontend, FleetLoadGenerator
    from .runtime import LoadProfile, RetryPolicy

    if args.market is not None:
        market = _load_market(args.market)
        registry = _market_registry(market)
        template = _market_request(market)

        def factory(client: str, index: int) -> ClientRequest:
            return ClientRequest(
                client=client,
                operation=template.operation,
                attribute=template.attribute,
                requirements=template.requirements,
                acceptance=template.acceptance,
            )

    else:
        registry, factory = _synthetic_market(args)

    rounds = None
    if args.allocation_policy is not None:
        from .runtime.batching import BatchConfig

        rounds = BatchConfig(
            window_ms=args.batch_window_ms, max_batch=args.batch_max
        )
    config = FleetConfig(
        shards=args.shards,
        vnodes=args.vnodes,
        workers_per_shard=args.workers,
        ingress_depth=args.queue,
        dispatch_depth=args.dispatch_depth,
        deadline_s=args.deadline if args.deadline > 0 else None,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            base_backoff_s=args.base_backoff,
        ),
        seed=args.seed,
        l2_cache=args.l2_cache,
        route_by=args.route_by,
        allocation_policy=args.allocation_policy,
        rounds=rounds,
        resilience=_resilience_config(args),
    )
    # Every shard gets its own injector built from the same flags, so
    # fault behaviour stays keyed to the session, not the shard.
    frontend = FleetFrontend(
        registry,
        config,
        injector_factory=lambda shard_id: _build_injector(args, registry),
    )
    profile = LoadProfile(
        clients=args.clients,
        requests=args.requests,
        mode=args.mode,
        rate=args.rate,
        think_time_s=args.think_time,
        seed=args.seed,
    )
    generator = FleetLoadGenerator(frontend, profile, factory)
    report = generator.run_sync()
    payload = report.to_dict()
    if config.resilience is not None:
        payload["resilience"] = frontend.resilience_snapshot()
        dlq_path = _write_dlq(args, frontend.dlq)
        if dlq_path is not None:
            payload["dlq_out"] = dlq_path
    _emit(payload)
    fleet = report.fleet
    return 0 if fleet.completed + fleet.degraded > 0 else 1


def _slo_plan(args: argparse.Namespace, market: Dict[str, Any]):
    """The plan to analyze: ``--plan PATH``, the market's ``plan`` entry,
    or the ``--pipeline id,id,…`` shorthand."""
    if getattr(args, "plan", None):
        return serialization.plan_from_dict(_read_json(args.plan))
    if getattr(args, "pipeline", None):
        from .soa.composition import pipeline as make_pipeline

        return make_pipeline(*args.pipeline.split(","))
    if "plan" in market:
        return serialization.plan_from_dict(market["plan"])
    _bad_input(
        "no plan to analyze — pass --plan PATH or "
        "--pipeline IDS, or add a 'plan' entry to the market spec"
    )


def cmd_slo(args: argparse.Namespace) -> int:
    from .slo import SLOError, render_text

    market = _load_market(args.market)
    registry = _market_registry(market)
    plan = _slo_plan(args, market)
    for service_id, window in market.get("observations", {}).items():
        registry.record_observations(
            service_id,
            int(window.get("attempts", 0)),
            int(window.get("failures", 0)),
        )
    broker = _broker(args, registry)
    try:
        report = broker.slo_report(
            plan,
            args.target,
            attribute=args.attribute,
            use_observations=not args.trust_published,
            buffer=args.buffer,
            min_attempts=args.min_attempts,
            choose=args.choose,
            flag_share=args.flag_share,
        )
    except (SLOError, BrokerError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        print(render_text(report))
    else:
        _emit(report.to_dict())
    return 0 if report.achievable else 1


def cmd_dlq(args: argparse.Namespace) -> int:
    """Inspect or replay a dead-letter JSONL file.

    ``inspect`` summarizes the envelopes; ``replay`` re-drives every
    replayable one against the (recovered) market's broker and reports
    the agreement each session would have signed.
    """
    from .resilience import DeadLetterQueue

    queue = DeadLetterQueue.from_jsonl(args.file)
    if args.action == "inspect":
        _emit(
            {
                "file": args.file,
                "stats": queue.stats(),
                "letters": [letter.to_dict() for letter in queue],
            }
        )
        return 0
    if args.market is None:
        _bad_input("replay requires --market")
    market = _load_market(args.market)
    registry = _market_registry(market)
    broker = _broker(args, registry)
    rows = queue.replay(broker)
    completed = sum(1 for row in rows if row["outcome"] == "completed")
    replayable = sum(1 for letter in queue if letter.replayable)
    _emit(
        {
            "file": args.file,
            "replayed": len(rows),
            "completed": completed,
            "results": rows,
        }
    )
    return 0 if rows and completed == replayable else 1


def cmd_validate_semiring(args: argparse.Namespace) -> int:
    kwargs: Dict[str, Any] = {}
    if args.universe:
        kwargs["universe"] = args.universe.split(",")
    if args.cap is not None:
        kwargs["cap"] = args.cap
    semiring = get_semiring(args.name, **kwargs)
    report = validate_semiring(semiring)
    _emit(
        {
            "semiring": semiring.name,
            "ok": report.ok,
            "violations": [str(v) for v in report.violations],
        }
    )
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Flag value types: a value out of its range is rejected while the
# arguments are parsed (exit 2, the flag named on stderr).
# ----------------------------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """An ``int`` flag type accepting values of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    parse.__name__ = "integer"
    return parse


def _real(
    low: float = 0.0, high: float = math.inf, strict: bool = False
) -> Callable[[str], float]:
    """A finite ``float`` flag type in ``[low, high]`` (``(low, high]``
    when ``strict``)."""
    if high == math.inf:
        bound = f"{'>' if strict else '>='} {low:g}"
    else:
        bound = f"in {'(' if strict else '['}{low:g}, {high:g}]"

    def parse(text: str) -> float:
        value = float(text)
        if (
            not math.isfinite(value)
            or value < low
            or (strict and value == low)
            or value > high
        ):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound}, got {text}"
            )
        return value

    parse.__name__ = "number"
    return parse


_POSITIVE_INT = _int_at_least(1)
_NON_NEGATIVE = _real()
_POSITIVE = _real(strict=True)
_PROBABILITY = _real(0.0, 1.0)
_SHARE = _real(0.0, 1.0, strict=True)


def _outage(text: str) -> Tuple[int, int]:
    """``START:LENGTH`` of ``--fault-outage``: START >= 0, LENGTH >= 1."""
    try:
        start, length = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects START:LENGTH (integers), got {text}"
        ) from None
    if start < 0 or length < 1:
        raise argparse.ArgumentTypeError(
            f"needs START >= 0 and LENGTH >= 1, got {text}"
        )
    return start, length


def _delay(text: str) -> Tuple[float, float]:
    """``PROB:MS`` of ``--fault-delay``: a probability and a finite
    non-negative delay."""
    try:
        prob, extra_ms = text.split(":")
        return _PROBABILITY(prob), _NON_NEGATIVE(extra_ms)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expects PROB:MILLISECONDS with PROB in [0, 1] and "
            f"MILLISECONDS >= 0, got {text}"
        ) from None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Soft constraints for dependable SOAs — CLI",
    )
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--telemetry",
        action="store_true",
        help="collect metrics/spans and embed the snapshot in the output",
    )
    observability.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the span/event journal as JSON lines (implies "
        "--telemetry)",
    )
    observability.add_argument(
        "--prometheus-out",
        default=None,
        metavar="PATH",
        help="write metrics in Prometheus text format (implies "
        "--telemetry)",
    )
    broker_opts = argparse.ArgumentParser(add_help=False)
    broker_opts.add_argument(
        "--solve-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoize broker solves under a canonical problem fingerprint",
    )
    broker_opts.add_argument(
        "--batch-window-ms",
        type=_NON_NEGATIVE,
        default=2.0,
        metavar="MS",
        help="how long an allocation round's leader waits for "
        "followers before dispatching (with --allocation-policy)",
    )
    broker_opts.add_argument(
        "--batch-max",
        type=_POSITIVE_INT,
        default=32,
        metavar="N",
        help="hard cap on sessions coalesced into one allocation round "
        "(with --allocation-policy)",
    )
    broker_opts.add_argument(
        "--allocation-policy",
        default=None,
        choices=("greedy", "fair"),
        help="serve sessions through coalesced allocation rounds: "
        "greedy replays per-session agreements exactly, fair solves "
        "one joint lexicographic ⟨min satisfaction, welfare⟩ SCSP "
        "per round (default: legacy per-session path)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve",
        help="solve a JSON SCSP",
        parents=[observability],
    )
    p_solve.add_argument("problem", help="path to an scsp JSON file")
    p_solve.add_argument(
        "--method",
        default="auto",
        choices=("auto", "exhaustive", "branch-bound", "elimination"),
    )
    p_solve.set_defaults(fn=cmd_solve)

    p_coal = sub.add_parser(
        "coalitions",
        help="partition a JSON trust network",
        parents=[observability],
    )
    p_coal.add_argument("network", help="path to a trust-network JSON file")
    p_coal.add_argument(
        "--method",
        default="exact",
        choices=("exact", "local-search", "engine"),
    )
    p_coal.add_argument("--op", default="avg", choices=("min", "avg", "max"))
    p_coal.add_argument(
        "--aggregate", default="min", choices=("min", "avg", "max")
    )
    p_coal.add_argument("--seed", type=int, default=0)
    p_coal.add_argument(
        "--restarts",
        type=_POSITIVE_INT,
        default=3,
        help="hill-climb restarts",
    )
    p_coal.add_argument(
        "--max-iterations",
        type=_int_at_least(0),
        default=200,
        help="climb steps per restart",
    )
    p_coal.add_argument(
        "--neighbour-sample",
        type=_POSITIVE_INT,
        default=64,
        help="candidate moves scored per step",
    )
    p_coal.add_argument(
        "--workers",
        type=_POSITIVE_INT,
        default=1,
        help="portfolio threads for --method engine "
        "(the result is worker-count independent)",
    )
    p_coal.set_defaults(fn=cmd_coalitions)

    p_neg = sub.add_parser(
        "negotiate",
        help="run the broker over a JSON market",
        parents=[observability, broker_opts],
    )
    p_neg.add_argument("market", help="path to a market JSON file")
    p_neg.add_argument(
        "--verify-independence",
        action="store_true",
        help="re-run the winner as nmsccp agents and certify the outcome "
        "is scheduler-independent",
    )
    p_neg.set_defaults(fn=cmd_negotiate)

    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument(
        "--workers", type=_POSITIVE_INT, default=4, help="worker pool size"
    )
    serving.add_argument(
        "--queue",
        type=_POSITIVE_INT,
        default=256,
        metavar="DEPTH",
        help="admission queue bound (full queue ⇒ typed overload)",
    )
    serving.add_argument(
        "--deadline",
        type=_NON_NEGATIVE,
        default=30.0,
        metavar="SECONDS",
        help="per-session deadline; 0 disables it",
    )
    serving.add_argument(
        "--max-attempts",
        type=_POSITIVE_INT,
        default=3,
        help="attempts per session before degradation",
    )
    serving.add_argument(
        "--base-backoff",
        type=_NON_NEGATIVE,
        default=0.05,
        metavar="SECONDS",
        help="first retry backoff (doubles per attempt, jittered)",
    )
    serving.add_argument(
        "--seed", type=int, default=None, help="master RNG seed"
    )
    serving.add_argument(
        "--fault-crash",
        type=_PROBABILITY,
        default=None,
        metavar="PROB",
        help="attach BernoulliCrash(PROB) to every service",
    )
    serving.add_argument(
        "--fault-outage",
        type=_outage,
        default=None,
        metavar="START:LENGTH",
        help="attach BurstOutage over admission-order ticks",
    )
    serving.add_argument(
        "--fault-delay",
        type=_delay,
        default=None,
        metavar="PROB:MS",
        help="attach RandomDelay(PROB, MS) to every service",
    )

    resilience = argparse.ArgumentParser(add_help=False)
    resilience.add_argument(
        "--resilience",
        action="store_true",
        help="enable every resilience pattern at its defaults "
        "(breakers, bulkheads, health checks, hedging, DLQ)",
    )
    resilience.add_argument(
        "--breaker-threshold",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="consecutive failures tripping a provider's circuit "
        "breaker (enables breakers)",
    )
    resilience.add_argument(
        "--breaker-recovery",
        type=_NON_NEGATIVE,
        default=None,
        metavar="SECONDS",
        help="open-state duration before a half-open probe "
        "(enables breakers)",
    )
    resilience.add_argument(
        "--bulkhead-limit",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="in-flight sessions allowed per service class "
        "(enables bulkheads)",
    )
    resilience.add_argument(
        "--health-interval",
        type=_POSITIVE,
        default=None,
        metavar="SECONDS",
        help="heartbeat probe period (enables health-checked "
        "matchmaking)",
    )
    resilience.add_argument(
        "--health-unhealthy-after",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="failed probe sweeps before quarantine (enables health "
        "checks)",
    )
    resilience.add_argument(
        "--hedge-delay",
        type=_NON_NEGATIVE,
        default=None,
        metavar="SECONDS",
        help="fallback shadow-solve launch delay (enables hedging)",
    )
    resilience.add_argument(
        "--hedge-percentile",
        type=_real(0.0, 100.0, strict=True),
        default=None,
        metavar="P",
        help="latency percentile setting the adaptive hedge delay "
        "(enables hedging)",
    )
    resilience.add_argument(
        "--dlq",
        action="store_true",
        help="capture terminally failed sessions in a dead-letter queue",
    )
    resilience.add_argument(
        "--dlq-out",
        default=None,
        metavar="PATH",
        help="write captured dead letters as JSON lines (implies --dlq)",
    )

    p_rt = sub.add_parser(
        "runtime",
        help="serve concurrent sessions of a JSON market",
        parents=[observability, serving, resilience, broker_opts],
    )
    p_rt.add_argument("market", help="path to a market JSON file")
    p_rt.add_argument(
        "--requests",
        type=_POSITIVE_INT,
        default=10,
        metavar="N",
        help="concurrent sessions to serve",
    )
    p_rt.add_argument(
        "--verify-independence",
        action="store_true",
        help="certify each winner as scheduler-independent (slow)",
    )
    p_rt.set_defaults(fn=cmd_runtime)

    loadshape = argparse.ArgumentParser(add_help=False)
    loadshape.add_argument(
        "--market",
        default=None,
        metavar="PATH",
        help="market JSON to serve (default: synthetic 4-provider market)",
    )
    loadshape.add_argument(
        "--clients",
        type=_POSITIVE_INT,
        default=10,
        help="client population size",
    )
    loadshape.add_argument(
        "--requests",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="total sessions (default: one per client)",
    )
    loadshape.add_argument(
        "--mode", default="open", choices=("open", "closed")
    )
    loadshape.add_argument(
        "--rate",
        type=_POSITIVE,
        default=50.0,
        metavar="RPS",
        help="open loop: mean Poisson arrival rate",
    )
    loadshape.add_argument(
        "--think-time",
        type=_NON_NEGATIVE,
        default=0.0,
        metavar="SECONDS",
        help="closed loop: pause between a client's requests",
    )
    loadshape.add_argument(
        "--contention",
        action="store_true",
        help="use the synthetic contention market (decreasing-quality "
        "providers for one operation) instead of the default synthetic "
        "market — the fairness scenario for --allocation-policy",
    )
    loadshape.add_argument(
        "--contention-providers",
        type=_int_at_least(2),
        default=3,
        metavar="N",
        help="provider count of the contention market",
    )

    p_lg = sub.add_parser(
        "loadgen",
        help="measure the runtime under synthetic load",
        parents=[
            observability,
            serving,
            resilience,
            loadshape,
            broker_opts,
        ],
    )
    p_lg.set_defaults(fn=cmd_loadgen)

    p_fleet = sub.add_parser(
        "fleet",
        help="measure a sharded broker fleet under synthetic load",
        parents=[
            observability,
            serving,
            resilience,
            loadshape,
            broker_opts,
        ],
    )
    p_fleet.add_argument(
        "--shards",
        type=_POSITIVE_INT,
        default=2,
        help="broker shard count",
    )
    p_fleet.add_argument(
        "--vnodes",
        type=_POSITIVE_INT,
        default=64,
        help="virtual nodes per shard on the consistent-hash ring",
    )
    p_fleet.add_argument(
        "--dispatch-depth",
        type=_POSITIVE_INT,
        default=64,
        metavar="DEPTH",
        help="per-shard dispatch queue bound",
    )
    p_fleet.add_argument(
        "--l2-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share one fleet-wide L2 solve cache across shards "
        "(per-shard L1s become a two-tier stack)",
    )
    p_fleet.add_argument(
        "--route-by",
        default="session",
        choices=("session", "operation"),
        help="ring routing key: per-session spread or per-operation "
        "ownership",
    )
    p_fleet.set_defaults(fn=cmd_fleet)

    p_dlq = sub.add_parser(
        "dlq",
        help="inspect or replay a dead-letter JSONL file",
        parents=[observability, broker_opts],
    )
    p_dlq.add_argument(
        "action", choices=("inspect", "replay"), help="what to do"
    )
    p_dlq.add_argument("file", help="path to a dead-letter JSONL file")
    p_dlq.add_argument(
        "--market",
        default=None,
        metavar="PATH",
        help="market JSON to replay against (required for replay)",
    )
    p_dlq.set_defaults(fn=cmd_dlq)

    p_slo = sub.add_parser(
        "slo",
        help="SLO analytics for a composition plan over a market",
        parents=[observability, broker_opts],
    )
    p_slo.add_argument("market", help="path to a market JSON file")
    p_slo.add_argument(
        "--target",
        type=float,
        required=True,
        help="the SLO level to check reachability of",
    )
    p_slo.add_argument(
        "--attribute",
        default="availability",
        help="QoS attribute to analyze (default: availability)",
    )
    p_slo.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="composition plan JSON (kind: plan); defaults to the "
        "market's own 'plan' entry",
    )
    p_slo.add_argument(
        "--pipeline",
        default=None,
        metavar="IDS",
        help="comma-separated service ids as a pipeline plan shorthand",
    )
    p_slo.add_argument(
        "--choose",
        default="worst-case",
        choices=("worst-case", "redundant"),
        help="reading of Choose nodes: the guarantee holding whichever "
        "branch runs, or failover replicas (1 − ∏(1 − Rᵢ))",
    )
    p_slo.add_argument(
        "--buffer",
        type=_SHARE,
        default=0.9,
        metavar="F",
        help="planning safety margin applied to every provider level",
    )
    p_slo.add_argument(
        "--min-attempts",
        type=_POSITIVE_INT,
        default=5,
        metavar="N",
        help="observations required before delivered history discounts "
        "a published level",
    )
    p_slo.add_argument(
        "--flag-share",
        type=_SHARE,
        default=0.30,
        metavar="F",
        help="error-budget share above which a stage is flagged "
        "high-risk",
    )
    p_slo.add_argument(
        "--trust-published",
        action="store_true",
        help="skip observation discounting and the safety buffer; "
        "analyze raw advertised levels",
    )
    p_slo.add_argument(
        "--format",
        default="json",
        choices=("json", "text"),
        help="output as JSON (default) or a terminal report",
    )
    p_slo.set_defaults(fn=cmd_slo)

    p_val = sub.add_parser(
        "validate-semiring",
        help="check semiring laws on a sample",
        parents=[observability],
    )
    p_val.add_argument("name", help="registered semiring name")
    p_val.add_argument(
        "--universe", default="", help="comma-separated set universe"
    )
    p_val.add_argument("--cap", type=float, default=None)
    p_val.set_defaults(fn=cmd_validate_semiring)
    return parser


def main(argv=None) -> int:
    global _session
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    prometheus_out = getattr(args, "prometheus_out", None)
    for flag, path in (
        ("--trace-out", trace_out),
        ("--prometheus-out", prometheus_out),
    ):
        reason = path and _unwritable(path)
        if reason:
            parser.error(f"{flag} {path}: {reason}")
    wants_telemetry = bool(
        getattr(args, "telemetry", False) or trace_out or prometheus_out
    )
    try:
        if not wants_telemetry:
            return args.fn(args)
        with telemetry_session() as session:
            _session = session
            code = args.fn(args)
            if trace_out:
                write_trace_jsonl(trace_out, session.tracer, session.events)
            if prometheus_out:
                write_prometheus(prometheus_out, session.registry)
            return code
    except serialization.SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _session = None


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
