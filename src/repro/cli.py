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
resilience flags of ``docs/resilience.md``.  The broker, serving,
resilience, load-shape and fleet flags are generated from the
serving-config tree (:mod:`repro.config`): a flag's default, range and
help text are the declaration of the config field it sets.

Each command reads JSON and prints a JSON result on stdout.  Exit status
0 = the engine ran and found an answer; 1 = well-formed input but no
solution (inconsistent problem, failed negotiation, no stable
partition); 2 = bad input, including a flag value out of its range
(rejected while parsing, before any market is built).

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
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, NoReturn, Optional, Tuple

from . import serialization
from .coalitions import solve_engine, solve_exact, solve_local_search
from .config import NON_NEGATIVE, POSITIVE_INT, SHARE, Range
from .config import add_flags, from_args
from .fleet import FleetConfig, FleetFrontend, FleetLoadGenerator
from .resilience import DeadLetterQueue, DLQConfig, DLQError, ResilienceConfig
from .runtime import (
    CoalitionQuery,
    LoadGenerator,
    LoadProfile,
    RuntimeConfig,
    RuntimeServer,
    SessionResult,
    contention_request_factory,
    synthesize_contention_market,
    synthesize_market,
    synthetic_request_factory,
)
from .semirings.properties import validate_semiring
from .semirings.registry import get_semiring
from .slo import (
    DEFAULT_BUFFER,
    DEFAULT_FLAG_SHARE,
    DEFAULT_MIN_ATTEMPTS,
    SLOError,
    render_text,
)
from .soa.broker import Broker, BrokerConfig, BrokerError, ClientRequest
from .soa.composition import pipeline
from .soa.faults import BernoulliCrash, BurstOutage, FaultInjector, RandomDelay
from .soa.registry import RegistryError, ServiceRegistry
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
    options: Dict[str, Any] = {"op": args.op, "aggregate": args.aggregate}
    if args.method == "exact":
        solution = solve_exact(network, **options)
    else:
        options.update(
            seed=args.seed,
            restarts=args.restarts,
            max_iterations=args.max_iterations,
            neighbour_sample=args.neighbour_sample,
        )
        if args.method == "engine":
            solution = solve_engine(network, workers=args.workers, **options)
        else:
            solution = solve_local_search(network, **options)
    _emit(serialization.coalition_solution_to_dict(solution))
    # "No solution" covers the heuristics ending on an unstable local
    # optimum, not just exact search proving no stable partition exists
    # — a partition with blocking coalitions is not a valid Def. 4
    # answer, merely the best one seen.
    return 0 if solution.found and solution.stable else 1


def _load_market(path: str) -> Tuple[Dict[str, Any], ServiceRegistry]:
    """A market spec and the registry its services are published in."""
    market = _read_json(path)
    if not isinstance(market, dict) or market.get("kind") != "market":
        _bad_input("payload is not a market spec")
    return market, serialization.market_registry_from_dict(market)


def cmd_negotiate(args: argparse.Namespace) -> int:
    market, registry = _load_market(args.market)
    request = serialization.market_request_from_dict(market)
    broker = Broker(registry, from_args(BrokerConfig, args))
    result = broker.negotiate(
        request, verify_scheduler_independence=args.verify_independence
    )
    _emit(
        {
            "success": result.success,
            "detail": result.detail,
            "sla": None
            if result.sla is None
            else serialization.sla_to_dict(result.sla),
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


def _build_injector(
    args: argparse.Namespace, registry: ServiceRegistry
) -> Optional[FaultInjector]:
    """Fault injector attaching the ``--fault-*`` models to every
    published service; ``None`` when no fault flag was given."""
    models = [
        model
        for model in (args.fault_crash, args.fault_outage, args.fault_delay)
        if model is not None
    ]
    if not models:
        return None
    injector = FaultInjector(seed=args.seed)
    for description in registry.find():
        for model in models:
            injector.attach(description.service_id, model)
    return injector


def _serving(args: argparse.Namespace, registry: ServiceRegistry) -> Any:
    """The serving stack the flags describe: a ``RuntimeServer`` over
    one broker, or (``fleet``) a ``FleetFrontend`` over broker shards.

    ``--resilience`` turns every resilience pattern on at its defaults;
    otherwise a pattern turns on when one of its own flags is given.
    """
    broker = from_args(BrokerConfig, args)
    runtime = from_args(
        RuntimeConfig,
        args,
        verify_independence=getattr(args, "verify_independence", False),
    )
    resilience = from_args(ResilienceConfig, args, enable=args.resilience)
    if args.dlq or args.dlq_out:
        resilience = replace(resilience, dlq=resilience.dlq or DLQConfig())
    if not resilience.any_enabled:
        resilience = None  # the exact pre-resilience serving path
    if args.command != "fleet":
        return RuntimeServer(
            Broker(registry, broker),
            runtime,
            injector=_build_injector(args, registry),
            resilience=resilience,
        )
    # The serving flags keep their meaning fleet-wide: --workers per
    # shard, --queue as the bound on sessions outstanding across every
    # shard, --seed as the master seed.
    config = from_args(
        FleetConfig,
        args,
        workers_per_shard=runtime.workers,
        ingress_depth=runtime.max_queue_depth,
        seed=runtime.seed,
        broker=broker,
        runtime=RuntimeConfig(
            deadline_s=runtime.deadline_s, retry=runtime.retry
        ),
        resilience=resilience,
    )
    # Every shard gets its own injector built from the same flags, so
    # fault behaviour stays keyed to the session, not the shard.
    return FleetFrontend(
        registry,
        config,
        injector_factory=lambda shard_id: _build_injector(args, registry),
    )


def _add_resilience(
    payload: Dict[str, Any], args: argparse.Namespace, target: Any
) -> None:
    """The resilience snapshot (and ``--dlq-out`` file) of a run."""
    if args.command == "fleet":
        if target.config.resilience is None:
            return
        payload["resilience"] = target.resilience_snapshot()
        dlq = target.dlq
    else:
        if not target.resilience.config.any_enabled:
            return
        payload["resilience"] = target.resilience.snapshot()
        dlq = target.resilience.dlq
    if dlq is not None and args.dlq_out:
        payload["dlq_out"] = str(dlq.to_jsonl(args.dlq_out))


def _session_summary(result: SessionResult) -> Dict[str, Any]:
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
    market, registry = _load_market(args.market)
    template = serialization.market_request_from_dict(market)
    server = _serving(args, registry)
    results = server.run(
        [
            replace(template, client=f"{template.client}-{index}")
            for index in range(args.requests)
        ]
    )
    payload = {
        "requests": len(results),
        "outcomes": dict(Counter(result.status.value for result in results)),
        "retries_total": sum(result.retries for result in results),
        "sessions": [_session_summary(result) for result in results],
    }
    _add_resilience(payload, args, server)
    _emit(payload)
    return 0 if all(result.ok for result in results) else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Measure the runtime (or, for ``fleet``, a sharded broker fleet)
    under a synthetic client population."""
    if args.market is not None:
        market, registry = _load_market(args.market)
        template = serialization.market_request_from_dict(market)

        def factory(client: str, index: int) -> ClientRequest:
            return replace(template, client=client)

    elif args.contention:
        # The decreasing-quality market the fairness scenario uses.
        registry = synthesize_contention_market(args.contention_providers)
        factory = contention_request_factory()
    else:
        registry = synthesize_market(seed=args.seed)
        factory = synthetic_request_factory()

    target = _serving(args, registry)
    fleet = args.command == "fleet"
    generator = (FleetLoadGenerator if fleet else LoadGenerator)(
        target, from_args(LoadProfile, args, seed=args.seed), factory
    )
    report = generator.run_sync()
    payload = report.to_dict()
    _add_resilience(payload, args, target)
    _emit(payload)
    served = report.fleet if fleet else report
    return 0 if served.completed + served.degraded > 0 else 1


def _slo_plan(args: argparse.Namespace, market: Dict[str, Any]):
    """The plan to analyze: ``--plan PATH``, the market's ``plan`` entry,
    or the ``--pipeline id,id,…`` shorthand."""
    if args.plan:
        return serialization.plan_from_dict(_read_json(args.plan))
    if args.pipeline:
        return pipeline(*args.pipeline.split(","))
    if "plan" in market:
        return serialization.plan_from_dict(market["plan"])
    _bad_input(
        "no plan to analyze — pass --plan PATH or "
        "--pipeline IDS, or add a 'plan' entry to the market spec"
    )


def cmd_slo(args: argparse.Namespace) -> int:
    market, registry = _load_market(args.market)
    plan = _slo_plan(args, market)
    for service_id, window in market.get("observations", {}).items():
        registry.record_observations(
            service_id,
            int(window.get("attempts", 0)),
            int(window.get("failures", 0)),
        )
    broker = Broker(registry, from_args(BrokerConfig, args))
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
    the agreement each session would have signed.  A broker configured
    unlike the one that captured an envelope is refused (exit 2).
    """
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
    market, registry = _load_market(args.market)
    broker = Broker(registry, from_args(BrokerConfig, args))
    try:
        rows = queue.replay(broker)
    except DLQError as exc:
        _bad_input(str(exc))
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
# Fault flag types (the config knobs' flag types are their declared
# ranges, see repro.config)
# ----------------------------------------------------------------------


def _fault_model(build: Any, expects: str) -> Any:
    """A ``--fault-*`` flag type: ``build`` a fault model from the text,
    reporting what the flag ``expects`` when that fails."""

    def parse(text: str) -> Any:
        try:
            return build(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"expects {expects}, got {text}"
            ) from None

    return parse


_crash = _fault_model(
    lambda text: BernoulliCrash(float(text)), "a probability in [0, 1]"
)
_outage = _fault_model(
    lambda text: BurstOutage(*(int(part) for part in text.split(":"))),
    "START:LENGTH with integers START >= 0 and LENGTH >= 1",
)
def _random_delay(text: str) -> RandomDelay:
    prob, extra_ms = text.split(":")
    return RandomDelay(float(prob), NON_NEGATIVE(extra_ms))


_delay = _fault_model(
    _random_delay,
    "PROB:MILLISECONDS with PROB in [0, 1] and MILLISECONDS >= 0",
)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Soft constraints for dependable SOAs — CLI"
    )
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--telemetry",
        action="store_true",
        help="collect metrics/spans and embed the snapshot in the output",
    )
    for flag, what in (
        ("--trace-out", "the span/event journal as JSON lines"),
        ("--prometheus-out", "metrics in Prometheus text format"),
    ):
        observability.add_argument(
            flag,
            default=None,
            metavar="PATH",
            help=f"write {what} (implies --telemetry)",
        )
    broker_opts = argparse.ArgumentParser(add_help=False)
    add_flags(broker_opts, BrokerConfig)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *parents):
        sub_parser = sub.add_parser(
            name, help=help, parents=[observability, *parents]
        )
        sub_parser.set_defaults(fn=fn)
        return sub_parser

    p_solve = command("solve", cmd_solve, "solve a JSON SCSP")
    p_solve.add_argument("problem", help="path to an scsp JSON file")
    p_solve.add_argument(
        "--method",
        default="auto",
        choices=("auto", "exhaustive", "branch-bound", "elimination"),
    )

    p_coal = command(
        "coalitions", cmd_coalitions, "partition a JSON trust network"
    )
    p_coal.add_argument("network", help="path to a trust-network JSON file")
    p_coal.add_argument(
        "--method", default="exact", choices=("exact", "local-search", "engine")
    )
    p_coal.add_argument("--op", default="avg", choices=("min", "avg", "max"))
    p_coal.add_argument(
        "--aggregate", default="min", choices=("min", "avg", "max")
    )
    p_coal.add_argument("--seed", type=int, default=0)
    add_flags(p_coal, CoalitionQuery)
    p_coal.add_argument(
        "--workers",
        type=POSITIVE_INT,
        default=1,
        help="portfolio threads for --method engine "
        "(the result is worker-count independent)",
    )

    p_neg = command(
        "negotiate", cmd_negotiate, "run the broker over a JSON market",
        broker_opts,
    )
    p_neg.add_argument("market", help="path to a market JSON file")
    p_neg.add_argument(
        "--verify-independence",
        action="store_true",
        help="re-run the winner as nmsccp agents and certify the outcome "
        "is scheduler-independent",
    )

    serving = argparse.ArgumentParser(add_help=False)
    add_flags(serving, RuntimeConfig)
    for flag, type_, metavar, help in (
        ("--fault-crash", _crash, "PROB",
         "attach BernoulliCrash(PROB) to every service"),
        ("--fault-outage", _outage, "START:LENGTH",
         "attach BurstOutage over admission-order ticks"),
        ("--fault-delay", _delay, "PROB:MS",
         "attach RandomDelay(PROB, MS) to every service"),
    ):
        serving.add_argument(
            flag, type=type_, default=None, metavar=metavar, help=help
        )

    resilience = argparse.ArgumentParser(add_help=False)
    resilience.add_argument(
        "--resilience",
        action="store_true",
        help="enable every resilience pattern at its defaults "
        "(breakers, bulkheads, health checks, DLQ)",
    )
    add_flags(resilience, ResilienceConfig)
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

    p_rt = command(
        "runtime", cmd_runtime, "serve concurrent sessions of a JSON market",
        serving, resilience, broker_opts,
    )
    p_rt.add_argument("market", help="path to a market JSON file")
    p_rt.add_argument(
        "--requests",
        type=POSITIVE_INT,
        default=10,
        metavar="N",
        help="concurrent sessions to serve",
    )
    p_rt.add_argument(
        "--verify-independence",
        action="store_true",
        help="certify each winner as scheduler-independent (slow)",
    )

    loadshape = argparse.ArgumentParser(add_help=False)
    loadshape.add_argument(
        "--market",
        default=None,
        metavar="PATH",
        help="market JSON to serve (default: synthetic 4-provider market)",
    )
    add_flags(loadshape, LoadProfile)
    loadshape.add_argument(
        "--contention",
        action="store_true",
        help="use the synthetic contention market (decreasing-quality "
        "providers for one operation) instead of the default synthetic "
        "market — the fairness scenario for --allocation-policy",
    )
    loadshape.add_argument(
        "--contention-providers",
        type=Range(2, integer=True),
        default=3,
        metavar="N",
        help="provider count of the contention market",
    )
    load = (serving, resilience, loadshape, broker_opts)
    command(
        "loadgen", cmd_loadgen, "measure the runtime under synthetic load",
        *load,
    )
    p_fleet = command(
        "fleet", cmd_loadgen,
        "measure a sharded broker fleet under synthetic load", *load,
    )
    add_flags(p_fleet, FleetConfig, nested=False)

    p_dlq = command(
        "dlq", cmd_dlq, "inspect or replay a dead-letter JSONL file",
        broker_opts,
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

    p_slo = command(
        "slo", cmd_slo, "SLO analytics for a composition plan over a market",
        broker_opts,
    )
    p_slo.add_argument("market", help="path to a market JSON file")
    p_slo.add_argument(
        "--target",
        type=float,
        required=True,
        help="the SLO level to check reachability of",
    )
    for flag, default, metavar, help in (
        ("--attribute", "availability", None,
         "QoS attribute to analyze (default: availability)"),
        ("--plan", None, "PATH", "composition plan JSON (kind: plan); "
         "defaults to the market's own 'plan' entry"),
        ("--pipeline", None, "IDS",
         "comma-separated service ids as a pipeline plan shorthand"),
    ):
        p_slo.add_argument(flag, default=default, metavar=metavar, help=help)
    p_slo.add_argument(
        "--choose",
        default="worst-case",
        choices=("worst-case", "redundant"),
        help="reading of Choose nodes: the guarantee holding whichever "
        "branch runs, or failover replicas (1 − ∏(1 − Rᵢ))",
    )
    for flag, type_, default, metavar, help in (
        ("--buffer", SHARE, DEFAULT_BUFFER, "F",
         "planning safety margin applied to every provider level"),
        ("--min-attempts", POSITIVE_INT, DEFAULT_MIN_ATTEMPTS, "N",
         "observations required before delivered history discounts "
         "a published level"),
        ("--flag-share", SHARE, DEFAULT_FLAG_SHARE, "F",
         "error-budget share above which a stage is flagged high-risk"),
    ):
        p_slo.add_argument(
            flag, type=type_, default=default, metavar=metavar, help=help
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

    p_val = command(
        "validate-semiring", cmd_validate_semiring,
        "check semiring laws on a sample",
    )
    p_val.add_argument("name", help="registered semiring name")
    p_val.add_argument(
        "--universe", default="", help="comma-separated set universe"
    )
    p_val.add_argument("--cap", type=float, default=None)
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
