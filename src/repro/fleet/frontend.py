"""The fleet front-end: consistent-hash routing over broker shards.

One :class:`FleetFrontend` stands in front of N
:class:`~repro.runtime.server.RuntimeServer` shards and scales the
serving path horizontally (the load-balancer pattern of the scalability
catalogue).  :meth:`FleetFrontend.submit` makes two calls — a
:class:`~repro.fleet.ring.HashRing` lookup of the session's owner, then
that shard server's own ``submit`` — and returns the shard's future, so
the shard's bounded queue, workers and drain are the only plumbing a
session passes through:

* **one fleet-wide admission bound** — at most ``ingress_depth``
  sessions are admitted and unfinished at once; past it a session
  resolves immediately with a typed
  :class:`~repro.runtime.server.Overloaded` result, exactly like a
  single server's full admission queue, so callers see one
  backpressure surface whatever the fleet size.  Every shard's queue
  holds ``ingress_depth`` sessions, so a shard never bounces fleet
  traffic;
* **shard-aware retry-on-redirect** — a reshard
  (:meth:`FleetFrontend.add_shard` / :meth:`remove_shard`) can move a
  key while its session waits in a shard's queue; the fleet re-checks
  ownership as a shard worker picks the session up and re-admits a
  moved session on its new owner (``fleet_redirects_total``) instead of
  serving it on the wrong shard.

Determinism: the front-end stamps every session with a *session key*
(its global admission sequence number plus client/operation) and a global
fault tick, and each shard derives the session RNG from ``(master
seed, session key)`` (:func:`~repro.runtime.server.derive_session_seed`)
— so fault draws, backoff jitter and therefore agreements are identical
whatever the shard count, the same way PR 5's coalition engine is
worker-count independent.

Caching: with ``l2_cache`` on (the default), every shard broker gets a
:class:`~repro.fleet.cache.TieredSolveCache` — private L1, one shared
:class:`~repro.solver.cache.SolveCache` L2 — so the first
shard to solve a fingerprint warms the whole fleet.  A broker config with
``solve_cache=False`` gives the shards no solve cache at any tier.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..config import POSITIVE_INT, Config, knob, subtree
from ..resilience.breaker import BreakerRegistry
from ..resilience.dlq import DeadLetterQueue
from ..resilience.health import HealthMonitor
from ..resilience.policy import ResilienceConfig, build_resilience
from ..runtime.server import (
    Overloaded,
    RuntimeConfig,
    RuntimeServer,
    SessionResult,
    SessionStatus,
    _Session,
    probe_loop_lag,
)
from ..soa.broker import Broker, BrokerConfig, ClientRequest
from ..soa.faults import FaultInjector
from ..soa.registry import ServiceRegistry
from ..soa.sla import SLARepository
from ..telemetry import get_events, get_registry, get_tracer
from ..solver.cache import SolveCache
from .cache import DEFAULT_L2_CACHE_SIZE, TieredSolveCache
from .ring import DEFAULT_VNODES, HashRing

#: Routing modes: ``session`` spreads the session space uniformly over
#: the ring (every shard sees the whole registry); ``operation`` routes
#: by operation name, giving each shard ownership of the operations —
#: and with ``partition_registry`` the service descriptions — that hash
#: to it.
ROUTE_MODES = ("session", "operation")


class FleetError(Exception):
    """Raised on fleet misuse (submit before start, bad config)."""


@dataclass(frozen=True)
class FleetConfig(Config):
    """Knobs of the sharded serving fleet.

    Each shard's :class:`RuntimeConfig` is derived (:meth:`shard_runtime`):
    ``workers_per_shard`` workers, the fleet ``seed``, a queue sized to
    the fleet's admission bound, and ``runtime``'s per-session deadline
    and retry policy.  ``runtime`` leaves its other fields at their
    defaults.
    """

    error = FleetError

    shards: int = knob(
        2, range=POSITIVE_INT, flag="--shards", help="broker shard count"
    )
    vnodes: int = knob(
        DEFAULT_VNODES,
        range=POSITIVE_INT,
        flag="--vnodes",
        help="virtual nodes per shard on the consistent-hash ring",
    )
    workers_per_shard: int = knob(2, range=POSITIVE_INT)
    #: Fleet-edge admission bound: sessions admitted and unfinished
    #: across every shard (full ⇒ typed ``Overloaded``).
    ingress_depth: int = knob(1024, range=POSITIVE_INT)
    seed: Optional[int] = None
    l2_cache: bool = knob(
        True,
        flag="--l2-cache",
        help="share one fleet-wide L2 solve cache across shards "
        "(per-shard L1s become a two-tier stack)",
    )
    route_by: str = knob(
        "session",
        choices=ROUTE_MODES,
        flag="--route-by",
        help="ring routing key: per-session spread or per-operation "
        "ownership",
    )
    #: With ``route_by="operation"``: give each shard broker only the
    #: registry partition it owns instead of the full shared registry.
    partition_registry: bool = False
    #: Every shard broker's config; with ``l2_cache`` its solve cache is
    #: the two-tier stack, and ``solve_cache=False`` gives shards none.
    broker: BrokerConfig = subtree(BrokerConfig)
    #: The shards' per-session deadline and retry policy.
    runtime: RuntimeConfig = subtree(RuntimeConfig)
    #: Resilience layer (breakers/bulkheads/health/DLQ); ``None``
    #: serves exactly like the pre-resilience fleet.  Breakers, health
    #: state and the DLQ are fleet-global (a down provider is down for
    #: every shard); bulkheads are per-shard.
    resilience: Optional[ResilienceConfig] = subtree(
        ResilienceConfig, optional=True
    )

    def _check(self) -> None:
        for name in _SHARD_SET:
            if getattr(self.runtime, name) != getattr(RuntimeConfig, name):
                raise FleetError(
                    f"runtime.{name} is not read by a fleet (it sets the "
                    "shards' own); leave it at its default"
                )
        if self.partition_registry and self.route_by != "operation":
            raise FleetError(
                "partition_registry requires route_by='operation' "
                "(session-routed fleets need the full registry on "
                "every shard)"
            )
        if (
            self.partition_registry
            and self.resilience is not None
            and self.resilience.health is not None
        ):
            raise FleetError(
                "health-checked matchmaking requires a shared registry "
                "(quarantine state cannot span registry partitions)"
            )

    def shard_runtime(self) -> RuntimeConfig:
        """The runtime config of every shard server."""
        return RuntimeConfig(
            workers=self.workers_per_shard,
            # Sized to the fleet-wide bound: fleet traffic can never see
            # a shard-level Overloaded.
            max_queue_depth=self.ingress_depth,
            deadline_s=self.runtime.deadline_s,
            retry=self.runtime.retry,
            # Every shard carries the *fleet* master seed: keyed sessions
            # derive their RNG from (seed, session key), so the seed must
            # be identical on whichever shard serves the session — that
            # is what makes a run shard-count independent.
            seed=self.seed,
            # The fleet runs one loop probe at ``runtime.probe_interval_s``.
            probe_interval_s=0.0,
        )


#: The ``runtime`` fields a fleet does not read: it takes the deadline
#: and the retry policy for its shards, and the probe period for its
#: own event-loop probe.
_SHARD_SET = (
    "workers",
    "max_queue_depth",
    "seed",
    "verify_independence",
)


def partition_registry(
    registry: ServiceRegistry, ring: HashRing
) -> Dict[str, ServiceRegistry]:
    """Split a registry by operation ownership on the ring.

    Every service lands on exactly one shard — the one owning its
    operation's routing key — so a shard can answer any session routed
    to it by operation without consulting its peers.
    """
    parts = {shard: ServiceRegistry() for shard in ring.shards}
    for description in registry.find():
        owner = ring.assign(description.interface.operation)
        parts[owner].publish(description)
    return parts


@dataclass
class _Shard:
    """One broker shard: its broker and the server driving it."""

    shard_id: str
    broker: Broker
    server: RuntimeServer


class FleetFrontend:
    """Routes sessions across broker shards; duck-types the server
    surface (``started``/``start``/``stop``/``submit``/``serve``/
    ``run``) so :class:`~repro.runtime.loadgen.LoadGenerator` drives a
    fleet exactly like a single :class:`RuntimeServer`."""

    def __init__(
        self,
        registry: ServiceRegistry,
        config: Optional[FleetConfig] = None,
        injector_factory: Optional[
            Callable[[str], Optional[FaultInjector]]
        ] = None,
    ) -> None:
        self.registry = registry
        self.config = config or FleetConfig()
        self._injector_factory = injector_factory
        self.ring = HashRing(
            [f"shard-{i}" for i in range(self.config.shards)],
            vnodes=self.config.vnodes,
            seed=self.config.seed or 0,
        )
        self.l2: Optional[SolveCache] = (
            SolveCache(DEFAULT_L2_CACHE_SIZE, tier="l2")
            if self.config.l2_cache and self.config.broker.solve_cache
            else None
        )
        self._partitions: Optional[Dict[str, ServiceRegistry]] = (
            partition_registry(registry, self.ring)
            if self.config.partition_registry
            else None
        )
        # Fleet-global resilience state, shared by every shard policy
        # (a provider that is down is down for the whole fleet).
        res = self.config.resilience
        self.breakers: Optional[BreakerRegistry] = (
            BreakerRegistry(res.breaker, seed=self.config.seed)
            if res is not None and res.breaker is not None
            else None
        )
        self.dlq: Optional[DeadLetterQueue] = (
            DeadLetterQueue(res.dlq)
            if res is not None and res.dlq is not None
            else None
        )
        #: Every agreement the fleet signs, shared by the shard brokers:
        #: a client's last-known SLA, which a session degrades to, is
        #: the fleet's, whatever shard signed it (a per-shard history
        #: would make degrading depend on the shard count).
        self.slas = SLARepository()
        self.health: Optional[HealthMonitor] = None
        self._health_task: Optional["asyncio.Task[None]"] = None
        self._probe: Optional["asyncio.Task[None]"] = None
        self.shards: Dict[str, _Shard] = {}
        for shard_id in self.ring.shards:
            self.shards[shard_id] = self._build_shard(shard_id)
        if res is not None and res.health is not None:
            # One probe loop for the whole fleet, ticking in the global
            # admission sequence so probes and sessions share the fault
            # coordinate system.  Injected faults are identical across
            # shards, so any shard's injector stands in for the market.
            probe_injector = next(
                (
                    shard.server.injector
                    for shard in self.shards.values()
                    if shard.server.injector is not None
                ),
                None,
            )
            self.health = HealthMonitor(
                registry,
                injector=probe_injector,
                config=res.health,
                seed=self.config.seed,
                tick_source=lambda: self._submitted,
            )
        self.results: List[SessionResult] = []
        self.results_by_shard: Dict[str, List[SessionResult]] = {
            shard_id: [] for shard_id in self.shards
        }
        self.assignments: Dict[str, str] = {}  # session key → its shard
        self.redirects = 0
        self._started = False
        #: Admitted, unfinished sessions: the fleet-edge bound's count.
        self._pending: "set[asyncio.Future[SessionResult]]" = set()
        self._submitted = 0

    # ------------------------------------------------------------------
    # Shard construction
    # ------------------------------------------------------------------

    def _build_shard(self, shard_id: str) -> _Shard:
        shard_registry = (
            self._partitions[shard_id]
            if self._partitions is not None
            else self.registry
        )
        broker = Broker(shard_registry, self.config.broker, name=shard_id)
        broker.slas = self.slas
        if self.l2 is not None:
            broker.solve_cache = TieredSolveCache(self.l2)
        runtime = self.config.shard_runtime()
        injector = (
            self._injector_factory(shard_id)
            if self._injector_factory is not None
            else None
        )
        resilience = None
        if self.config.resilience is not None:
            # Per-shard policy over fleet-global breakers and DLQ; the
            # bulkhead guards per-shard resources and stays private.
            # Health is stripped here: the fleet itself owns the single
            # monitor and probe loop (``self.health``).
            resilience = build_resilience(
                replace(self.config.resilience, health=None),
                shard_registry,
                injector=injector,
                seed=self.config.seed,
                shared_breakers=self.breakers,
                shared_dlq=self.dlq,
            )
        server = RuntimeServer(
            broker, runtime, injector=injector, resilience=resilience
        )
        server.redirect = partial(self._redirect, shard_id)
        return _Shard(shard_id=shard_id, broker=broker, server=server)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    async def start(self) -> None:
        if self.started:
            return
        for shard in self.shards.values():
            await self._start_shard(shard)
        self._started = True
        if self.health is not None:
            self._health_task = asyncio.create_task(
                self.health.run(), name="fleet-health"
            )
        interval = self.config.runtime.probe_interval_s
        if interval > 0:
            self._probe = asyncio.create_task(
                probe_loop_lag(interval), name="fleet-loop-probe"
            )
        get_events().emit(
            "fleet.started",
            shards=len(self.shards),
            vnodes=self.config.vnodes,
            l2_cache=self.l2 is not None,
        )

    async def _start_shard(self, shard: _Shard) -> None:
        with get_tracer().span(
            "fleet.shard-start", shard=shard.shard_id
        ):
            await shard.server.start()
        get_registry().gauge(
            "fleet_shards",
            "Broker shards currently serving the fleet.",
        ).set(len(self.shards))

    async def stop(self, drain: bool = True) -> None:
        """Stop the fleet; by default *drain* first — every admitted
        session finishes before the shards shut down.  Without draining,
        the shards cancel the futures of the sessions they abandon."""
        if not self.started:
            return
        if drain and self._pending:
            await asyncio.wait(self._pending)
        for task in (self._health_task, self._probe):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._health_task = self._probe = None
        for shard in self.shards.values():
            await self._stop_shard(shard, drain=drain)
        self._started = False
        get_events().emit("fleet.stopped", shards=len(self.shards))

    async def _stop_shard(self, shard: _Shard, drain: bool) -> None:
        with get_tracer().span(
            "fleet.shard-stop", shard=shard.shard_id
        ):
            await shard.server.stop(drain=drain)

    async def __aenter__(self) -> "FleetFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Resharding
    # ------------------------------------------------------------------

    async def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Join a new shard; queued sessions whose keys it now owns
        redirect to it as a worker picks them up.

        Only session-routed fleets reshard (an operation-partitioned
        registry would need provider migration, out of scope here).
        """
        if self._partitions is not None:
            raise FleetError(
                "cannot reshard a fleet with a partitioned registry"
            )
        if shard_id is None:
            index = len(self.ring.shards)
            while f"shard-{index}" in self.ring:
                index += 1
            shard_id = f"shard-{index}"
        shard = self._build_shard(shard_id)
        self.shards[shard_id] = shard
        self.results_by_shard.setdefault(shard_id, [])
        if self.started:
            await self._start_shard(shard)
        # Ring change last: redirects only go to shards that serve.
        self.ring.add_shard(shard_id)
        get_events().emit("fleet.reshard", joined=shard_id)
        return shard_id

    async def remove_shard(self, shard_id: str) -> None:
        """Decommission a shard gracefully: re-route its keys, then
        drain its server — its queued sessions redirect to their new
        owners as its workers pick them up, and it stops once its
        in-flight sessions finished."""
        if shard_id not in self.shards:
            raise FleetError(f"unknown shard {shard_id!r}")
        if len(self.shards) == 1:
            raise FleetError("cannot remove the last shard")
        shard = self.shards[shard_id]
        self.ring.remove_shard(shard_id)
        get_events().emit("fleet.reshard", left=shard_id)
        if self.started:
            await self._stop_shard(shard, drain=True)
        del self.shards[shard_id]

    # ------------------------------------------------------------------
    # Admission and routing
    # ------------------------------------------------------------------

    def session_key(self, request: ClientRequest, seq: int) -> str:
        """The default session key: globally sequenced at the fleet
        edge, so it is independent of shard count by construction."""
        return f"s{seq}/{request.client}/{request.operation}"

    def route_key(self, request: ClientRequest, session_key: str) -> str:
        return (
            request.operation
            if self.config.route_by == "operation"
            else session_key
        )

    def submit(
        self,
        request: ClientRequest,
        deadline_s: Optional[float] = None,
        session_key: Optional[str] = None,
    ) -> "asyncio.Future[SessionResult]":
        """Admit one session on the shard owning its key.

        Synchronous admission control like the single server: with
        ``ingress_depth`` sessions outstanding fleet-wide, the future
        resolves immediately with a typed :class:`Overloaded` result.
        """
        if not self.started:
            raise FleetError("submit() before start()")
        seq = self._submitted
        self._submitted += 1
        key = (
            session_key
            if session_key is not None
            else self.session_key(request, seq)
        )
        if len(self._pending) >= self.config.ingress_depth:
            result = Overloaded(
                request=request,
                status=SessionStatus.OVERLOADED,
                detail=(
                    f"fleet ingress full "
                    f"({self.config.ingress_depth} sessions outstanding)"
                ),
                session_key=key,
            )
            self._account(None, result)
            future: "asyncio.Future[SessionResult]" = (
                asyncio.get_running_loop().create_future()
            )
            future.set_result(result)
            return future
        future = self._admit(
            self.ring.assign(self.route_key(request, key)),
            request,
            deadline_s,
            key,
            seq,
        )
        self._pending.add(future)
        future.add_done_callback(self._complete)
        return future

    async def serve(
        self, requests: Iterable[ClientRequest]
    ) -> List[SessionResult]:
        """Submit every request and await all results (starting and
        stopping the fleet when not already running)."""
        owns_lifecycle = not self.started
        if owns_lifecycle:
            await self.start()
        try:
            futures = [self.submit(request) for request in requests]
            return list(await asyncio.gather(*futures))
        finally:
            if owns_lifecycle:
                await self.stop()

    def run(self, requests: Iterable[ClientRequest]) -> List[SessionResult]:
        """Synchronous convenience wrapper around :meth:`serve`."""
        return asyncio.run(self.serve(requests))

    def _admit(
        self,
        shard_id: str,
        request: ClientRequest,
        deadline_s: Optional[float],
        key: str,
        tick: Optional[int],
        known: Optional[int] = None,
    ) -> "asyncio.Future[SessionResult]":
        self.assignments[key] = shard_id
        return self.shards[shard_id].server.submit(
            request,
            deadline_s=deadline_s,
            session_key=key,
            tick=tick,
            known=known,
        )

    def _redirect(self, shard_id: str, session: _Session) -> bool:
        """A shard worker's pickup check (retry-on-redirect): a session
        whose key a reshard moved is re-admitted on its new owner, with
        the same key, tick, deadline and known agreements, and its
        future resolves from there."""
        assert session.key is not None
        owner = self.ring.assign(self.route_key(session.request, session.key))
        if owner == shard_id:
            return False
        self.redirects += 1
        get_registry().counter(
            "fleet_redirects_total",
            "Sessions re-routed after a reshard moved their key "
            "mid-flight.",
        ).inc()
        moved = self._admit(
            owner, session.request, session.deadline_s, session.key,
            session.tick, session.known,
        )
        moved.add_done_callback(partial(_settle, session.future))
        return True

    def _complete(self, future: "asyncio.Future[SessionResult]") -> None:
        self._pending.discard(future)
        if future.cancelled():  # abandoned by stop(drain=False)
            return
        result = future.result()
        assert result.session_key is not None
        self._account(self.assignments[result.session_key], result)

    def _account(
        self, shard_id: Optional[str], result: SessionResult
    ) -> None:
        self.results.append(result)
        if shard_id is not None:
            self.results_by_shard[shard_id].append(result)
        get_registry().counter(
            "fleet_sessions_total",
            "Fleet sessions served, by shard and outcome.",
            labelnames=("shard", "outcome"),
        ).labels(shard_id or "ingress", result.status.value).inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def results_by_key(self) -> Dict[str, SessionResult]:
        """Completed sessions keyed by session key — the shard-count-
        independent view (list order is completion order and therefore
        racy; this mapping is not)."""
        return {
            result.session_key: result
            for result in self.results
            if result.session_key is not None
        }

    def resilience_snapshot(self) -> Dict[str, Any]:
        """Fleet-wide resilience state: the shared breaker/health/DLQ
        view plus each shard's private bulkhead counters."""
        out: Dict[str, Any] = {
            "enabled": self.config.resilience is not None
        }
        if self.breakers is not None:
            out["breakers"] = self.breakers.states()
        if self.health is not None:
            out["health_sweeps"] = self.health.sweeps
            out["health_transitions"] = [
                {"sweep": sweep, "provider": provider, "to": to}
                for sweep, provider, to in self.health.transitions
            ]
            out["quarantined"] = sorted(self.registry.quarantined())
        if self.dlq is not None:
            out["dlq"] = self.dlq.stats()
        per_shard: Dict[str, Any] = {}
        for shard_id, shard in sorted(self.shards.items()):
            policy = shard.server.resilience
            private = {
                key: value
                for key, value in policy.snapshot().items()
                # Shared state is reported once, fleet-level.
                if key.startswith("bulkhead")
            }
            if private:
                per_shard[shard_id] = private
        if per_shard:
            out["per_shard"] = per_shard
        return out

    def cache_stats(self) -> Dict[str, Any]:
        """Tiered-cache counters: per-shard L1s plus the shared L2 (and
        per-shard allocation-round counters when a policy is set)."""
        per_shard: Dict[str, Any] = {}
        rounds: Dict[str, Any] = {}
        for shard_id, shard in self.shards.items():
            cache = shard.broker.solve_cache
            if cache is not None:
                per_shard[shard_id] = cache.stats()
            if shard.broker.rounds is not None:
                rounds[shard_id] = shard.broker.rounds.stats()
        stats: Dict[str, Any] = {
            "per_shard": per_shard,
            "l2": self.l2.stats() if self.l2 is not None else None,
        }
        if rounds:
            stats["allocation_rounds"] = rounds
        return stats


def _settle(
    future: "asyncio.Future[SessionResult]",
    source: "asyncio.Future[SessionResult]",
) -> None:
    """Resolve ``future`` as ``source`` resolved (a redirected session's
    caller-facing future follows its new owner's)."""
    if future.done():
        return
    if source.cancelled():
        future.cancel()
    else:
        future.set_result(source.result())
