"""The concurrent broker runtime: admission, deadlines, retries.

The paper's broker (Sec. 4, Fig. 6) is a concurrent mediator — nmsccp
agents negotiate in parallel (``‖``) on a shared store — but
:class:`~repro.soa.broker.Broker` drives one request at a time.  This
module adds the serving layer around it:

* :class:`RuntimeServer` accepts many concurrent
  :class:`~repro.soa.broker.ClientRequest` sessions through a *bounded*
  admission queue.  When the queue is full, a session is rejected
  immediately with a typed :class:`Overloaded` result — explicit
  backpressure instead of unbounded buffering.
* A pool of async workers drains the queue and runs each session's
  ``Broker.negotiate`` on the event loop itself: the interpreter lock
  serializes the broker's CPU work whatever thread runs it, and a
  thread-pool hop cost about as much as the negotiation.  ``workers``
  bounds how many sessions the server drives at once; they overlap in
  fault delays, backoff sleeps and allocation-round windows.
* Each session carries a deadline bounding its queue wait, fault
  delays, backoff sleeps and round window; a session past it at one of
  those waits is cancelled and reported as ``DEADLINE_EXCEEDED``.  A
  negotiation, once started, runs to completion, so its agreement is
  always the one the session reports.
* Failed attempts (injected provider faults) are re-driven under a
  :class:`~repro.runtime.retry.RetryPolicy` with exponential backoff and
  seeded jitter; when retries are exhausted, the server degrades
  gracefully to the client's last-known SLA for the operation from the
  broker's :class:`~repro.soa.sla.SLARepository` (``DEGRADED``) before
  giving up (``FAILED``).  "Last-known" means served to an earlier
  session before this one was admitted, still active, and of those the
  one served to the latest-admitted session: a faulted attempt
  terminates the SLA it signed, and a session reads no agreement served
  while it waits or runs, so the sessions of one batch degrade alike
  however they interleave.

Reproducibility: the server owns one master :class:`random.Random`
(``config.seed``) and derives an independent child RNG per session *in
admission order* — backoff jitter and fault decisions draw from the
session's own stream, so a single seed reproduces a whole concurrent
run regardless of how workers interleave.  Callers that split one
logical workload across *several* servers (the sharded fleet of
:mod:`repro.fleet`) instead pass an explicit ``session_key`` to
:meth:`RuntimeServer.submit`: the session RNG is then derived from
``(master seed, session key)`` by :func:`derive_session_seed`, so a
session's random stream — and with it every fault and backoff draw — is
identical no matter which shard (or how many shards) served it.

Fault injection: when a :class:`~repro.soa.faults.FaultInjector` is
attached, it is consulted once per attempt for the *chosen* provider,
with ``tick = session index`` — so ``BurstOutage(start, length)`` models
an incident window over admission order and Bernoulli models redraw per
attempt (which is what makes retries worth taking).
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..coalitions.engine import solve_engine
from ..coalitions.exact import CoalitionSolution
from ..coalitions.trust import CompositionOp, TrustNetwork
from ..config import (
    NON_NEGATIVE,
    NON_NEGATIVE_INT,
    POSITIVE,
    POSITIVE_INT,
    Config,
    knob,
    subtree,
)
from ..resilience.policy import (
    ResilienceConfig,
    ResiliencePolicy,
    build_resilience,
)
from ..soa.broker import Broker, BrokerError, ClientRequest, NegotiationResult
from ..soa.faults import FaultInjector
from ..soa.sla import SLA
from ..telemetry import get_events, get_registry, get_tracer
from .retry import RetryPolicy

#: Buckets tuned for serving latencies: sub-ms queue waits up to
#: multi-second retried sessions.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class RuntimeError_(Exception):
    """Raised on runtime misuse (submit before start, bad config)."""


def derive_session_seed(
    master_seed: Optional[int], session_key: str
) -> int:
    """A stable 64-bit seed for one keyed session.

    Hash-derived (not drawn from the master stream), so it depends only
    on the pair ``(master seed, session key)`` — never on admission
    order or on which server of a fleet the session landed on.
    """
    digest = hashlib.sha256(
        f"{master_seed}:{session_key}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


class TransientFault(Exception):
    """An attempt failed for a reason worth retrying (injected fault)."""


class SessionStatus(Enum):
    """How one client session ended."""

    COMPLETED = "completed"  # negotiation succeeded, SLA signed
    DEGRADED = "degraded"  # retries exhausted, last-known SLA served
    REJECTED = "rejected"  # negotiation failed for a permanent reason
    FAILED = "failed"  # retries exhausted, nothing to degrade to
    OVERLOADED = "overloaded"  # bounced at admission, queue full
    DEADLINE_EXCEEDED = "deadline-exceeded"
    BULKHEAD_REJECTED = "bulkhead-rejected"  # class compartment full


#: Preseeded so a metrics snapshot always shows the complete family.
SESSION_OUTCOMES = tuple(status.value for status in SessionStatus)


@dataclass
class SessionResult:
    """The runtime's answer for one submitted request."""

    request: ClientRequest
    status: SessionStatus
    negotiation: Optional[NegotiationResult] = None
    sla: Optional[SLA] = None
    attempts: int = 0
    retries: int = 0
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    detail: str = ""
    #: Admission-order session number (−1 for bounced admissions).
    index: int = -1
    #: The caller-supplied session key for keyed (fleet) sessions.
    session_key: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the client walked away with a usable SLA."""
        return self.status in (
            SessionStatus.COMPLETED,
            SessionStatus.DEGRADED,
        )

    @property
    def degraded(self) -> bool:
        return self.status is SessionStatus.DEGRADED


@dataclass
class Overloaded(SessionResult):
    """Typed admission rejection: the queue was full on arrival."""

    def __post_init__(self) -> None:
        self.status = SessionStatus.OVERLOADED


@dataclass(frozen=True)
class RuntimeConfig(Config):
    """Knobs of the serving layer."""

    error = RuntimeError_

    workers: int = knob(
        4, range=POSITIVE_INT, flag="--workers", help="worker pool size"
    )
    max_queue_depth: int = knob(
        256,
        range=POSITIVE_INT,
        flag="--queue",
        metavar="DEPTH",
        help="admission queue bound (full queue ⇒ typed overload)",
    )
    deadline_s: Optional[float] = knob(
        30.0,
        range=POSITIVE,
        optional=True,
        off=0.0,
        flag="--deadline",
        metavar="SECONDS",
        help="per-session deadline; 0 disables it",
    )
    retry: RetryPolicy = subtree(RetryPolicy)
    seed: Optional[int] = knob(
        None, type=int, flag="--seed", help="master RNG seed"
    )
    verify_independence: bool = False
    #: Event-loop responsiveness probe period; 0 disables the probe.
    probe_interval_s: float = knob(0.05, range=NON_NEGATIVE)


@dataclass(frozen=True)
class CoalitionQuery(Config):
    """One offloadable Sec. 6 coalition-formation request.

    A search runs far longer than a negotiation session, so it runs on
    a thread (``asyncio.to_thread``), off the event loop, and a
    seedless query draws its seed from the server's master RNG — so a
    single ``RuntimeConfig.seed`` reproduces a whole mixed workload of
    negotiations and coalition queries.  The search knobs are declared
    here once; ``repro coalitions`` generates its flags from them.
    """

    error = RuntimeError_

    network: TrustNetwork
    op: "str | CompositionOp" = "min"
    aggregate: "str | CompositionOp" = "min"
    seed: Optional[int] = None
    restarts: int = knob(
        3, range=POSITIVE_INT, flag="--restarts", help="hill-climb restarts"
    )
    max_iterations: int = knob(
        200,
        range=NON_NEGATIVE_INT,
        flag="--max-iterations",
        help="climb steps per restart",
    )
    neighbour_sample: int = knob(
        64,
        range=POSITIVE_INT,
        flag="--neighbour-sample",
        help="candidate moves scored per step",
    )


#: Preseeded so a metrics snapshot always shows the complete family.
COALITION_OUTCOMES = ("stable", "unstable")


async def probe_loop_lag(interval: float) -> None:
    """Measure event-loop scheduling lag every ``interval`` seconds,
    until cancelled.  Sessions run on the loop, so this histogram shows
    how long timers wait behind the negotiations in progress.  A server
    and a fleet each run one."""
    histogram = get_registry().histogram(
        "runtime_loop_lag_seconds",
        "Extra delay of a timed sleep on the event loop — "
        "how long timers wait behind the sessions running on it.",
        buckets=LATENCY_BUCKETS,
    )
    while True:
        started = time.perf_counter()
        await asyncio.sleep(interval)
        histogram.observe(max(0.0, time.perf_counter() - started - interval))


@dataclass
class _Session:
    """One admitted request waiting in (or moving through) the queue."""

    index: int
    request: ClientRequest
    future: "asyncio.Future[SessionResult]"
    rng: random.Random
    submitted_at: float
    deadline_s: Optional[float]
    #: Fleet routing/reproducibility key (None for plain sessions).
    key: Optional[str] = None
    #: Fault-injection tick override; defaults to the admission index.
    #: The fleet passes its global admission sequence number, so outage
    #: windows span fleet-wide admission order, not per-shard order.
    tick: Optional[int] = None
    #: Agreements served before admission (the broker repository's
    #: ``servings``): the only ones the session may degrade to.
    known: int = 0

    @property
    def admitted(self) -> Tuple[int, int]:
        """The session's admission order, across runs on one broker:
        agreements served before it, then its fault tick."""
        return (self.known, self.index if self.tick is None else self.tick)


class RuntimeServer:
    """Serves concurrent negotiation sessions over one broker."""

    def __init__(
        self,
        broker: Broker,
        config: Optional[RuntimeConfig] = None,
        injector: Optional[FaultInjector] = None,
        resilience: "Optional[ResilienceConfig | ResiliencePolicy]" = None,
    ) -> None:
        self.broker = broker
        self.config = config or RuntimeConfig()
        self.injector = injector
        self.results: List[SessionResult] = []
        self._rng = random.Random(self.config.seed)
        self._queue: Optional["asyncio.Queue[_Session]"] = None
        self._workers: List["asyncio.Task[None]"] = []
        self._probe: Optional["asyncio.Task[None]"] = None
        self._health_task: Optional["asyncio.Task[None]"] = None
        self._coalition_slots: Optional[asyncio.Semaphore] = None
        self._sessions_submitted = 0
        #: Called as a worker picks a session up; returning True means
        #: another server took the session over and resolves its future.
        #: A fleet installs it to redirect keys a reshard moved.
        self.redirect: Optional[Callable[[_Session], bool]] = None
        # The resilience layer: a prebuilt policy (the fleet shares
        # breakers/health/DLQ across shards) or a config to build from.
        if isinstance(resilience, ResiliencePolicy):
            self.resilience = resilience
            self.resilience.attach(broker.registry)
        else:
            self.resilience = build_resilience(
                resilience,
                broker.registry,
                injector=injector,
                seed=self.config.seed,
                tick_source=lambda: self._sessions_submitted,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._workers)

    async def start(self) -> None:
        if self.started:
            return
        self._queue = asyncio.Queue(maxsize=self.config.max_queue_depth)
        self._coalition_slots = asyncio.Semaphore(self.config.workers)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"runtime-worker-{i}")
            for i in range(self.config.workers)
        ]
        if self.config.probe_interval_s > 0:
            self._probe = asyncio.create_task(
                probe_loop_lag(self.config.probe_interval_s),
                name="runtime-loop-probe",
            )
        if self.resilience.health is not None:
            self._health_task = asyncio.create_task(
                self.resilience.health.run(), name="runtime-health"
            )

    async def stop(self, drain: bool = False) -> None:
        """Cancel workers and the server's background tasks.

        By default admitted sessions are abandoned: the future of every
        session still queued or in flight is cancelled, so a caller
        awaiting one gets :class:`asyncio.CancelledError` instead of
        waiting forever (``serve`` awaits every submitted future before
        stopping).  ``drain=True`` first waits for the admission queue
        to empty and every picked-up session to finish — the graceful
        shutdown the fleet uses when decommissioning a shard.
        """
        if drain and self._queue is not None:
            await self._queue.join()
        for task in self._workers:
            task.cancel()
        for aux in (self._probe, self._health_task):
            if aux is not None:
                aux.cancel()
        pending = [
            *self._workers,
            *(task for task in (self._probe, self._health_task) if task),
        ]
        for task in pending:
            try:
                await task
            except asyncio.CancelledError:
                pass
        while self._queue is not None and not self._queue.empty():
            session = self._queue.get_nowait()
            session.future.cancel()
            self._release(session)
        self._workers = []
        self._probe = None
        self._health_task = None
        self._coalition_slots = None
        self._queue = None

    async def __aenter__(self) -> "RuntimeServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        request: ClientRequest,
        deadline_s: Optional[float] = None,
        session_key: Optional[str] = None,
        tick: Optional[int] = None,
        known: Optional[int] = None,
    ) -> "asyncio.Future[SessionResult]":
        """Admit one request; resolves to its :class:`SessionResult`.

        Admission control happens *here*, synchronously: a full queue
        resolves the future immediately with a typed
        :class:`Overloaded` result instead of buffering without bound.
        ``deadline_s`` overrides the configured per-session deadline.

        ``session_key`` switches the session to *keyed* reproducibility:
        its RNG derives from ``(config.seed, session_key)`` instead of
        the master stream in admission order, so a fleet run is
        shard-count-independent.  ``tick`` overrides the fault-injection
        tick (default: the per-server admission index), and ``known``
        the number of served agreements the session may degrade to
        (default: those served so far; a fleet passes a redirected
        session's original count).
        """
        if not self.started or self._queue is None:
            raise RuntimeError_("submit() before start()")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SessionResult]" = loop.create_future()
        index = self._sessions_submitted
        self._sessions_submitted += 1
        bulkhead = self.resilience.bulkhead
        if bulkhead is not None and not bulkhead.try_acquire(
            request.operation
        ):
            result = SessionResult(
                request=request,
                status=SessionStatus.BULKHEAD_REJECTED,
                detail=(
                    f"bulkhead compartment for {request.operation!r} full"
                ),
                index=index,
                session_key=session_key,
            )
            self._finish(result)
            future.set_result(result)
            return future
        if session_key is not None:
            # Keyed stream: identical whichever server gets the session.
            rng = random.Random(
                derive_session_seed(self.config.seed, session_key)
            )
        else:
            # One child stream per session, derived in admission order:
            # reproducible under any worker interleaving.
            rng = random.Random(self._rng.getrandbits(64))
        session = _Session(
            index=index,
            request=request,
            future=future,
            rng=rng,
            submitted_at=time.perf_counter(),
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.deadline_s
            ),
            key=session_key,
            tick=tick,
            known=self.broker.slas.servings if known is None else known,
        )
        try:
            self._queue.put_nowait(session)
        except asyncio.QueueFull:
            if bulkhead is not None:
                bulkhead.release(request.operation)
            result = Overloaded(
                request=request,
                status=SessionStatus.OVERLOADED,
                detail=(
                    f"admission queue full "
                    f"({self.config.max_queue_depth} waiting)"
                ),
                index=index,
                session_key=session_key,
            )
            self._finish(result)
            future.set_result(result)
            return future
        get_registry().gauge(
            "runtime_queue_depth",
            "Admitted sessions waiting for a worker.",
        ).set(self._queue.qsize())
        return future

    async def serve(
        self, requests: Iterable[ClientRequest]
    ) -> List[SessionResult]:
        """Submit every request and await all results (starting and
        stopping the server when not already running)."""
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

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        registry = get_registry()
        inflight = registry.gauge(
            "runtime_inflight_sessions",
            "Sessions currently being driven by a worker.",
        )
        queue_depth = registry.gauge(
            "runtime_queue_depth",
            "Admitted sessions waiting for a worker.",
        )
        while True:
            session = await self._queue.get()
            queue_depth.set(self._queue.qsize())
            if self.redirect is not None and self.redirect(session):
                self._release(session)
                continue
            inflight.inc()
            try:
                result = await self._run_session(session)
            except asyncio.CancelledError:
                # stop() abandoned the session mid-flight.
                session.future.cancel()
                raise
            except Exception as exc:  # defensive: never kill the worker
                result = SessionResult(
                    request=session.request,
                    status=SessionStatus.FAILED,
                    detail=f"internal error: {exc}",
                )
                result.latency_s = time.perf_counter() - session.submitted_at
            finally:
                inflight.dec()
                self._release(session)
            result.index = session.index
            result.session_key = session.key
            self._finish(result, tick=session.tick)
            if not session.future.done():
                session.future.set_result(result)

    def _release(self, session: _Session) -> None:
        """Mark a dequeued session done: its queue slot and bulkhead
        compartment free up."""
        assert self._queue is not None
        self._queue.task_done()
        if self.resilience.bulkhead is not None:
            self.resilience.bulkhead.release(session.request.operation)

    async def _run_session(self, session: _Session) -> SessionResult:
        registry = get_registry()
        queue_wait = time.perf_counter() - session.submitted_at
        registry.histogram(
            "runtime_queue_wait_seconds",
            "Time between admission and a worker picking the session up.",
            buckets=LATENCY_BUCKETS,
        ).observe(queue_wait)

        request = session.request
        with get_tracer().span(
            "runtime.session",
            index=session.index,
            client=request.client,
            operation=request.operation,
            attribute=request.attribute,
        ) as span:
            span.set_attribute("queue_wait_s", queue_wait)
            budget: Optional[float] = None
            if session.deadline_s is not None:
                budget = session.deadline_s - queue_wait
            # Every session yields once before it runs: a worker whose
            # queue holds sessions gets them without a yield, so without
            # this it would run them back to back while timers, the
            # probe and the other workers wait.
            await asyncio.sleep(0)
            if budget is not None and budget <= 0:
                result = SessionResult(
                    request=request,
                    status=SessionStatus.DEADLINE_EXCEEDED,
                    queue_wait_s=queue_wait,
                    detail="deadline expired while queued",
                )
            else:
                try:
                    result = await asyncio.wait_for(
                        self._attempts(session), timeout=budget
                    )
                except asyncio.TimeoutError:
                    result = SessionResult(
                        request=request,
                        status=SessionStatus.DEADLINE_EXCEEDED,
                        queue_wait_s=queue_wait,
                        detail=(
                            f"deadline of {session.deadline_s:.3f}s "
                            "exceeded mid-session"
                        ),
                    )
            result.queue_wait_s = queue_wait
            result.latency_s = time.perf_counter() - session.submitted_at
            span.set_attribute("outcome", result.status.value)
            span.set_attribute("attempts", result.attempts)
        registry.histogram(
            "runtime_session_seconds",
            "End-to-end session latency (submission to result).",
            buckets=LATENCY_BUCKETS,
        ).observe(result.latency_s)
        return result

    async def _attempts(self, session: _Session) -> SessionResult:
        """Drive the five-step lifecycle with retries and degradation."""
        request = session.request
        registry = get_registry()
        events = get_events()
        policy = self.config.retry
        last_error = ""
        attempt = 0
        while attempt < policy.max_attempts:
            attempt += 1
            try:
                negotiation = await self._negotiate(request)
            except BrokerError as exc:
                return SessionResult(
                    request=request,
                    status=SessionStatus.REJECTED,
                    attempts=attempt,
                    retries=attempt - 1,
                    detail=f"broker error: {exc}",
                )
            if not negotiation.success:
                # A failed negotiation is a property of the market, not
                # of a flaky provider: retrying cannot change it.
                return SessionResult(
                    request=request,
                    status=SessionStatus.REJECTED,
                    negotiation=negotiation,
                    attempts=attempt,
                    retries=attempt - 1,
                    detail=negotiation.detail,
                )
            try:
                await self._apply_faults(session, negotiation)
            except TransientFault as exc:
                last_error = str(exc)
                if attempt >= policy.max_attempts:
                    break
                backoff = policy.backoff(attempt, session.rng)
                registry.counter(
                    "runtime_retries_total",
                    "Session attempts re-driven after transient faults.",
                ).inc()
                registry.histogram(
                    "runtime_backoff_seconds",
                    "Backoff slept between attempts.",
                    buckets=LATENCY_BUCKETS,
                ).observe(backoff)
                events.emit(
                    "runtime.retry",
                    client=request.client,
                    operation=request.operation,
                    session=session.index,
                    attempt=attempt,
                    backoff_s=backoff,
                    reason=last_error,
                )
                await asyncio.sleep(backoff)
                continue
            if negotiation.sla is not None:
                self.broker.slas.serve(negotiation.sla, session.admitted)
            return SessionResult(
                request=request,
                status=SessionStatus.COMPLETED,
                negotiation=negotiation,
                sla=negotiation.sla,
                attempts=attempt,
                retries=attempt - 1,
                detail=negotiation.detail,
            )
        return self._degrade(session, attempt, last_error)

    async def _negotiate(self, request: ClientRequest) -> NegotiationResult:
        """One broker lifecycle, on the event loop.

        Without an allocation policy this is ``Broker.negotiate``, which
        runs to completion without yielding.  With one, the session
        joins the broker's :class:`~repro.runtime.batching.RoundScheduler`
        and awaits its allocation round.
        """
        verify = self.config.verify_independence
        rounds = self.broker.rounds
        if rounds is None:
            return self.broker.negotiate(request, verify)
        return await rounds.negotiate(self.broker, request, verify)

    # ------------------------------------------------------------------
    # Coalition queries
    # ------------------------------------------------------------------

    async def solve_coalitions(
        self, query: CoalitionQuery
    ) -> CoalitionSolution:
        """Serve one coalition query on a thread, off the event loop.

        The seed is drawn (for seedless queries) synchronously before
        the offload, so issuing queries in a fixed order reproduces
        their results regardless of how the threads interleave them.
        The engine itself runs single-threaded here, on the loop's
        default thread pool; at most ``workers`` queries run at once.
        ``stop()`` does not wait for a search in progress: its caller
        awaits it (``run_coalitions`` awaits every query before it
        stops the server).
        """
        if not self.started:
            raise RuntimeError_("solve_coalitions() before start()")
        seed = (
            query.seed
            if query.seed is not None
            else self._rng.getrandbits(64)
        )

        def run() -> CoalitionSolution:
            with get_tracer().span(
                "runtime.coalitions",
                agents=len(query.network),
                restarts=query.restarts,
            ):
                return solve_engine(
                    query.network,
                    op=query.op,
                    aggregate=query.aggregate,
                    seed=seed,
                    restarts=query.restarts,
                    max_iterations=query.max_iterations,
                    neighbour_sample=query.neighbour_sample,
                    workers=1,
                )

        assert self._coalition_slots is not None
        async with self._coalition_slots:
            solution = await asyncio.to_thread(run)
        get_registry().counter(
            "runtime_coalition_queries_total",
            "Coalition queries served by the runtime, by outcome.",
            labelnames=("outcome",),
        ).preseed(COALITION_OUTCOMES).labels(
            "stable" if solution.stable else "unstable"
        ).inc()
        return solution

    def run_coalitions(
        self, queries: Iterable[CoalitionQuery]
    ) -> List[CoalitionSolution]:
        """Synchronous convenience wrapper: serve a batch of coalition
        queries concurrently, starting and stopping the server when not
        already running."""

        async def drive() -> List[CoalitionSolution]:
            owns_lifecycle = not self.started
            if owns_lifecycle:
                await self.start()
            try:
                tasks = [
                    asyncio.ensure_future(self.solve_coalitions(query))
                    for query in queries
                ]
                return list(await asyncio.gather(*tasks))
            finally:
                if owns_lifecycle:
                    await self.stop()

        return asyncio.run(drive())

    async def _apply_faults(
        self, session: _Session, negotiation: NegotiationResult
    ) -> None:
        """Consult the injector for the chosen provider; a ``fail``
        fault sinks this attempt and terminates the SLA it signed (no
        session may degrade to it), a delay fault slows it down.

        Doubles as the circuit breakers' feedback path: the provider
        whose service faulted records a failure, and a clean pass
        records a success for every provider bound by the SLA.
        """
        breakers = self.resilience.breakers
        if self.injector is None or negotiation.sla is None:
            return
        sla = negotiation.sla
        provider_of = dict(zip(sla.service_ids, sla.providers))
        tick = session.tick if session.tick is not None else session.index
        for service_id in sla.service_ids:
            fault = self.injector.decide(
                service_id, tick=tick, rng=session.rng
            )
            if fault is None:
                continue
            if fault.extra_latency_ms:
                await asyncio.sleep(fault.extra_latency_ms / 1000.0)
            if fault.fail:
                if breakers is not None:
                    breakers.record_failure(
                        provider_of.get(service_id, service_id)
                    )
                sla.terminate()
                raise TransientFault(
                    f"injected {fault.kind} on {service_id!r}"
                )
        if breakers is not None:
            for provider in sla.providers:
                breakers.record_success(provider)

    def _degrade(
        self, session: _Session, attempts: int, last_error: str
    ) -> SessionResult:
        """Retries exhausted: serve the client's last-known SLA for the
        operation and attribute, when one exists
        (:meth:`~repro.soa.sla.SLARepository.last_known`)."""
        request = session.request
        sla = self.broker.slas.last_known(
            request.client,
            request.operation,
            request.attribute,
            session.known,
        )
        if sla is None:
            return SessionResult(
                request=request,
                status=SessionStatus.FAILED,
                attempts=attempts,
                retries=attempts - 1,
                detail=f"retries exhausted ({last_error}); no known SLA",
            )
        get_registry().counter(
            "runtime_degraded_total",
            "Sessions degraded to the last-known SLA after retries.",
        ).inc()
        get_events().emit(
            "runtime.degraded",
            client=request.client,
            operation=request.operation,
            session=session.index,
            sla_id=sla.sla_id,
            reason=last_error,
        )
        return SessionResult(
            request=request,
            status=SessionStatus.DEGRADED,
            sla=sla,
            attempts=attempts,
            retries=attempts - 1,
            detail=(
                f"retries exhausted ({last_error}); "
                f"serving last-known SLA#{sla.sla_id}"
            ),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _finish(
        self, result: SessionResult, tick: Optional[int] = None
    ) -> None:
        self.results.append(result)
        dlq = self.resilience.dlq
        if dlq is not None:
            dlq.capture(
                result,
                master_seed=self.config.seed,
                tick=tick,
                broker_config=self.broker.config.to_dict(),
            )
        registry = get_registry()
        registry.counter(
            "runtime_sessions_total",
            "Runtime sessions served, by outcome.",
            labelnames=("outcome",),
        ).preseed(SESSION_OUTCOMES).labels(result.status.value).inc()
        if result.status is SessionStatus.OVERLOADED:
            registry.counter(
                "runtime_overloaded_total",
                "Sessions bounced at admission (queue full).",
            ).inc()
            get_events().emit(
                "runtime.overloaded",
                client=result.request.client,
                operation=result.request.operation,
            )
        elif result.status is SessionStatus.BULKHEAD_REJECTED:
            get_events().emit(
                "runtime.bulkhead-rejected",
                client=result.request.client,
                operation=result.request.operation,
            )
