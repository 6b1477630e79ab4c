"""RuntimeServer: admission, workers, deadlines, retries, seeds."""

import asyncio
import threading
import time

import pytest

from repro.runtime import (
    Overloaded,
    RetryPolicy,
    RuntimeConfig,
    RuntimeServer,
    SessionStatus,
)
from repro.runtime.server import RuntimeError_
from repro.soa import BernoulliCrash, Broker, ClientRequest, FaultInjector
from repro.telemetry import telemetry_session


def sessions_for(broker, make_request, count):
    return [make_request(client=f"c{i}") for i in range(count)]


class TestServing:
    def test_serves_concurrent_sessions(self, broker, make_request):
        server = RuntimeServer(broker, RuntimeConfig(workers=3, seed=1))
        results = server.run(sessions_for(broker, make_request, 8))
        assert len(results) == 8
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        assert all(r.sla is not None for r in results)
        assert all(r.attempts == 1 for r in results)
        # results come back in submission order with their admission index
        assert [r.index for r in results] == list(range(8))

    def test_each_client_gets_its_own_sla(self, broker, make_request):
        server = RuntimeServer(broker, RuntimeConfig(seed=1))
        results = server.run(sessions_for(broker, make_request, 5))
        assert len({r.sla.sla_id for r in results}) == 5

    def test_rejected_when_no_provider_matches(self, broker):
        server = RuntimeServer(broker, RuntimeConfig(seed=1))
        impossible = ClientRequest(
            client="C", operation="no-such-op", attribute="cost"
        )
        (result,) = server.run([impossible])
        assert result.status is SessionStatus.REJECTED
        assert result.attempts == 1  # permanent: not worth retrying
        assert not result.ok

    def test_submit_before_start_raises(self, broker, make_request):
        server = RuntimeServer(broker)
        with pytest.raises(RuntimeError_):
            asyncio.run(self._submit_unstarted(server, make_request()))

    @staticmethod
    async def _submit_unstarted(server, request):
        server.submit(request)


class TestAdmissionControl:
    def test_queue_overflow_yields_typed_overload(self, broker, make_request):
        async def flood():
            config = RuntimeConfig(
                workers=1, max_queue_depth=2, seed=1, probe_interval_s=0
            )
            async with RuntimeServer(broker, config) as server:
                # Submit synchronously without yielding: the single
                # worker cannot drain, so the 3rd+ submissions bounce.
                futures = [
                    server.submit(make_request(client=f"c{i}"))
                    for i in range(6)
                ]
                return await asyncio.gather(*futures)

        results = asyncio.run(flood())
        bounced = [r for r in results if isinstance(r, Overloaded)]
        assert len(bounced) >= 3
        assert all(
            r.status is SessionStatus.OVERLOADED and "queue full" in r.detail
            for r in bounced
        )
        served = [r for r in results if not isinstance(r, Overloaded)]
        assert served and all(
            r.status is SessionStatus.COMPLETED for r in served
        )

    def test_bounced_sessions_never_occupy_a_worker(
        self, broker, make_request
    ):
        async def flood():
            config = RuntimeConfig(workers=1, max_queue_depth=1, seed=1)
            async with RuntimeServer(broker, config) as server:
                futures = [
                    server.submit(make_request(client=f"c{i}"))
                    for i in range(4)
                ]
                return await asyncio.gather(*futures)

        results = asyncio.run(flood())
        assert all(
            r.attempts == 0
            for r in results
            if r.status is SessionStatus.OVERLOADED
        )


class TestDeadlines:
    def test_zero_budget_expires_in_queue(self, broker, make_request):
        server = RuntimeServer(broker, RuntimeConfig(workers=1, seed=1))

        async def submit_with_tiny_deadline():
            async with server:
                future = server.submit(make_request(), deadline_s=1e-9)
                return await future

        result = asyncio.run(submit_with_tiny_deadline())
        assert result.status is SessionStatus.DEADLINE_EXCEEDED
        assert not result.ok

    def test_generous_deadline_completes(self, broker, make_request):
        server = RuntimeServer(
            broker, RuntimeConfig(deadline_s=30.0, seed=1)
        )
        (result,) = server.run([make_request()])
        assert result.status is SessionStatus.COMPLETED

    def test_overrun_keeps_its_agreement(self, market, make_request):
        """A negotiation outlasting the deadline runs to completion, and
        its session reports the SLA it signed: the broker holds no
        agreement that no result carries."""

        class SlowBroker(Broker):
            def negotiate(self, request, verify_scheduler_independence=False):
                time.sleep(0.05)
                return super().negotiate(
                    request, verify_scheduler_independence
                )

        broker = SlowBroker(market)
        server = RuntimeServer(
            broker, RuntimeConfig(workers=1, seed=1, deadline_s=0.01)
        )
        (result,) = server.run([make_request()])
        assert result.sla is not None
        assert result.latency_s > 0.01
        held = {sla.sla_id for sla in broker.slas}
        assert held and held <= {
            r.sla.sla_id for r in server.results if r.sla is not None
        }


class TestShutdown:
    def test_stop_without_drain_cancels_abandoned_sessions(
        self, broker, make_request
    ):
        server = RuntimeServer(broker, RuntimeConfig(workers=1, seed=1))

        async def abandon():
            await server.start()
            futures = [
                server.submit(r)
                for r in sessions_for(broker, make_request, 6)
            ]
            await asyncio.sleep(0)  # the worker picks one session up
            await server.stop(drain=False)
            return futures

        futures = asyncio.run(abandon())
        # Queued and in-flight sessions alike: an awaiting caller gets
        # CancelledError instead of a future that never resolves.
        assert all(f.done() for f in futures)
        assert all(f.cancelled() for f in futures)


class TestRetries:
    def test_transient_faults_are_retried(self, broker, make_request):
        injector = FaultInjector(seed=5)
        for sid in ("filter-P1", "filter-P2", "filter-P3"):
            injector.attach(sid, BernoulliCrash(0.6))
        config = RuntimeConfig(
            workers=2,
            seed=5,
            retry=RetryPolicy(
                max_attempts=5, base_backoff_s=0.001, jitter=0.5
            ),
        )
        # Every client first holds a clean SLA, which a session whose
        # every attempt fails degrades to.
        requests = sessions_for(broker, make_request, 12)
        RuntimeServer(broker, RuntimeConfig(seed=5)).run(requests)
        server = RuntimeServer(broker, config, injector=injector)
        results = server.run(requests)
        assert sum(r.retries for r in results) > 0
        assert all(r.ok for r in results)  # retried or degraded, never lost

    def test_retry_metrics_and_events(self, broker, make_request):
        injector = FaultInjector(seed=5)
        for sid in ("filter-P1", "filter-P2", "filter-P3"):
            injector.attach(sid, BernoulliCrash(0.6))
        config = RuntimeConfig(
            workers=2,
            seed=5,
            retry=RetryPolicy(max_attempts=5, base_backoff_s=0.001),
        )
        with telemetry_session() as session:
            server = RuntimeServer(broker, config, injector=injector)
            results = server.run(sessions_for(broker, make_request, 12))
        retries = sum(r.retries for r in results)
        assert retries > 0
        counter = session.registry.get("runtime_retries_total")
        assert counter is not None and counter.value == retries
        retry_events = session.events.of_kind("runtime.retry")
        assert len(retry_events) == retries
        assert all(e["backoff_s"] >= 0 for e in retry_events)


class TestReproducibility:
    def run_with_seed(self, broker_factory, make_request, seed):
        broker = broker_factory()
        injector = FaultInjector(seed=seed)
        for sid in ("filter-P1", "filter-P2", "filter-P3"):
            injector.attach(sid, BernoulliCrash(0.5))
        config = RuntimeConfig(
            workers=3,
            seed=seed,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.001),
        )
        server = RuntimeServer(broker, config, injector=injector)
        results = server.run(
            [make_request(client=f"c{i}") for i in range(10)]
        )
        return [(r.status, r.attempts, r.retries) for r in results]

    def test_one_seed_reproduces_a_concurrent_run(
        self, market, make_request
    ):
        from repro.soa import Broker

        first = self.run_with_seed(lambda: Broker(market), make_request, 9)
        second = self.run_with_seed(lambda: Broker(market), make_request, 9)
        assert first == second

    def test_different_seeds_diverge(self, market, make_request):
        from repro.soa import Broker

        runs = {
            tuple(
                self.run_with_seed(lambda: Broker(market), make_request, s)
            )
            for s in range(6)
        }
        assert len(runs) > 1  # the seed actually steers fault decisions


def record_negotiations(broker, markers):
    """Wrap ``broker.negotiate`` to append a marker (and the calling
    thread's id) each time a session reaches the broker."""
    negotiate = broker.negotiate

    def marked(request, verify_scheduler_independence=False):
        markers.append(("session", threading.get_ident()))
        return negotiate(request, verify_scheduler_independence)

    broker.negotiate = marked


class TestLoopScheduling:
    @staticmethod
    def serve_with_ticker(broker, make_request, config, count):
        """Serve ``count`` sessions while a ``sleep(0)`` ticker marks every
        turn of the loop; returns the markers and the number of threads
        alive while the server ran."""
        markers = []
        record_negotiations(broker, markers)

        async def scenario():
            async def ticker():
                while True:
                    markers.append(("tick", threading.get_ident()))
                    await asyncio.sleep(0)

            probe = asyncio.create_task(ticker())
            async with RuntimeServer(broker, config) as server:
                futures = [
                    server.submit(make_request(client=f"c{i}"))
                    for i in range(count)
                ]
                results = await asyncio.gather(*futures)
                threads = threading.active_count()
            probe.cancel()
            return results, threads

        results, threads = asyncio.run(scenario())
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        return markers, threads

    def test_sessions_yield_between_each_other(self, market, make_request):
        """Sessions run on the loop, and each yields to it first: the
        loop turns between any two sessions of one worker, timed or
        not."""
        for deadline_s in (30.0, None):
            config = RuntimeConfig(workers=1, seed=1, deadline_s=deadline_s)
            markers, _ = self.serve_with_ticker(
                Broker(market), make_request, config, 10
            )
            kinds = [kind for kind, _ in markers]
            sessions = [i for i, kind in enumerate(kinds) if kind == "session"]
            assert len(sessions) == 10
            for first, second in zip(sessions, sessions[1:]):
                assert "tick" in kinds[first:second]

    def test_negotiate_runs_on_the_loop_thread(
        self, broker, make_request
    ):
        """No thread hop: the broker runs on the thread that runs the
        loop, and a server that serves no coalition query starts no
        thread."""
        before = threading.active_count()
        config = RuntimeConfig(workers=3, seed=1)
        markers, during = self.serve_with_ticker(
            broker, make_request, config, 6
        )
        threads = {kind: set() for kind in ("tick", "session")}
        for kind, thread in markers:
            threads[kind].add(thread)
        assert threads["session"] == threads["tick"] == {
            threading.get_ident()
        }
        assert during == before

    def test_broker_spans_nest_under_session_spans(
        self, broker, make_request
    ):
        with telemetry_session() as session:
            server = RuntimeServer(broker, RuntimeConfig(workers=3, seed=1))
            server.run([make_request(client=f"c{i}") for i in range(3)])
        roots = session.tracer.finished
        assert [r.name for r in roots].count("runtime.session") == 3
        for root in roots:
            assert root.name == "runtime.session"
            (child,) = root.children
            assert child.name == "broker.request"
            assert [c.name for c in child.children] == [
                "broker.step1-request",
                "broker.step2-registry-search",
                "broker.step3-negotiation",
                "broker.step4-compare",
                "broker.step5-sla",
            ]
