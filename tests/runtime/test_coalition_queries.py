"""Coalition queries as an offloadable runtime request kind."""

import asyncio
import threading
import time

import pytest

from repro.coalitions import figure9_network, solve_engine
import repro.runtime.server as server_module
from repro.runtime import CoalitionQuery, RuntimeConfig, RuntimeServer
from repro.runtime.server import RuntimeError_
from repro.telemetry import telemetry_session


@pytest.fixture
def network():
    return figure9_network()


def make_queries(network, count, **overrides):
    kw = dict(
        op="avg",
        aggregate="avg",
        restarts=2,
        max_iterations=40,
        neighbour_sample=24,
    )
    kw.update(overrides)
    return [CoalitionQuery(network, **kw) for _ in range(count)]


class TestCoalitionQueries:
    def test_serves_batch(self, broker, network):
        server = RuntimeServer(broker, RuntimeConfig(workers=2, seed=1))
        solutions = server.run_coalitions(make_queries(network, 4))
        assert len(solutions) == 4
        assert all(s.found for s in solutions)
        assert all(s.method == "engine" for s in solutions)

    def test_explicit_seed_matches_direct_engine_call(
        self, broker, network
    ):
        server = RuntimeServer(broker, RuntimeConfig(workers=2, seed=1))
        (served,) = server.run_coalitions(
            make_queries(network, 1, seed=42)
        )
        direct = solve_engine(
            network,
            op="avg",
            aggregate="avg",
            seed=42,
            restarts=2,
            max_iterations=40,
            neighbour_sample=24,
        )
        assert served.partition == direct.partition
        assert served.trust == direct.trust

    def test_seedless_queries_reproduce_under_config_seed(
        self, broker, network
    ):
        def batch():
            server = RuntimeServer(
                broker, RuntimeConfig(workers=3, seed=99)
            )
            return server.run_coalitions(make_queries(network, 5))

        first, second = batch(), batch()
        assert [s.partition for s in first] == [
            s.partition for s in second
        ]

    def test_mixed_with_negotiations(self, broker, network, make_request):
        # One server lifecycle can interleave both request kinds.
        async def drive():
            server = RuntimeServer(
                broker, RuntimeConfig(workers=2, seed=7)
            )
            async with server:
                negotiation = server.submit(make_request(client="c0"))
                coalition = asyncio.ensure_future(
                    server.solve_coalitions(
                        make_queries(network, 1)[0]
                    )
                )
                return await asyncio.gather(negotiation, coalition)

        session, solution = asyncio.run(drive())
        assert session.ok
        assert solution.found

    def test_at_most_workers_queries_run_at_once(
        self, broker, network, monkeypatch
    ):
        lock = threading.Lock()
        running, peak = [0], [0]

        def engine(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return solve_engine(*args, **kwargs)

        monkeypatch.setattr(server_module, "solve_engine", engine)
        server = RuntimeServer(broker, RuntimeConfig(workers=2, seed=1))
        solutions = server.run_coalitions(make_queries(network, 6))
        assert len(solutions) == 6
        assert peak[0] == 2

    def test_requires_started_server(self, broker, network):
        server = RuntimeServer(broker, RuntimeConfig(seed=1))

        async def call_unstarted():
            await server.solve_coalitions(make_queries(network, 1)[0])

        with pytest.raises(RuntimeError_):
            asyncio.run(call_unstarted())

    def test_emits_outcome_counter(self, broker, network):
        with telemetry_session() as session:
            server = RuntimeServer(broker, RuntimeConfig(workers=2, seed=1))
            solutions = server.run_coalitions(make_queries(network, 3))
        counter = session.registry.get("runtime_coalition_queries_total")
        assert counter is not None
        stable = sum(1 for s in solutions if s.stable)
        assert counter.labels("stable").value == stable
        assert counter.labels("unstable").value == len(solutions) - stable
        spans = [
            s
            for s in session.tracer.finished
            if s.name == "runtime.coalitions"
        ]
        assert len(spans) == 3


class TestQueryRanges:
    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 0), ("max_iterations", -1), ("neighbour_sample", 0)],
    )
    def test_out_of_range_search_knobs_raise(self, network, field, value):
        with pytest.raises(RuntimeError_, match=field):
            CoalitionQuery(network, **{field: value})

    def test_lowest_values_are_accepted(self, network):
        query = CoalitionQuery(
            network, restarts=1, max_iterations=0, neighbour_sample=1
        )
        assert (query.restarts, query.max_iterations) == (1, 0)

    def test_cli_defaults_are_the_query_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["coalitions", "net.json"])
        defaults = CoalitionQuery(figure9_network())
        assert (args.restarts, args.max_iterations, args.neighbour_sample) == (
            defaults.restarts,
            defaults.max_iterations,
            defaults.neighbour_sample,
        )
