"""E13 — runtime serving throughput (ours).

Series: delivered requests/second and end-to-end latency percentiles of
the concurrent runtime under open-loop (Poisson) and closed-loop load,
plus the overload regime where admission control sheds excess arrivals.
Shape expectations: completed+degraded throughput tracks the offered
rate until the worker pool saturates; beyond the queue bound the
overload counter grows instead of the latency tail (bounded admission
trades waiting for typed rejection).

Quick mode (the default, CI-sized) serves ~40 sessions per case; set
``REPRO_BENCH_FULL=1`` for the paper-sized run — 500 clients at 200
req/s, the acceptance load of the runtime subsystem.
"""

import os
import statistics

import pytest
from conftest import record_bench_artifact, report

from repro.runtime import (
    LoadGenerator,
    LoadProfile,
    RuntimeConfig,
    RuntimeServer,
    synthesize_market,
    synthetic_request_factory,
)
from repro.soa import Broker, BrokerConfig

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

#: (clients, requests, open-loop rate) per mode.
SCALE = {
    "quick": {"clients": 20, "requests": 40, "rate": 400.0},
    "full": {"clients": 500, "requests": 500, "rate": 200.0},
}[("full" if FULL else "quick")]


def make_server(workers=4, max_queue_depth=256, seed=11, **broker_kwargs):
    registry = synthesize_market(seed=seed)
    return RuntimeServer(
        Broker(registry, BrokerConfig(**broker_kwargs)),
        RuntimeConfig(
            workers=workers, max_queue_depth=max_queue_depth, seed=seed
        ),
    )


def run_load(mode, rate=None, **overrides):
    profile = LoadProfile(
        clients=SCALE["clients"],
        requests=SCALE["requests"],
        mode=mode,
        rate=rate if rate is not None else SCALE["rate"],
        seed=7,
    )
    server = overrides.pop("server", None) or make_server(**overrides)
    generator = LoadGenerator(
        server, profile, synthetic_request_factory()
    )
    return generator.run_sync()


def latency_row(label, summary):
    return (
        label,
        f"{summary['p50'] * 1000:.2f}",
        f"{summary['p95'] * 1000:.2f}",
        f"{summary['p99'] * 1000:.2f}",
        f"{summary['max'] * 1000:.2f}",
    )


@pytest.mark.parametrize("mode", ("open", "closed"))
def test_throughput_by_mode(benchmark, mode):
    reports = []

    def one_run():
        load = run_load(mode)
        reports.append(load)
        return load

    load = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert load.offered == SCALE["requests"]
    assert load.completed + load.degraded == load.offered
    assert load.throughput_rps > 0
    report(
        f"E13 runtime throughput — {mode} loop "
        f"({'full' if FULL else 'quick'} mode)",
        [
            (
                load.offered,
                f"{load.duration_s:.3f}",
                f"{load.throughput_rps:.1f}",
                load.retries_total,
                dict(load.outcomes),
            )
        ],
        headers=("offered", "duration_s", "req/s", "retries", "outcomes"),
    )
    report(
        f"E13 latency percentiles (ms) — {mode} loop",
        [
            latency_row("end-to-end", load.latency_s),
            latency_row("queue wait", load.queue_wait_s),
        ],
        headers=("series", "p50", "p95", "p99", "max"),
    )


def test_solve_cache_warm_vs_cold_throughput(benchmark):
    """PR3 acceptance: warm solve-cache throughput beats cold.

    Closed-loop load (the solve-bound regime — no arrival-rate ceiling):
    *cold* serves with the broker cache disabled, so every session pays
    a full SCSP solve; *warm* keeps the default cache, primed by one
    untimed run, so sessions hit fingerprint-identical entries.  Medians
    of 3 runs each land in ``BENCH_PR3.json``.
    """

    def compare():
        cold_server = make_server(solve_cache=False)
        warm_server = make_server()
        run_load("closed", server=warm_server)  # prime the cache
        cold_rps, warm_rps = [], []
        for _ in range(3):
            cold_rps.append(
                run_load("closed", server=cold_server).throughput_rps
            )
            warm_rps.append(
                run_load("closed", server=warm_server).throughput_rps
            )
        return (
            statistics.median(cold_rps),
            statistics.median(warm_rps),
            warm_server,
        )

    cold, warm, warm_server = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    cache_stats = warm_server.broker.solve_cache.stats()
    report(
        f"PR3 — solve cache cold vs warm (closed loop, "
        f"{'full' if FULL else 'quick'} mode, median of 3)",
        [
            (
                f"{cold:.1f}",
                f"{warm:.1f}",
                f"{warm / cold:.2f}x",
                cache_stats["hits"],
                cache_stats["misses"],
            )
        ],
        headers=(
            "cold req/s",
            "warm req/s",
            "ratio",
            "cache hits",
            "cache misses",
        ),
    )
    record_bench_artifact(
        "runtime_throughput_cold_vs_warm",
        {
            "mode": "closed",
            "scale": SCALE,
            "median_cold_rps": cold,
            "median_warm_rps": warm,
            "ratio": warm / cold,
            "cache_hits": cache_stats["hits"],
            "cache_misses": cache_stats["misses"],
        },
    )
    assert cache_stats["hits"] > 0
    assert warm > cold, (
        f"warm cache ({warm:.1f} req/s) not faster than cold "
        f"({cold:.1f} req/s)"
    )


def test_overload_sheds_load_instead_of_queueing(benchmark):
    """A deliberately starved server (1 worker, shallow queue) under a
    hot open loop: admission control bounces the excess instead of
    letting the queue wait tail grow without bound."""

    def one_run():
        # Arrivals far above what one worker can absorb (~1 ms/solve).
        return run_load(
            "open",
            rate=20_000.0,
            server=make_server(workers=1, max_queue_depth=4),
        )

    load = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert load.offered == SCALE["requests"]
    assert load.overloaded > 0
    assert load.completed > 0
    # nothing silently lost: every offered session got a typed outcome
    assert sum(load.outcomes.values()) == load.offered
    report(
        "E13 overload regime (1 worker, queue=4)",
        [
            (
                load.offered,
                load.completed,
                load.overloaded,
                f"{load.queue_wait_s['p99'] * 1000:.2f}",
            )
        ],
        headers=("offered", "completed", "overloaded", "queue p99 (ms)"),
    )
