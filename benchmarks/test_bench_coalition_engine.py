"""PR5 — incremental coalition engine vs the naive local search.

The workload is Sec. 6 coalition formation past exact-enumeration range:
seeded ``random_trust_network`` instances climbed with identical
trajectories (same restart seeds, same neighbourhood, same acceptance
order), once with the naive full-rescore scorer and once with the
engine's memoized delta scorer.  Because only the scorer differs, the
two must return the *same* partition and score on every instance — the
speedup is pure scoring efficiency, not a different search.

Quick mode runs in CI; the acceptance gate requires the engine to be
≥5× faster than ``solve_local_search`` at the largest quick instance.
``REPRO_BENCH_FULL=1`` adds the large instances and a portfolio-worker
sweep.  Results land in ``BENCH_PR5.json`` (uploaded by the CI bench
job).
"""

import os
import statistics
import time

import pytest
from conftest import BENCH_OUT, record_bench_artifact, report

from repro.coalitions import (
    random_trust_network,
    solve_engine,
    solve_local_search,
)

BENCH_PATH = os.environ.get(
    "REPRO_BENCH_PR5_JSON", f"{BENCH_OUT}/BENCH_PR5.json"
)

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

#: (agents, max_iterations, neighbour_sample); the last quick entry is
#: the acceptance-gate instance.
QUICK_SIZES = ((16, 25, 32), (20, 30, 48), (24, 40, 64))
FULL_SIZES = ((32, 40, 64), (40, 40, 80))
SIZES = QUICK_SIZES + (FULL_SIZES if FULL else ())

SEARCH_KW = dict(op="avg", aggregate="avg", seed=11, restarts=3)


def _instance(n):
    return random_trust_network(n, seed=7, density=0.6)


def _kw(iterations, sample):
    return dict(
        SEARCH_KW, max_iterations=iterations, neighbour_sample=sample
    )


def _median_seconds(fn, rounds=3):
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _interleaved_medians(first, second, rounds=7):
    """Median seconds of ``first`` and of ``second``, timed in
    alternation, so a host-speed swing lands on both sides alike."""
    samples = ([], [])
    for _ in range(rounds):
        for fn, out in zip((first, second), samples):
            started = time.perf_counter()
            fn()
            out.append(time.perf_counter() - started)
    return statistics.median(samples[0]), statistics.median(samples[1])


@pytest.mark.parametrize("n,iterations,sample", SIZES)
def test_engine_matches_naive_trajectory(benchmark, n, iterations, sample):
    network = _instance(n)
    kw = _kw(iterations, sample)

    def compare():
        naive = solve_local_search(network, **kw)
        engine = solve_engine(network, workers=1, **kw)
        return naive, engine

    naive, engine = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert engine.partition == naive.partition
    assert engine.trust == naive.trust
    assert engine.partitions_examined == naive.partitions_examined


def test_engine_vs_naive_gate(benchmark):
    """Acceptance gate: ≥5× at the largest quick instance, identical
    results (the engine is the same search, scored incrementally)."""
    n, iterations, sample = QUICK_SIZES[-1]
    network = _instance(n)
    kw = _kw(iterations, sample)

    def compare():
        naive = solve_local_search(network, **kw)
        engine = solve_engine(network, workers=1, **kw)
        naive_s, engine_s = _interleaved_medians(
            lambda: solve_local_search(network, **kw),
            lambda: solve_engine(network, workers=1, **kw),
        )
        return naive, engine, naive_s, engine_s

    naive, engine, naive_s, engine_s = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    assert engine.partition == naive.partition
    assert engine.trust == naive.trust
    speedup = naive_s / engine_s
    report(
        f"PR5 — coalition engine vs naive local search (n={n}, "
        f"{iterations} iterations, sample {sample}, interleaved median of 7)",
        [
            (
                f"{naive_s * 1000:.1f}",
                f"{engine_s * 1000:.1f}",
                f"{speedup:.1f}x",
            )
        ],
        headers=("naive (ms)", "engine (ms)", "speedup"),
    )
    record_bench_artifact(
        "coalition_engine_vs_naive",
        {
            "instance": {
                "agents": n,
                "max_iterations": iterations,
                "neighbour_sample": sample,
                "restarts": SEARCH_KW["restarts"],
                "kind": "seeded random_trust_network, density 0.6",
            },
            "median_naive_s": naive_s,
            "median_engine_s": engine_s,
            "speedup": speedup,
            "results_identical": engine.partition == naive.partition,
        },
        path=BENCH_PATH,
    )
    assert speedup >= 5.0, (
        f"engine gave only {speedup:.1f}x over the naive local search"
    )


def test_portfolio_workers(benchmark):
    """Worker sweep: wall-clock per worker count, plus the invariant
    that the portfolio returns the sequential result bit for bit."""
    n, iterations, sample = SIZES[-1] if FULL else QUICK_SIZES[-1]
    network = _instance(n)
    kw = _kw(iterations, sample)
    workers = (1, 2, 4) if not FULL else (1, 2, 4, 8)

    def sweep():
        timings = {}
        baseline = None
        for count in workers:
            timings[count] = _median_seconds(
                lambda: solve_engine(network, workers=count, **kw),
                rounds=2,
            )
            solution = solve_engine(network, workers=count, **kw)
            if baseline is None:
                baseline = solution
            assert solution.partition == baseline.partition
            assert solution.trust == baseline.trust
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        f"PR5 — portfolio workers (n={n}, {iterations} iterations)",
        [
            (count, f"{seconds * 1000:.1f}")
            for count, seconds in sorted(timings.items())
        ],
        headers=("workers", "median (ms)"),
    )
    record_bench_artifact(
        "coalition_engine_portfolio_workers",
        {
            "instance": {
                "agents": n,
                "max_iterations": iterations,
                "neighbour_sample": sample,
            },
            "median_seconds_by_workers": {
                str(count): seconds
                for count, seconds in sorted(timings.items())
            },
        },
        path=BENCH_PATH,
    )
