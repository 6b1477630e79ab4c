"""E17 — incremental re-solve (ours).

A store-sized chain problem is re-solved after single-factor deltas,
cold (empty :class:`~repro.solver.elimination.BucketCache`) vs warm (the
memo holds the previous version's buckets, so only buckets downstream of
the changed factor recompute).  Full mode gates warm re-solve at
**≥ 3×** cold; both must match a from-scratch elimination bitwise.

Quick mode (default, CI-sized) shrinks the chain and skips the gate;
set ``REPRO_BENCH_FULL=1`` for the gated sizes.  Results land in
``benchmarks/BENCH_PR8.json``.
"""

import os
import statistics
import time

from conftest import record_bench_artifact, report

from repro.constraints import TableConstraint, variable
from repro.semirings import WeightedSemiring
from repro.solver import SCSP, BucketCache, solve_elimination

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

SCALE = {
    "quick": {"resources": 6, "domain": 6, "deltas": 3},
    "full": {"resources": 12, "domain": 10, "deltas": 5},
}[("full" if FULL else "quick")]

RESOLVE_GATE = 3.0

ARTIFACT = "benchmarks/BENCH_PR8.json"

WEIGHTED = WeightedSemiring()


def _assert_identical(left, right):
    assert left.blevel == right.blevel
    assert left.frontier == right.frontier
    assert left.optima == right.optima


def build_chain(resources, domain, tweak):
    """One store version: a factor chain whose tail carries the delta."""
    resource_vars = [
        variable(f"v{i}", range(domain)) for i in range(resources)
    ]
    constraints = []
    for i in range(resources - 1):
        if i == resources - 2:
            table = {
                (a, b): float((a + b + tweak) % 11)
                for a in range(domain)
                for b in range(domain)
            }
        else:
            table = {
                (a, b): float((a * 2 + b + i) % 11)
                for a in range(domain)
                for b in range(domain)
            }
        constraints.append(
            TableConstraint(
                WEIGHTED, [resource_vars[i], resource_vars[i + 1]], table
            )
        )
    return SCSP(constraints, con=[resource_vars[-1].name])


def test_incremental_resolve(benchmark):
    resources, domain = SCALE["resources"], SCALE["domain"]
    base = build_chain(resources, domain, 0)
    deltas = [
        build_chain(resources, domain, tweak)
        for tweak in range(1, SCALE["deltas"] + 1)
    ]
    # Warm the table/digest memos shared by both configurations.
    for problem in deltas + [base]:
        solve_elimination(problem)

    timings = {"cold": [], "warm": []}
    reuse = {}

    def both_configs():
        for problem in deltas:
            warm_cache = BucketCache()
            # The store's previous version materialized these buckets.
            solve_elimination(base, bucket_cache=warm_cache)
            started = time.perf_counter()
            cold = solve_elimination(
                problem, bucket_cache=BucketCache()
            )
            mid = time.perf_counter()
            warm = solve_elimination(problem, bucket_cache=warm_cache)
            timings["cold"].append(mid - started)
            timings["warm"].append(time.perf_counter() - mid)
            _assert_identical(cold, warm)
            _assert_identical(solve_elimination(problem), warm)
            reuse["reused"] = warm.stats.buckets_reused
            reuse["processed"] = warm.stats.buckets_processed

    benchmark.pedantic(both_configs, rounds=1, iterations=1)

    # The delta must actually have reused most buckets, but not all of
    # them (the changed factor's bucket recomputes).
    assert 0 < reuse["reused"] < reuse["processed"]

    cold_s = statistics.median(timings["cold"])
    warm_s = statistics.median(timings["warm"])
    speedup = cold_s / warm_s
    report(
        f"E17 incremental re-solve — {'full' if FULL else 'quick'} "
        f"({resources}-var chain, domain {domain}, single-factor delta)",
        [
            ("cold", f"{cold_s * 1e3:.2f}", "-"),
            ("warm", f"{warm_s * 1e3:.2f}",
             f"{reuse['reused']}/{reuse['processed']}"),
            ("speedup", f"{speedup:.2f}x", "-"),
        ],
        ["config", "median ms", "buckets reused"],
    )
    record_bench_artifact(
        "incremental_resolve",
        {
            "mode": "full" if FULL else "quick",
            "resources": resources,
            "domain": domain,
            "deltas": SCALE["deltas"],
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": speedup,
            "buckets_reused": reuse["reused"],
            "buckets_processed": reuse["processed"],
            "gate": RESOLVE_GATE if FULL else None,
        },
        path=ARTIFACT,
    )
    if FULL:
        assert speedup >= RESOLVE_GATE, (
            f"warm re-solve speedup {speedup:.2f}x below the "
            f"{RESOLVE_GATE}x gate"
        )
