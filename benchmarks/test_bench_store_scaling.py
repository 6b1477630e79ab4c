"""Store scaling — the factored constraint store vs the monolith test
oracle on growing-scope traces.

The workload is the nmsccp shape that motivated the refactor: a
negotiation keeps telling policies that widen the store's scope (each
step couples one fresh variable to the chain) and asks ``σ ⇓∅`` after
every tell.  The paper-literal monolith (kept as a test oracle in
``tests/constraints/monolith_oracle.py``) re-combines and re-tabulates
the joint table on each tell — Θ(|D|^n) per step — while the factored
:class:`~repro.constraints.ConstraintStore` appends a factor in O(1) and
routes the consistency query through bucket elimination, polynomial on
chains.  Run from the repo root (``python -m pytest``), which puts the
``tests`` package on the import path.

Quick mode runs in CI; the acceptance gate requires the factored store
to be ≥5× faster than the monolith at the largest quick instance, with
bit-identical consistency trails (integer costs keep ⊗ exact).  Results
land in ``BENCH_PR4.json`` (uploaded by the CI bench job).
"""

import itertools
import os
import random
import statistics
import time

import pytest
from conftest import BENCH_OUT, record_bench_artifact, report

from repro.constraints import (
    TableConstraint,
    clear_store_caches,
    empty_store,
    variable,
)
from repro.semirings import WeightedSemiring
from tests.constraints.monolith_oracle import MonolithStore

BENCH_PATH = os.environ.get(
    "REPRO_BENCH_PR4_JSON", f"{BENCH_OUT}/BENCH_PR4.json"
)

#: Quick-mode sizes; 3¹⁰ = 59 049 keeps the monolith's largest table
#: under the store's materialization cap, so it pays full tabulation.
SIZES = (5, 8, 10)
DOMAIN = 3


def growing_scope_trace(n_vars: int, domain: int = DOMAIN, seed: int = 0):
    """The told constraints, in order: unary on v0, then for each fresh
    variable a coupling binary plus its unary policy."""
    rng = random.Random(seed)
    weighted = WeightedSemiring()
    variables = [variable(f"v{i}", range(domain)) for i in range(n_vars)]

    def unary(var):
        return TableConstraint(
            weighted, [var], {(d,): float(rng.randint(0, 9)) for d in var.domain}
        )

    def binary(left, right):
        return TableConstraint(
            weighted,
            [left, right],
            {
                key: float(rng.randint(0, 9))
                for key in itertools.product(left.domain, right.domain)
            },
        )

    constraints = [unary(variables[0])]
    for left, right in zip(variables, variables[1:]):
        constraints.append(binary(left, right))
        constraints.append(unary(right))
    return weighted, constraints


def run_trace(semiring, constraints, backend):
    """tell each constraint, querying ``σ ⇓∅`` after every step; the
    ``"monolith"`` backend is the oracle, ``"factored"`` the store."""
    store = (
        MonolithStore(semiring) if backend == "monolith" else empty_store(semiring)
    )
    levels = []
    for constraint in constraints:
        store = store.tell(constraint)
        levels.append(store.consistency())
    return levels


def _median_seconds(fn, rounds=3):
    samples = []
    for _ in range(rounds):
        clear_store_caches()  # honest cold-store timing each round
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


@pytest.mark.parametrize("n_vars", SIZES)
@pytest.mark.parametrize("backend", ("monolith", "factored"))
def test_store_trace_scaling(benchmark, backend, n_vars):
    semiring, constraints = growing_scope_trace(n_vars)

    def once():
        clear_store_caches()
        return run_trace(semiring, constraints, backend)

    levels = benchmark.pedantic(once, rounds=1, iterations=1)
    assert len(levels) == len(constraints)


def test_factored_vs_monolith_gate(benchmark):
    """Acceptance gate: ≥5× at the largest quick instance, identical
    consistency trails along the whole trace."""
    n_vars = SIZES[-1]
    semiring, constraints = growing_scope_trace(n_vars)

    def compare():
        mono_levels = run_trace(semiring, constraints, "monolith")
        fact_levels = run_trace(semiring, constraints, "factored")
        mono_s = _median_seconds(
            lambda: run_trace(semiring, constraints, "monolith")
        )
        fact_s = _median_seconds(
            lambda: run_trace(semiring, constraints, "factored")
        )
        return mono_levels, fact_levels, mono_s, fact_s

    mono_levels, fact_levels, mono_s, fact_s = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    assert fact_levels == mono_levels  # bitwise: integer-cost arithmetic
    speedup = mono_s / fact_s
    report(
        f"Store scaling — store vs monolith oracle, growing-scope trace (chain n={n_vars}, "
        f"|D|={DOMAIN}, {len(constraints)} tells, median of 3)",
        [
            (
                f"{mono_s * 1000:.2f}",
                f"{fact_s * 1000:.2f}",
                f"{speedup:.1f}x",
            )
        ],
        headers=("monolith (ms)", "factored (ms)", "speedup"),
    )
    record_bench_artifact(
        "store_scaling_factored_vs_monolith",
        {
            "instance": {
                "n_vars": n_vars,
                "domain": DOMAIN,
                "tells": len(constraints),
                "kind": "growing-scope chain trace",
            },
            "median_monolith_s": mono_s,
            "median_factored_s": fact_s,
            "speedup": speedup,
            "trails_identical": fact_levels == mono_levels,
        },
        path=BENCH_PATH,
    )
    assert speedup >= 5.0, (
        f"factored store gave only {speedup:.1f}x over the monolith"
    )
