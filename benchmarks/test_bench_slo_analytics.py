"""E19 — SLO analytics: detector exactness and analytics throughput.

The acceptance run of the SLO tentpole (ISSUE 10).  Two measurements:

* **Exactness** — the unachievable-SLO detector
  (:func:`repro.slo.check_slo`, fed each service's best level) against
  exhaustive enumeration of every per-service level assignment, over a
  seeded population of random plan trees with ≤ 6 services, both choose
  modes, and targets straddling each plan's reachable optimum.  Because
  every aggregation operator is monotone per argument, the detector is
  provably exact — the gate holds it to **precision = recall = 1.0**
  (no false rejections, no false approvals), in quick mode too: the
  property is scale-invariant, only the sample count grows with
  ``REPRO_BENCH_FULL=1``.

* **Throughput** — full :func:`repro.slo.analyze` reports (bounds +
  detector + budget + buffers) per second on wide pipeline plans, the
  serving-path cost of the broker precheck.  Full mode gates ≥ 200
  reports/s; quick mode records the number without gating a timing.

Results land in ``benchmarks/.out/BENCH_PR10.json`` (uploaded by the CI
bench job).
"""

import itertools
import os
import random
import time

from conftest import BENCH_OUT, record_bench_artifact, report

from repro.dependability.metrics import ObservationWindow
from repro.semirings import ProbabilisticSemiring
from repro.slo import analyze, check_slo, composite_bound
from repro.soa import Choose, Invoke, Pipeline, Split

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

SCALE = {
    "quick": {"cases": 150, "targets": 3, "width": 60, "reports": 40},
    "full": {"cases": 1500, "targets": 5, "width": 200, "reports": 300},
}[("full" if FULL else "quick")]

THROUGHPUT_GATE_RPS = 200.0

ARTIFACT = f"{BENCH_OUT}/BENCH_PR10.json"

PROB = ProbabilisticSemiring()


def random_plan(rng, max_services=6):
    """A random plan tree over at most ``max_services`` fresh leaves."""
    budget = rng.randint(1, max_services)
    counter = itertools.count()

    def build(depth, slots):
        if slots == 1 or depth >= 3 or rng.random() < 0.3:
            return Invoke(f"s{next(counter)}"), 1
        node_type = rng.choice((Pipeline, Split, Choose))
        children, used = [], 0
        width = rng.randint(2, min(3, slots))
        for i in range(width):
            child, spent = build(
                depth + 1, max(1, (slots - used) // (width - i))
            )
            children.append(child)
            used += spent
        return node_type(children), used

    plan, _ = build(0, budget)
    return plan


def exhaustive_achievable(plan, level_sets, target, choose):
    names = sorted(level_sets)
    for combo in itertools.product(*(level_sets[n] for n in names)):
        bound = composite_bound(
            plan, dict(zip(names, combo)), "availability", choose=choose
        )
        if PROB.geq(bound, target):
            return True
    return False


def detector_cases(rng):
    """Seeded (plan, level_sets, targets, choose) exactness probes."""
    for _ in range(SCALE["cases"]):
        plan = random_plan(rng)
        level_sets = {
            name: sorted(
                round(rng.uniform(0.6, 0.999), 4)
                for _ in range(rng.randint(1, 3))
            )
            for name in plan.services()
        }
        choose = rng.choice(("worst-case", "redundant"))
        best = {n: max(vs) for n, vs in level_sets.items()}
        optimum = composite_bound(
            plan, best, "availability", choose=choose
        )
        # Targets straddling the reachable optimum, where a detector
        # with any slack would misclassify.
        targets = [
            min(1.0, optimum * factor)
            for factor in (0.98, 1.0, 1.0001, 1.02)[: SCALE["targets"]]
        ] + [round(rng.uniform(0.5, 1.0), 4)]
        yield plan, level_sets, targets, choose, best


def test_detector_exactness(benchmark):
    rng = random.Random(19)
    tallies = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    remediated = checked = 0

    def run_all():
        for plan, sets, targets, choose, best in detector_cases(rng):
            for target in targets:
                nonlocal checked, remediated
                checked += 1
                verdict = check_slo(
                    plan, best, target, choose=choose
                )
                truth = exhaustive_achievable(
                    plan, sets, target, choose
                )
                if verdict.achievable and truth:
                    tallies["tp"] += 1
                elif not verdict.achievable and not truth:
                    tallies["tn"] += 1
                    assert verdict.remediations, (
                        f"unactionable rejection: {plan.describe()} "
                        f"target {target}"
                    )
                    remediated += 1
                elif verdict.achievable:
                    tallies["fp"] += 1
                else:
                    tallies["fn"] += 1

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # "achievable" as the positive class: precision guards against
    # approving doomed compositions, recall against rejecting viable
    # ones.
    precision = tallies["tp"] / max(1, tallies["tp"] + tallies["fp"])
    recall = tallies["tp"] / max(1, tallies["tp"] + tallies["fn"])
    report(
        f"E19 detector exactness — {'full' if FULL else 'quick'} "
        f"({SCALE['cases']} plans, {checked} verdicts)",
        [
            ("achievable (TP)", tallies["tp"]),
            ("unachievable (TN)", tallies["tn"]),
            ("false approvals (FP)", tallies["fp"]),
            ("false rejections (FN)", tallies["fn"]),
            ("precision", f"{precision:.4f}"),
            ("recall", f"{recall:.4f}"),
            ("rejections with remediation", f"{remediated}/{tallies['tn']}"),
        ],
        ["outcome", "count"],
    )
    record_bench_artifact(
        "slo_detector_exactness",
        {
            "mode": "full" if FULL else "quick",
            "plans": SCALE["cases"],
            "verdicts": checked,
            "tallies": tallies,
            "precision": precision,
            "recall": recall,
            "gates": {"precision": 1.0, "recall": 1.0},
        },
        path=ARTIFACT,
    )
    # Exactness is a correctness property, not a timing: gate it in
    # quick mode too.
    assert tallies["fp"] == 0, "detector approved an unachievable SLO"
    assert tallies["fn"] == 0, "detector rejected an achievable SLO"
    assert remediated == tallies["tn"]


def test_analytics_throughput(benchmark):
    rng = random.Random(23)
    width = SCALE["width"]
    plan = Pipeline(
        [
            Invoke(f"s{i}")
            if i % 3
            else Choose([Invoke(f"s{i}"), Invoke(f"s{i}r")])
            for i in range(width)
        ]
    )
    published = {
        name: round(rng.uniform(0.95, 0.9999), 6)
        for name in plan.services()
    }
    observations = {
        name: ObservationWindow(
            attempts=rng.randint(50, 500), failures=rng.randint(0, 5)
        )
        for name in list(published)[:: 2]
    }

    elapsed = {}

    def run_reports():
        start = time.perf_counter()
        for _ in range(SCALE["reports"]):
            analyze(
                plan,
                published,
                0.95,
                observations=observations,
                choose="redundant",
            )
        elapsed["s"] = time.perf_counter() - start

    benchmark.pedantic(run_reports, rounds=1, iterations=1)

    rps = SCALE["reports"] / elapsed["s"]
    per_report_ms = 1000.0 * elapsed["s"] / SCALE["reports"]
    report(
        f"E19 analytics throughput — {'full' if FULL else 'quick'} "
        f"({len(published)} services per plan)",
        [
            ("reports", SCALE["reports"]),
            ("services/plan", len(published)),
            ("reports/s", f"{rps:.1f}"),
            ("ms/report", f"{per_report_ms:.2f}"),
        ],
        ["metric", "value"],
    )
    record_bench_artifact(
        "slo_analytics_throughput",
        {
            "mode": "full" if FULL else "quick",
            "plan_width": width,
            "services": len(published),
            "reports": SCALE["reports"],
            "reports_per_s": rps,
            "ms_per_report": per_report_ms,
            "gates": {
                "reports_per_s": THROUGHPUT_GATE_RPS if FULL else None
            },
        },
        path=ARTIFACT,
    )
    if FULL:
        assert rps >= THROUGHPUT_GATE_RPS, (
            f"analytics throughput regressed: {rps:.1f} reports/s"
        )
