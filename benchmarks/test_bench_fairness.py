"""E18 — fairness under contention: greedy vs fair allocation (ours).

The acceptance run of the fairness tentpole (ISSUE 9).  One runtime
server over the contention market (three providers at strictly
decreasing constant quality, so every client's individually-best choice
is the same provider), serving a closed-loop population twice: once
through the ``greedy`` allocation policy (the legacy per-session path
behind the policy seam) and once through ``fair`` (one joint
``Lex[Fuzzy, Probabilistic]`` SCSP per allocation round — ⟨min realized
satisfaction, total welfare⟩ with the ``γ^rank`` queue discount).

Reported per policy: Jain's fairness index and the worst-off client's
realized satisfaction (both over ``γ``-discounted agreed levels), plus
closed-loop throughput.  Full mode (``REPRO_BENCH_FULL=1``) gates:

* fair Jain **≥ 0.9** on the contention market;
* greedy Jain **≤ fair − 0.05** (the contention scenario actually
  discriminates);
* fair min-satisfaction strictly above greedy's;
* fair throughput **≥ 70%** of greedy's (the joint solve may cost at
  most 30%).

Quick mode (default, CI-sized) keeps the fairness-improvement checks —
they are load-shape invariants, not timings — and skips only the
throughput gate.  Results land in ``benchmarks/.out/BENCH_PR9.json``.
"""

import os
import statistics

from conftest import BENCH_OUT, record_bench_artifact, report

from repro.runtime import (
    BatchConfig,
    LoadGenerator,
    LoadProfile,
    RuntimeConfig,
    RuntimeServer,
    contention_request_factory,
    synthesize_contention_market,
)
from repro.soa import Broker, BrokerConfig

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

SCALE = {
    "quick": {"clients": 12, "providers": 3, "workers": 16, "repeats": 2},
    "full": {"clients": 24, "providers": 4, "workers": 32, "repeats": 5},
}[("full" if FULL else "quick")]

FAIR_JAIN_GATE = 0.9
JAIN_MARGIN_GATE = 0.05
THROUGHPUT_RATIO_GATE = 0.7

ARTIFACT = f"{BENCH_OUT}/BENCH_PR9.json"


def run_policy(policy, seed=9):
    market = synthesize_contention_market(providers=SCALE["providers"])
    broker = Broker(
        market,
        BrokerConfig(
            allocation_policy=policy,
            rounds=BatchConfig(window_ms=60.0, max_batch=16),
        ),
    )
    server = RuntimeServer(
        broker,
        RuntimeConfig(
            workers=SCALE["workers"], seed=seed, deadline_s=None
        ),
    )
    generator = LoadGenerator(
        server,
        LoadProfile(clients=SCALE["clients"], mode="closed", seed=seed),
        contention_request_factory(),
    )
    return generator.run_sync()


def test_fairness_under_contention(benchmark):
    runs = {"greedy": [], "fair": []}

    def all_repeats():
        for repeat in range(SCALE["repeats"]):
            for policy in ("greedy", "fair"):
                runs[policy].append(run_policy(policy, seed=9 + repeat))

    benchmark.pedantic(all_repeats, rounds=1, iterations=1)

    digests = {}
    for policy, reports in runs.items():
        for single in reports:
            assert single.completed == SCALE["clients"], (
                f"{policy}: {single.outcomes}"
            )
            assert single.fairness is not None
        digests[policy] = {
            "jain_index": statistics.median(
                r.fairness["jain_index"] for r in reports
            ),
            "min_satisfaction": statistics.median(
                r.fairness["min_satisfaction"] for r in reports
            ),
            "mean_satisfaction": statistics.median(
                r.fairness["mean_satisfaction"] for r in reports
            ),
            "throughput_rps": statistics.median(
                r.throughput_rps for r in reports
            ),
        }

    greedy, fair = digests["greedy"], digests["fair"]
    ratio = fair["throughput_rps"] / greedy["throughput_rps"]
    report(
        f"E18 fairness under contention — "
        f"{'full' if FULL else 'quick'} ({SCALE['clients']} clients, "
        f"{SCALE['providers']} providers, round window 60ms)",
        [
            (
                policy,
                f"{digest['jain_index']:.4f}",
                f"{digest['min_satisfaction']:.3f}",
                f"{digest['mean_satisfaction']:.3f}",
                f"{digest['throughput_rps']:.1f}",
            )
            for policy, digest in digests.items()
        ]
        + [("fair/greedy throughput", f"{ratio:.2f}x", "-", "-", "-")],
        ["policy", "jain", "min sat", "mean sat", "sessions/s"],
    )
    record_bench_artifact(
        "fairness_contention",
        {
            "mode": "full" if FULL else "quick",
            "clients": SCALE["clients"],
            "providers": SCALE["providers"],
            "repeats": SCALE["repeats"],
            "greedy": greedy,
            "fair": fair,
            "throughput_ratio": ratio,
            "gates": {
                "fair_jain": FAIR_JAIN_GATE,
                "jain_margin": JAIN_MARGIN_GATE,
                "throughput_ratio": (
                    THROUGHPUT_RATIO_GATE if FULL else None
                ),
            },
        },
        path=ARTIFACT,
    )

    # Load-shape invariants (checked in both modes): fairness must be
    # bought, and bought from greedy.
    assert fair["jain_index"] >= FAIR_JAIN_GATE, (
        f"fair Jain {fair['jain_index']:.4f} below the "
        f"{FAIR_JAIN_GATE} gate"
    )
    assert (
        greedy["jain_index"] <= fair["jain_index"] - JAIN_MARGIN_GATE
    ), (
        f"greedy Jain {greedy['jain_index']:.4f} within "
        f"{JAIN_MARGIN_GATE} of fair {fair['jain_index']:.4f} — the "
        "contention scenario no longer discriminates"
    )
    assert fair["min_satisfaction"] > greedy["min_satisfaction"], (
        "fair did not lift the worst-off client: "
        f"{fair['min_satisfaction']:.3f} vs "
        f"{greedy['min_satisfaction']:.3f}"
    )
    if FULL:
        assert ratio >= THROUGHPUT_RATIO_GATE, (
            f"fair throughput {ratio:.2f}x of greedy, below the "
            f"{THROUGHPUT_RATIO_GATE}x gate"
        )
