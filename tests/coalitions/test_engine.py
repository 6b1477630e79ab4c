"""The incremental, parallel coalition engine (Sec. 6 at scale)."""

import pytest

from repro.coalitions import (
    IncrementalScorer,
    blocking_pairs,
    figure9_network,
    partition_trust,
    random_trust_network,
    singletons,
    solve_engine,
    solve_local_search,
)
from repro.coalitions.exact import enumerate_partitions
from repro.telemetry import telemetry_session


@pytest.fixture
def network():
    return figure9_network()


class TestIncrementalScorer:
    def test_matches_naive_score_on_every_fig9_partition(self, network):
        scorer = IncrementalScorer(network, op="avg", aggregate="min")
        for partition in enumerate_partitions(network.agents):
            blocking, trust = scorer(partition)
            assert -blocking == len(
                blocking_pairs(partition, network, "avg")
            )
            assert trust == pytest.approx(
                partition_trust(partition, network, "avg", "min"),
                abs=1e-12,
            )

    def test_delta_path_agrees_with_fresh_scorer(self, network):
        # Scoring a drifting chain of partitions exercises the anchor
        # delta; a fresh scorer per partition never deltas.  Both must
        # agree exactly.
        chain = list(enumerate_partitions(network.agents))[::37]
        warm = IncrementalScorer(network, op="avg", aggregate="avg")
        for partition in chain:
            cold = IncrementalScorer(network, op="avg", aggregate="avg")
            assert warm(partition) == cold(partition)

    def test_pair_memo_fills(self, network):
        scorer = IncrementalScorer(network, op="avg", aggregate="min")
        scorer(singletons(network))
        filled = len(scorer._pair_memo)
        assert filled > 0
        scorer(singletons(network))
        assert len(scorer._pair_memo) == filled


class TestSolveEngine:
    def test_seeded_reproducibility(self, network):
        a = solve_engine(network, op="avg", seed=7)
        b = solve_engine(network, op="avg", seed=7)
        assert a.partition == b.partition
        assert a.trust == b.trust
        assert a.method == "engine"

    def test_worker_count_does_not_change_result(self, network):
        kw = dict(op="avg", aggregate="avg", seed=13, restarts=4)
        sequential = solve_engine(network, workers=1, **kw)
        portfolio = solve_engine(network, workers=4, **kw)
        assert sequential.partition == portfolio.partition
        assert sequential.trust == portfolio.trust
        assert (
            sequential.partitions_examined
            == portfolio.partitions_examined
        )

    def test_matches_local_search_trajectory(self, network):
        kw = dict(
            op="avg",
            aggregate="min",
            seed=42,
            restarts=3,
            max_iterations=60,
            neighbour_sample=32,
        )
        naive = solve_local_search(network, **kw)
        engine = solve_engine(network, workers=2, **kw)
        assert engine.partition == naive.partition
        assert engine.trust == pytest.approx(naive.trust, abs=1e-12)
        assert engine.stable == naive.stable
        assert engine.partitions_examined == naive.partitions_examined

    def test_scorer_reuse_across_solves(self):
        network = random_trust_network(12, seed=3, density=0.7)
        scorer = IncrementalScorer(network, op="avg", aggregate="avg")
        first = solve_engine(
            network, op="avg", aggregate="avg", seed=5, scorer=scorer
        )
        pairs_after_first = len(scorer._pair_memo)
        second = solve_engine(
            network, op="avg", aggregate="avg", seed=5, scorer=scorer
        )
        assert second.partition == first.partition
        # The repeated solve is answered from the shared pair memo: it
        # visits no pair the first solve did not.
        assert len(scorer._pair_memo) == pairs_after_first

    def test_emits_telemetry(self, network):
        with telemetry_session() as session:
            solution = solve_engine(network, op="avg", seed=1, workers=2)
        candidates = session.registry.get("coalition_candidates_total")
        assert candidates is not None
        assert (
            candidates.labels("engine").value
            == solution.partitions_examined
        )
        spans = [
            s
            for s in session.tracer.finished
            if s.name == "coalitions.restart"
        ]
        assert len(spans) == 3  # default restarts

    def test_scales_past_exact_range(self):
        network = random_trust_network(16, seed=9, density=0.5)
        solution = solve_engine(
            network,
            op="avg",
            aggregate="avg",
            seed=9,
            restarts=2,
            max_iterations=30,
            workers=2,
        )
        assert solution.found
        assert sorted(a for g in solution.partition for a in g) == sorted(
            network.agents
        )
