"""The fair policy's reference formulation, kept as a test oracle.

:class:`~repro.soa.allocation.FairAllocation` maximizes each cohort's
⟨min realized satisfaction, welfare⟩ objective by a vectorized lex
argmax over stacked ndarray planes.  :class:`ScspFairAllocation` states
the same cohort choice as the paper would: a selection variable per
client under one :class:`FunctionConstraint` valued in
``Lex[Fuzzy, Probabilistic]``, handed to :func:`repro.solver.solve`.
The policy tests pin the two to the same allocations.
"""

from __future__ import annotations

from typing import Dict, List

from repro.constraints import FunctionConstraint, Variable
from repro.semirings import (
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
)
from repro.soa import CONGESTION_GAMMA, FairAllocation, satisfaction_score
from repro.soa.broker import CandidateEvaluation
from repro.solver import SCSP, solve


class ScspFairAllocation(FairAllocation):
    """``FairAllocation`` whose cohorts are solved as one joint SCSP."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.objective_semiring = LexicographicSemiring(
            [FuzzySemiring(), ProbabilisticSemiring()]
        )

    def _solve_cohort(self, cohort, loads: Dict[str, int]) -> List[CandidateEvaluation]:
        variables: List[Variable] = []
        scores: List[Dict[str, float]] = []
        by_id: List[Dict[str, CandidateEvaluation]] = []
        providers: Dict[str, str] = {}
        for position, member in enumerate(cohort):
            ids = tuple(e.description.service_id for e in member.accepted)
            variables.append(Variable(f"alloc{position}", ids))
            scores.append(
                {
                    e.description.service_id: satisfaction_score(
                        member.semiring, e.blevel
                    )
                    for e in member.accepted
                }
            )
            by_id.append({e.description.service_id: e for e in member.accepted})
            for e in member.accepted:
                providers[e.description.service_id] = e.description.provider

        base_loads = dict(loads)

        def objective(*chosen: str) -> tuple:
            counts = dict(base_loads)
            worst = 1.0
            welfare = 1.0
            for position, service_id in enumerate(chosen):
                provider = providers[service_id]
                rank = counts.get(provider, 0)
                counts[provider] = rank + 1
                realized = (
                    scores[position][service_id] * CONGESTION_GAMMA**rank
                )
                if realized < worst:
                    worst = realized
                welfare *= realized
            return (worst, welfare)

        constraint = FunctionConstraint(
            self.objective_semiring, variables, objective, name="fair-cohort"
        )
        result = solve(SCSP([constraint], name="fair-cohort"))
        assignment = result.best_assignment
        assert assignment is not None
        return [
            by_id[position][assignment[f"alloc{position}"]]
            for position in range(len(cohort))
        ]
