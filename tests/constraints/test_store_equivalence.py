"""Randomized store-vs-monolith-oracle equivalence.

The factored :class:`~repro.constraints.ConstraintStore` is a
*representation* of the paper's single-constraint store σ, not a
semantics change: on identical tell/retract/update traces it and the
paper-literal oracle (:mod:`tests.constraints.monolith_oracle`) must answer
``consistency()`` and ``entails()`` **bit-identically** (``==`` on the
raw values, not ``semiring.equiv``).

Bitwise equality across different combine/project association is only
meaningful when every arithmetic step is exact, so each semiring gets a
value sampler chosen to keep float operations lossless:

* Weighted — integer-valued floats (+/− exact far below 2⁵³);
* Fuzzy — any floats (min/max return an operand bit-for-bit);
* Probabilistic — dyadics ``k/8`` (≤ 3 mantissa bits each; a 14-op
  trace multiplies at most 14 of them — ≤ 42 bits, inside the 53-bit
  mantissa, so every product and exact-quotient is lossless);
* Boolean — exact by construction;
* SetBased — frozensets, the required **non-lowerable** semiring (no
  dense kernel; the solver must take the dict path).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.constraints import (
    StoreError,
    TableConstraint,
    empty_store,
    variable,
)
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    ProbabilisticSemiring,
    SetSemiring,
    WeightedSemiring,
)

from .monolith_oracle import MonolithStore

# ----------------------------------------------------------------------
# Per-semiring exact value samplers
# ----------------------------------------------------------------------

_SET_UNIVERSE = ("read", "write", "exec")


def _weighted_value(rng: random.Random):
    if rng.random() < 0.08:
        return WeightedSemiring().zero  # INFINITY
    return float(rng.randint(0, 12))


def _fuzzy_value(rng: random.Random):
    return rng.random()


def _probabilistic_value(rng: random.Random):
    return rng.randint(0, 8) / 8.0


def _boolean_value(rng: random.Random):
    return rng.random() < 0.8


def _set_value(rng: random.Random):
    return frozenset(
        item for item in _SET_UNIVERSE if rng.random() < 0.6
    )


#: (semiring factory, sampler, max live factors keeping arithmetic exact)
CASES = [
    pytest.param(WeightedSemiring, _weighted_value, 12, id="Weighted"),
    pytest.param(FuzzySemiring, _fuzzy_value, 12, id="Fuzzy"),
    pytest.param(
        ProbabilisticSemiring, _probabilistic_value, 12, id="Probabilistic"
    ),
    pytest.param(BooleanSemiring, _boolean_value, 12, id="Boolean"),
    pytest.param(
        lambda: SetSemiring(_SET_UNIVERSE), _set_value, 12, id="SetBased"
    ),
]

SEEDS = [7, 23, 101, 443, 977]


# ----------------------------------------------------------------------
# Trace machinery
# ----------------------------------------------------------------------


def _variables():
    return [
        variable("x", ["a", "b"]),
        variable("y", ["a", "b", "c"]),
        variable("z", [0, 1]),
    ]


def _random_constraint(rng, semiring, variables, sampler):
    scope = rng.sample(variables, k=rng.randint(1, 2))
    table = {
        assignment: sampler(rng)
        for assignment in itertools.product(*(v.domain for v in scope))
    }
    return TableConstraint(semiring, scope, table)


def _assert_agreement(mono, fact, probes):
    assert mono.consistency() == fact.consistency()
    for probe in probes:
        assert mono.entails(probe) == fact.entails(probe)


@pytest.mark.parametrize("make_semiring,sampler,max_factors", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_traces_agree_bitwise(make_semiring, sampler, max_factors, seed):
    """Same trace, store and oracle, every step: identical answers."""
    rng = random.Random(seed)
    semiring = make_semiring()
    variables = _variables()

    mono = MonolithStore(semiring)
    fact = empty_store(semiring)
    told = []

    for _ in range(14):
        op = rng.random()
        if op < 0.55 and len(told) < max_factors:
            constraint = _random_constraint(rng, semiring, variables, sampler)
            mono = mono.tell(constraint)
            fact = fact.tell(constraint)
            told.append(constraint)
        elif op < 0.75 and told:
            constraint = rng.choice(told)
            try:
                next_mono = mono.retract(constraint)
            except StoreError:
                # Store and oracle must agree the R7 premise fails.
                with pytest.raises(StoreError, match="R7"):
                    fact.retract(constraint)
            else:
                mono = next_mono
                fact = fact.retract(constraint)
                told.remove(constraint)
        elif op < 0.9:
            names = [v.name for v in rng.sample(variables, k=rng.randint(1, 2))]
            constraint = _random_constraint(rng, semiring, variables, sampler)
            mono = mono.update(names, constraint)
            fact = fact.update(names, constraint)
            told = [constraint]

        probes = [
            _random_constraint(rng, semiring, variables, sampler)
            for _ in range(2)
        ]
        if told:
            probes.append(rng.choice(told))
        _assert_agreement(mono, fact, probes)

    # Full-assignment valuations agree bit-for-bit too.
    for _ in range(5):
        assignment = {v.name: rng.choice(v.domain) for v in variables}
        assert mono.value(assignment) == fact.value(assignment)


@pytest.mark.parametrize("make_semiring,sampler,max_factors", CASES)
def test_told_factors_are_entailed_by_both(make_semiring, sampler, max_factors):
    rng = random.Random(5)
    semiring = make_semiring()
    variables = _variables()
    mono = MonolithStore(semiring)
    fact = empty_store(semiring)
    told = [
        _random_constraint(rng, semiring, variables, sampler)
        for _ in range(min(4, max_factors))
    ]
    for constraint in told:
        mono = mono.tell(constraint)
        fact = fact.tell(constraint)
    for constraint in told:
        # σ = c ⊗ rest ⊑ c (× is decreasing) — both must say so.
        assert mono.entails(constraint)
        assert fact.entails(constraint)


def test_retract_traces_agree_on_weighted_exact_path():
    """The weighted exact-removal fast path stays bit-identical to the
    monolith's residuated division (Example 2 shape, many factors)."""
    rng = random.Random(99)
    semiring = WeightedSemiring()
    variables = _variables()
    mono = MonolithStore(semiring)
    fact = empty_store(semiring)
    told = []
    for _ in range(6):
        # Finite integer costs only: with an ∞ anywhere the residuation
        # ∞ ÷ ∞ = 0 erases the other factors' contribution at that
        # point, and the R7 premise can then fail mid-trace.
        constraint = _random_constraint(
            rng, semiring, variables, lambda r: float(r.randint(0, 12))
        )
        mono = mono.tell(constraint)
        fact = fact.tell(constraint)
        told.append(constraint)
    rng.shuffle(told)
    for constraint in told:
        mono = mono.retract(constraint)
        fact = fact.retract(constraint)
        _assert_agreement(mono, fact, told[:2])
    assert mono.consistency() == fact.consistency() == semiring.one
