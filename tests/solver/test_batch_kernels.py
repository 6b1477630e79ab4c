"""Batched dense kernels vs per-instance paths: bit-identical results.

Hypothesis generates a shared constraint topology plus B independent
value tables per constraint; combine/project/hide through
:class:`BatchDenseFactor` must match both the per-instance dense path
and the dict path *exactly* for every batch member, across all four
lowered semirings and including the B=1 degenerate batch.  Stacking B
references to one factor object must store a broadcast view, and
``stack_factors``/``split_results`` must round-trip.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import TableConstraint, variable
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    ProbabilisticSemiring,
    WeightedSemiring,
)
from repro.solver import DenseFactor, KernelError, lower_semiring

from .elimination_oracle import (
    BatchDenseFactor,
    dense_aligned,
    dense_combine,
    dense_hide,
    dense_project,
    split_results,
    stack_factors,
)

LOWERABLE = (
    WeightedSemiring(),
    FuzzySemiring(),
    ProbabilisticSemiring(),
    BooleanSemiring(),
)

_X = variable("x", (0, 1))
_Y = variable("y", (0, 1, 2))
_Z = variable("z", (0, 1))

#: Scope pairs exercising disjoint, overlapping and identical supports,
#: including shuffled variable orders (alignment must be order-free).
SCOPE_PAIRS = (
    ((_X, _Y), (_Y, _Z)),
    ((_X,), (_Y, _Z)),
    ((_X, _Y), (_Y, _X)),
    ((_X, _Y, _Z), (_Z, _X)),
)


def _levels(semiring):
    if isinstance(semiring, WeightedSemiring):
        return st.sampled_from((0.0, 1.0, 2.0, 5.0, 9.0))
    if isinstance(semiring, BooleanSemiring):
        return st.booleans()
    return st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))


@st.composite
def batched_tables(draw):
    """(semiring, scope pair, B table-pairs sharing those scopes)."""
    semiring = draw(st.sampled_from(LOWERABLE))
    scopes = draw(st.sampled_from(SCOPE_PAIRS))
    levels = _levels(semiring)
    batch = draw(st.integers(1, 4))
    instances = []
    for _ in range(batch):
        pair = []
        for scope in scopes:
            keys = list(itertools.product(*(v.domain for v in scope)))
            values = draw(
                st.lists(levels, min_size=len(keys), max_size=len(keys))
            )
            pair.append(
                TableConstraint(semiring, scope, dict(zip(keys, values)))
            )
        instances.append(tuple(pair))
    return semiring, scopes, instances


def _assignments(support, scopes):
    domains = {
        v.name: v.domain for scope in scopes for v in scope
    }
    names = sorted(support)
    for combo in itertools.product(*(domains[n] for n in names)):
        yield dict(zip(names, combo))


@settings(max_examples=60, deadline=None)
@given(batched_tables())
def test_batched_combine_matches_dict_and_dense(case):
    semiring, scopes, instances = case
    lowering = lower_semiring(semiring)
    lefts = stack_factors(
        [DenseFactor.from_constraint(a, lowering) for a, _ in instances]
    )
    rights = stack_factors(
        [DenseFactor.from_constraint(b, lowering) for _, b in instances]
    )
    batched = lefts.combine(rights)
    assert batched.batch == len(instances)
    for index, (a, b) in enumerate(instances):
        dense = dense_combine(
            DenseFactor.from_constraint(a, lowering),
            DenseFactor.from_constraint(b, lowering),
        )
        reference = a.combine(b)
        member = batched.member(index)
        assert member.support == dense.support
        assert np.array_equal(dense_aligned(member, dense.scope), dense.array)
        for assignment in _assignments(set(member.support), scopes):
            # == not approx: batched ops are the scalar IEEE-754 ops.
            assert member.value(assignment) == reference.value(assignment)


@settings(max_examples=60, deadline=None)
@given(batched_tables())
def test_batched_project_and_hide_match_per_instance(case):
    semiring, scopes, instances = case
    lowering = lower_semiring(semiring)
    batched = stack_factors(
        [DenseFactor.from_constraint(a, lowering) for a, _ in instances]
    )
    support = list(batched.support)
    keep = support[: max(1, len(support) - 1)]
    hidden = support[-1]
    projected = batched.project(keep)
    hidden_batch = batched.hide(hidden)
    for index, (a, _) in enumerate(instances):
        dense = DenseFactor.from_constraint(a, lowering)
        kept = dense_project(dense, keep)
        assert np.array_equal(
            dense_aligned(projected.member(index), kept.scope), kept.array
        )
        rest = dense_hide(dense, hidden)
        assert np.array_equal(
            dense_aligned(hidden_batch.member(index), rest.scope), rest.array
        )
        reference = a.project(keep)
        member = projected.member(index)
        for assignment in _assignments(set(keep), scopes):
            assert member.value(assignment) == reference.value(assignment)


@settings(max_examples=60, deadline=None)
@given(batched_tables())
def test_batched_consistency_matches_per_instance(case):
    semiring, scopes, instances = case
    lowering = lower_semiring(semiring)
    lefts = stack_factors(
        [DenseFactor.from_constraint(a, lowering) for a, _ in instances]
    )
    rights = stack_factors(
        [DenseFactor.from_constraint(b, lowering) for _, b in instances]
    )
    levels = lefts.combine(rights).consistency()
    assert len(levels) == len(instances)
    for level, (a, b) in zip(levels, instances):
        dense = dense_combine(
            DenseFactor.from_constraint(a, lowering),
            DenseFactor.from_constraint(b, lowering),
        )
        assert level == dense.consistency()


@settings(max_examples=40, deadline=None)
@given(batched_tables())
def test_stack_split_roundtrip(case):
    semiring, _, instances = case
    lowering = lower_semiring(semiring)
    factors = [
        DenseFactor.from_constraint(a, lowering) for a, _ in instances
    ]
    back = split_results(stack_factors(factors))
    assert len(back) == len(factors)
    for original, member in zip(factors, back):
        assert member.support == original.support
        assert np.array_equal(
            dense_aligned(member, original.scope), original.array
        )


class TestStackingUnits:
    def test_shared_object_stacks_as_broadcast_view(self, weighted):
        c = TableConstraint(weighted, [_X], {(0,): 1.0, (1,): 2.0})
        lowering = lower_semiring(weighted)
        factor = DenseFactor.from_constraint(c, lowering)
        batched = stack_factors([factor] * 5)
        # One slice backs all five members — no copies for shared offers.
        assert batched.array.shape[0] == 1
        assert batched.batch == 5
        assert batched.array.base is factor.array
        for index in range(5):
            assert np.array_equal(batched.member(index).array, factor.array)

    def test_singleton_batch_is_degenerate(self, weighted):
        c = TableConstraint(weighted, [_X], {(0,): 3.0, (1,): 1.0})
        lowering = lower_semiring(weighted)
        factor = DenseFactor.from_constraint(c, lowering)
        batched = stack_factors([factor])
        assert batched.batch == 1
        assert batched.consistency() == [factor.consistency()]

    def test_mixed_scopes_refused(self, weighted):
        lowering = lower_semiring(weighted)
        a = DenseFactor.from_constraint(
            TableConstraint(weighted, [_X], {(0,): 1.0}), lowering
        )
        b = DenseFactor.from_constraint(
            TableConstraint(weighted, [_Y], {(0,): 1.0}), lowering
        )
        with pytest.raises(KernelError, match="different scopes"):
            stack_factors([a, b])

    def test_mixed_lowerings_refused(self, weighted, fuzzy):
        a = DenseFactor.from_constraint(
            TableConstraint(weighted, [_X], {(0,): 1.0}),
            lower_semiring(weighted),
        )
        b = DenseFactor.from_constraint(
            TableConstraint(fuzzy, [_X], {(0,): 1.0}),
            lower_semiring(fuzzy),
        )
        with pytest.raises(KernelError, match="different semirings"):
            stack_factors([a, b])

    def test_empty_stack_refused(self):
        with pytest.raises(KernelError, match="at least one factor"):
            stack_factors([])

    def test_member_out_of_range(self, weighted):
        lowering = lower_semiring(weighted)
        factor = DenseFactor.from_constraint(
            TableConstraint(weighted, [_X], {(0,): 1.0}), lowering
        )
        batched = stack_factors([factor] * 2)
        with pytest.raises(KernelError, match="out of range"):
            batched.member(2)

    def test_mismatched_batch_sizes_refuse_combine(self, weighted):
        lowering = lower_semiring(weighted)
        f = DenseFactor.from_constraint(
            TableConstraint(weighted, [_X], {(0,): 1.0, (1,): 2.0}),
            lowering,
        )
        g = DenseFactor.from_constraint(
            TableConstraint(weighted, [_X], {(0,): 4.0, (1,): 5.0}),
            lowering,
        )
        two = stack_factors([f, g])
        three = stack_factors([f, g, f])
        with pytest.raises(KernelError, match="cannot combine batches"):
            two.combine(three)

    def test_batch_axis_validation(self, weighted):
        lowering = lower_semiring(weighted)
        array = np.zeros((2, 2))
        with pytest.raises(KernelError, match="batch axis"):
            BatchDenseFactor(lowering, (_X,), array, batch=3)
