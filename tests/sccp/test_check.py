"""The check function C1–C4 (paper Fig. 3)."""

import pytest

from repro.constraints import (
    ConstantConstraint,
    FunctionConstraint,
    empty_store,
    integer_variable,
)
from repro.sccp import CheckError, CheckSpec, interval, unchecked


@pytest.fixture
def weighted_store(weighted):
    """A store with consistency 5 (the paper's Example 1 store)."""
    x = integer_variable("x", 10)
    sigma = FunctionConstraint(weighted, (x,), lambda v: 3.0 * v + 5)
    return empty_store(weighted).tell(sigma)


class TestC1LevelInterval:
    def test_classification(self, weighted):
        spec = interval(weighted, lower=10.0, upper=2.0)
        assert spec.case == "C1"

    def test_paper_example1_interval(self, weighted, weighted_store):
        # σ⇓∅ = 5 is inside [2, 10] hours but outside [1, 4].
        assert interval(weighted, lower=10.0, upper=2.0).holds(weighted_store)
        assert not interval(weighted, lower=4.0, upper=1.0).holds(
            weighted_store
        )

    def test_boundary_values_included(self, weighted, weighted_store):
        assert interval(weighted, lower=5.0, upper=5.0).holds(weighted_store)

    def test_upper_violation(self, weighted, weighted_store):
        # store too good: best allowed is 7 hours, store has 5
        assert not interval(weighted, lower=20.0, upper=7.0).holds(
            weighted_store
        )

    def test_open_sides(self, weighted, weighted_store):
        assert interval(weighted, lower=None, upper=2.0).holds(weighted_store)
        assert interval(weighted, lower=10.0, upper=None).holds(
            weighted_store
        )

    def test_unchecked_always_true(self, weighted, weighted_store):
        assert unchecked(weighted).holds(weighted_store)

    def test_intrinsically_wrong_interval_rejected(self, weighted):
        # lower (worst acceptable) strictly better than upper: 2 >S 5
        with pytest.raises(CheckError, match="intrinsically wrong"):
            interval(weighted, lower=2.0, upper=5.0)

    def test_fuzzy_interval(self, fuzzy):
        store = empty_store(fuzzy).tell(ConstantConstraint(fuzzy, 0.6))
        assert interval(fuzzy, lower=0.5, upper=0.8).holds(store)
        assert not interval(fuzzy, lower=0.7, upper=1.0).holds(store)
        assert not interval(fuzzy, lower=0.0, upper=0.5).holds(store)


class TestConstraintThresholds:
    def test_c2_classification(self, weighted):
        x = integer_variable("x", 5)
        phi = FunctionConstraint(weighted, (x,), lambda v: float(v))
        spec = CheckSpec(weighted, lower=10.0, upper=phi)
        assert spec.case == "C2"

    def test_c2_upper_constraint(self, weighted, weighted_store):
        x = integer_variable("x", 10)
        # φ2 = 2x (cheaper than σ = 3x+5 everywhere): σ ⊑ φ2 holds.
        phi2 = FunctionConstraint(weighted, (x,), lambda v: 2.0 * v)
        assert CheckSpec(weighted, lower=20.0, upper=phi2).holds(
            weighted_store
        )
        # φ2' = 4x+9 (worse than σ): σ ⋢ φ2'.
        phi2_bad = FunctionConstraint(weighted, (x,), lambda v: 4.0 * v + 9)
        assert not CheckSpec(weighted, lower=20.0, upper=phi2_bad).holds(
            weighted_store
        )

    def test_c3_lower_constraint(self, weighted, weighted_store):
        x = integer_variable("x", 10)
        # φ1 = 5x+20 is worse than σ everywhere: σ ⊒ φ1 holds.
        phi1 = FunctionConstraint(weighted, (x,), lambda v: 5.0 * v + 20)
        spec = CheckSpec(weighted, lower=phi1, upper=2.0)
        assert spec.case == "C3"
        assert spec.holds(weighted_store)
        # φ1' = x+2 (better than σ on most points): σ is worse than the
        # worst acceptable constraint, so the check must fail.
        phi1_bad = FunctionConstraint(weighted, (x,), lambda v: v + 2.0)
        assert not CheckSpec(weighted, lower=phi1_bad, upper=2.0).holds(
            weighted_store
        )

    def test_c3_lower_best_level_better_than_upper_rejected(self, weighted):
        x = integer_variable("x", 10)
        # φ1 = x has best level 0, strictly better than the upper 2.0:
        # the parenthesized Fig. 3 condition φ1⇓∅ ≯ a2 is violated.
        phi1 = FunctionConstraint(weighted, (x,), lambda v: float(v))
        with pytest.raises(CheckError, match="intrinsically wrong"):
            CheckSpec(weighted, lower=phi1, upper=2.0)

    def test_c4_both_constraints(self, weighted, weighted_store):
        x = integer_variable("x", 10)
        phi1 = FunctionConstraint(weighted, (x,), lambda v: 5.0 * v + 20)
        phi2 = FunctionConstraint(weighted, (x,), lambda v: 1.0 * v)
        spec = CheckSpec(weighted, lower=phi1, upper=phi2)
        assert spec.case == "C4"
        assert spec.holds(weighted_store)

    def test_c4_wrong_interval_rejected(self, weighted):
        x = integer_variable("x", 5)
        better = FunctionConstraint(weighted, (x,), lambda v: float(v))
        worse = FunctionConstraint(weighted, (x,), lambda v: v + 10.0)
        # lower=better, upper=worse violates φ1 ⊑ φ2
        with pytest.raises(CheckError):
            CheckSpec(weighted, lower=better, upper=worse)

    def test_cross_semiring_threshold_rejected(self, weighted, fuzzy):
        with pytest.raises(CheckError, match="lives in"):
            CheckSpec(weighted, lower=ConstantConstraint(fuzzy, 0.5))

    def test_invalid_level_rejected(self, fuzzy):
        from repro.semirings import SemiringError

        with pytest.raises(SemiringError):
            CheckSpec(fuzzy, lower=2.5)


class TestPartialOrderChecks:
    def test_incomparable_consistency_passes_level_bounds(self, setbased):
        # On Set semirings ¬(<) admits incomparable stores — Fig. 3 uses
        # the negated forms precisely for this.
        store = empty_store(setbased).tell(
            ConstantConstraint(setbased, frozenset({"read"}))
        )
        lower = frozenset({"write"})  # incomparable with {read}
        spec = CheckSpec(setbased, lower=lower, upper=None)
        assert spec.holds(store)


class TestKnownConsistency:
    """``holds(store, consistency=σ⇓∅)`` judges level thresholds against
    the given value and only touches the store for constraint ones."""

    def test_level_thresholds_read_the_given_value(self, weighted):
        spec = interval(weighted, lower=10.0, upper=2.0)
        assert spec.holds(None, consistency=5.0)
        assert not spec.holds(None, consistency=11.0)
        assert not spec.holds(None, consistency=1.0)

    def test_given_value_wins_over_the_store(self, weighted, weighted_store):
        # The store's own σ⇓∅ is 5, inside [2, 10]; the caller's 11 is
        # outside, and the caller's value decides.
        spec = interval(weighted, lower=10.0, upper=2.0)
        assert spec.holds(weighted_store)
        assert not spec.holds(weighted_store, consistency=11.0)

    def test_unchecked_needs_nothing(self, weighted):
        assert unchecked(weighted).holds(None)

    def test_incomparable_given_value_passes(self, setbased):
        spec = CheckSpec(setbased, lower=frozenset({"write"}), upper=None)
        assert spec.holds(None, consistency=frozenset({"read"}))

    def test_constraint_threshold_uses_store_and_given_level(
        self, weighted, weighted_store
    ):
        x = integer_variable("x", 10)
        phi1 = FunctionConstraint(weighted, (x,), lambda v: 5.0 * v + 20)
        spec = CheckSpec(weighted, lower=phi1, upper=2.0)
        assert spec.holds(weighted_store, consistency=5.0)
        # The level side reads the given value: 1 is better than upper 2.
        assert not spec.holds(weighted_store, consistency=1.0)


class TestMissingStore:
    def test_level_threshold_without_store_or_value(self, weighted):
        spec = interval(weighted, lower=10.0, upper=2.0)
        with pytest.raises(CheckError, match="C1"):
            spec.holds(None)

    @pytest.mark.parametrize("case", ["C2", "C3", "C4"])
    def test_constraint_threshold_without_store(self, weighted, case):
        x = integer_variable("x", 10)
        worse = FunctionConstraint(weighted, (x,), lambda v: 5.0 * v + 20)
        better = FunctionConstraint(weighted, (x,), lambda v: 1.0 * v)
        lower, upper = {
            "C2": (20.0, better),
            "C3": (worse, 0.0),
            "C4": (worse, better),
        }[case]
        spec = CheckSpec(weighted, lower=lower, upper=upper)
        assert spec.case == case
        with pytest.raises(CheckError, match=case):
            spec.holds(None, consistency=5.0)
        with pytest.raises(CheckError, match=case):
            spec.holds(None)
