"""The immutable constraint store: tell / retract / update / entails."""

import pytest

from repro.constraints import (
    Polynomial,
    StoreError,
    constraints_equal,
    empty_store,
    integer_variable,
    polynomial_constraint,
)


@pytest.fixture
def policies(weighted):
    x = integer_variable("x", 15)
    y = integer_variable("y", 15)
    return {
        "x": x,
        "y": y,
        "c1": polynomial_constraint(weighted, [x], Polynomial.linear({"x": 1}, 3)),
        "c2": polynomial_constraint(weighted, [y], Polynomial.linear({"y": 1}, 1)),
        "c3": polynomial_constraint(weighted, [x], Polynomial.linear({"x": 2})),
        "c4": polynomial_constraint(weighted, [x], Polynomial.linear({"x": 1}, 5)),
    }


class TestEmptyStore:
    def test_empty_store_is_one(self, weighted):
        store = empty_store(weighted)
        assert store.consistency() == weighted.one
        assert store.support == ()

    def test_empty_store_entails_everything_entailable(self, fuzzy):
        from repro.constraints import ConstantConstraint

        store = empty_store(fuzzy)
        assert store.entails(ConstantConstraint(fuzzy, 1.0))
        assert not store.entails(ConstantConstraint(fuzzy, 0.3))


class TestTell:
    def test_tell_combines(self, weighted, policies):
        store = empty_store(weighted).tell(policies["c4"]).tell(policies["c3"])
        # σ = c4 ⊗ c3 ≡ 3x + 5
        assert store.value({"x": 2}) == 11.0
        assert store.consistency() == 5.0

    def test_tell_returns_new_store(self, weighted, policies):
        base = empty_store(weighted)
        told = base.tell(policies["c1"])
        assert base.consistency() == 0.0
        assert told.consistency() == 3.0

    def test_tell_is_monotone_in_weighted(self, weighted, policies):
        store = empty_store(weighted)
        levels = []
        for c in (policies["c4"], policies["c3"], policies["c1"]):
            store = store.tell(c)
            levels.append(store.consistency())
        # consistency can only get numerically worse (≤S-decreasing)
        assert levels == sorted(levels)

    def test_cross_semiring_tell_rejected(self, weighted, fuzzy):
        from repro.constraints import ConstantConstraint

        store = empty_store(weighted)
        with pytest.raises(StoreError):
            store.tell(ConstantConstraint(fuzzy, 0.5))


class TestRetract:
    def test_paper_example2(self, weighted, policies):
        x = policies["x"]
        store = empty_store(weighted).tell(policies["c4"]).tell(policies["c3"])
        relaxed = store.retract(policies["c1"])
        target = polynomial_constraint(
            weighted, [x], Polynomial.linear({"x": 2}, 2)
        )
        assert constraints_equal(relaxed.constraint, target)
        assert relaxed.consistency() == 2.0

    def test_retract_requires_entailment(self, weighted, policies):
        store = empty_store(weighted).tell(policies["c1"])
        with pytest.raises(StoreError, match="R7"):
            store.retract(policies["c4"])  # x+5 not entailed by x+3

    def test_tell_retract_roundtrip(self, weighted, policies):
        base = empty_store(weighted).tell(policies["c3"])
        roundtrip = base.tell(policies["c1"]).retract(policies["c1"])
        assert constraints_equal(roundtrip.constraint, base.constraint)

    def test_partial_removal_without_prior_tell(self, weighted, policies):
        # Paper: "c1 has not ever been added to the store before, so this
        # retraction behaves as a relaxation."
        store = empty_store(weighted).tell(policies["c4"]).tell(policies["c3"])
        assert store.entails(policies["c1"])
        relaxed = store.retract(policies["c1"])
        assert relaxed.consistency() == 2.0


class TestUpdate:
    def test_paper_example3(self, weighted, policies):
        y = policies["y"]
        store = empty_store(weighted).tell(policies["c1"])
        updated = store.update(["x"], policies["c2"])
        target = polynomial_constraint(
            weighted, [y], Polynomial.linear({"y": 1}, 4)
        )
        assert constraints_equal(updated.constraint, target)

    def test_update_keeps_projected_residue(self, weighted, policies):
        # The constant 3 of c1 survives the refresh of x.
        store = empty_store(weighted).tell(policies["c1"])
        updated = store.update(["x"], policies["c2"])
        assert updated.value({"y": 0}) == 4.0

    def test_update_unknown_variable_is_noop_projection(
        self, weighted, policies
    ):
        store = empty_store(weighted).tell(policies["c1"])
        updated = store.update(["zz"], policies["c2"])
        # x is untouched; c2 simply combined
        assert updated.value({"x": 1, "y": 1}) == 4.0 + 2.0

    def test_update_accepts_variable_objects(self, weighted, policies):
        store = empty_store(weighted).tell(policies["c1"])
        updated = store.update([policies["x"]], policies["c2"])
        assert "x" not in updated.support


class TestQueries:
    def test_entailment(self, weighted, policies):
        store = empty_store(weighted).tell(policies["c4"]).tell(policies["c3"])
        assert store.entails(policies["c1"])   # 3x+5 ≥ x+3 everywhere
        assert store.entails(policies["c4"])
        assert not empty_store(weighted).entails(policies["c1"])

    def test_projection_interface(self, weighted, policies):
        store = (
            empty_store(weighted)
            .tell(policies["c1"])
            .tell(policies["c2"])
        )
        interface = store.project(["x"])
        assert interface.support == ("x",)
        # min over y of (x+3 + y+1) = x + 4
        assert interface.value({"x": 2}) == 6.0

    def test_repr_mentions_support(self, weighted, policies):
        store = empty_store(weighted).tell(policies["c1"])
        assert "x" in repr(store)


class TestExactRetractMemo:
    def test_retold_factor_is_not_rescanned(
        self, weighted, policies, monkeypatch
    ):
        scanned = []
        check = type(weighted).exact_retract_value

        def counting(self, value):
            scanned.append(value)
            return check(self, value)

        monkeypatch.setattr(type(weighted), "exact_retract_value", counting)
        base = empty_store(weighted, backend="factored").tell(policies["c3"])
        once = len(scanned)
        assert once == policies["x"].size
        store = base.tell(policies["c1"])
        store = store.tell(policies["c1"]).tell(policies["c3"])
        assert len(scanned) == 2 * once

        # Retract results are those of the unmemoized check: removal of a
        # told factor, bit-equal to the monolith's division.
        relaxed = store.retract(policies["c1"])
        assert len(scanned) == 2 * once
        assert relaxed.factor_count == 3
        monolith = (
            empty_store(weighted, backend="monolith")
            .tell(policies["c3"])
            .tell(policies["c1"])
            .tell(policies["c1"])
            .tell(policies["c3"])
            .retract(policies["c1"])
        )
        assert constraints_equal(relaxed.constraint, monolith.constraint)
        assert relaxed.consistency() == monolith.consistency() == 3.0
