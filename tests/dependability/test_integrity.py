"""Integrity as refinement: the photo-editing analysis (paper Sec. 5)."""

import pytest

from repro.constraints import FunctionConstraint, variable
from repro.dependability import (
    assume_unreliable,
    dependably_safe,
    integrate,
    interface_of,
    locally_refines,
)

SIZES = (256, 512, 1024, 2048, 4096)


@pytest.fixture
def photo(boolean):
    outcomp = variable("outcomp", SIZES)
    incomp = variable("incomp", SIZES)
    redbyte = variable("redbyte", SIZES)
    bwbyte = variable("bwbyte", SIZES)
    return {
        "vars": (outcomp, incomp, redbyte, bwbyte),
        "memory": FunctionConstraint(
            boolean, (incomp, outcomp), lambda i, o: i <= o, name="Memory"
        ),
        "red": FunctionConstraint(
            boolean, (redbyte, bwbyte), lambda r, b: r <= b, name="RedFilter"
        ),
        "bw": FunctionConstraint(
            boolean, (bwbyte, outcomp), lambda b, o: b <= o, name="BWFilter"
        ),
        "comp": FunctionConstraint(
            boolean, (incomp, redbyte), lambda i, r: i <= r, name="Compression"
        ),
    }


class TestCrispRefinement:
    def test_imp1_refines_memory(self, photo):
        imp1 = integrate([photo["red"], photo["bw"], photo["comp"]])
        report = locally_refines(imp1, photo["memory"], ["incomp", "outcomp"])
        assert report.holds
        assert report.witnesses == []
        assert bool(report) is True

    def test_imp2_does_not_refine_memory(self, photo, boolean):
        imp2 = integrate(
            [assume_unreliable(photo["red"]), photo["bw"], photo["comp"]],
            semiring=boolean,
        )
        report = locally_refines(imp2, photo["memory"], ["incomp", "outcomp"])
        assert not report.holds
        assert report.witnesses
        witness = report.witnesses[0]
        # every counterexample grows the image
        assert witness["incomp"] > witness["outcomp"]

    def test_witness_count_capped(self, photo, boolean):
        imp2 = integrate(
            [assume_unreliable(photo["red"]), photo["bw"], photo["comp"]],
            semiring=boolean,
        )
        report = locally_refines(
            imp2, photo["memory"], ["incomp", "outcomp"], max_witnesses=2
        )
        assert len(report.witnesses) == 2

    def test_dependably_safe_is_interface_refinement(self, photo):
        imp1 = integrate([photo["red"], photo["bw"], photo["comp"]])
        assert dependably_safe(
            imp1, photo["memory"], ["incomp", "outcomp"]
        ).holds

    def test_refinement_reflexive(self, photo):
        assert locally_refines(
            photo["memory"], photo["memory"], ["incomp", "outcomp"]
        ).holds

    def test_checked_assignment_count(self, photo):
        imp1 = integrate([photo["red"], photo["bw"], photo["comp"]])
        report = locally_refines(imp1, photo["memory"], ["incomp", "outcomp"])
        assert report.checked_assignments == len(SIZES) ** 2

    def test_interface_accepts_variable_objects(self, photo):
        outcomp, incomp, _, _ = photo["vars"]
        imp1 = integrate([photo["red"], photo["bw"], photo["comp"]])
        assert locally_refines(imp1, photo["memory"], [incomp, outcomp]).holds


class TestUnreliableAssumption:
    def test_assume_unreliable_is_top(self, photo, boolean):
        top = assume_unreliable(photo["red"])
        assert top.scope == ()
        assert top({}) is True

    def test_quantitative_variant(self, probabilistic):
        x = variable("x", (0, 1))
        module = FunctionConstraint(probabilistic, (x,), lambda v: 0.9)
        top = assume_unreliable(module)
        assert top({}) == 1.0
        assert top.semiring is module.semiring or (
            top.semiring == module.semiring
        )


class TestFuzzyRefinement:
    def test_soft_refinement_degrees(self, fuzzy):
        """Refinement generalizes: a fuzzy implementation refines a fuzzy
        requirement iff pointwise ≤ after projection."""
        x = variable("x", (0, 1, 2))
        y = variable("y", (0, 1))
        implementation = FunctionConstraint(
            fuzzy, (x, y), lambda a, b: 0.4 if b else 0.2
        )
        requirement = FunctionConstraint(fuzzy, (x,), lambda a: 0.5)
        assert locally_refines(implementation, requirement, ["x"]).holds
        stricter = FunctionConstraint(fuzzy, (x,), lambda a: 0.3)
        assert not locally_refines(implementation, stricter, ["x"]).holds


class TestInterfaceOf:
    def test_hides_internal_variables(self, photo):
        imp1 = integrate([photo["red"], photo["bw"], photo["comp"]])
        external = interface_of(imp1, ["redbyte", "bwbyte"])
        assert set(external.support) == {"incomp", "outcomp"}

    def test_interface_is_projection(self, photo):
        imp1 = integrate([photo["red"], photo["bw"], photo["comp"]])
        from repro.constraints import constraints_equal

        assert constraints_equal(
            interface_of(imp1, ["redbyte", "bwbyte"]),
            imp1.project(["incomp", "outcomp"]),
        )


class TestIntegrate:
    def test_empty_integration_needs_semiring(self, boolean):
        with pytest.raises(ValueError):
            integrate([])
        top = integrate([], semiring=boolean)
        assert top({}) is True


class TestStoreAsImplementation:
    """A broker session's store *is* an implementation: refinement routes
    its interface view through ``ConstraintStore.project``."""

    def test_store_refines_like_its_combination(self, photo):
        from repro.constraints import empty_store

        store = empty_store(photo["memory"].semiring)
        for module in ("red", "bw", "comp"):
            store = store.tell(photo[module])
        report = locally_refines(store, photo["memory"], ["incomp", "outcomp"])
        assert report.holds
        assert report.checked_assignments == len(SIZES) ** 2

    def test_unreliable_module_breaks_store_refinement(self, photo, boolean):
        from repro.constraints import empty_store

        store = empty_store(boolean)
        for module in (
            assume_unreliable(photo["red"]),
            photo["bw"],
            photo["comp"],
        ):
            store = store.tell(module)
        report = dependably_safe(store, photo["memory"], ["incomp", "outcomp"])
        assert not report.holds
        assert report.witnesses
