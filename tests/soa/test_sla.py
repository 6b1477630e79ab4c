"""SLA objects and the repository."""

import pytest

from repro.constraints import ConstantConstraint
from repro.semirings import ProbabilisticSemiring, WeightedSemiring
from repro.soa import SLA, SLAError, SLARepository, SLAViolation

from ..constraints.monolith_oracle import MonolithStore


def make_sla(
    client="C",
    providers=("P",),
    level=0.9,
    attribute="reliability",
    operation="",
):
    semiring = ProbabilisticSemiring()
    return SLA(
        client=client,
        providers=providers,
        attribute=attribute,
        semiring=semiring,
        agreed_constraint=ConstantConstraint(semiring, level),
        agreed_level=level,
        operation=operation,
    )


def _monolith_store(sla):
    """The agreed constraint told to the paper-literal store oracle."""
    return MonolithStore(sla.semiring).tell(sla.agreed_constraint)


class TestAsStore:
    @pytest.mark.parametrize(
        "build",
        [SLA.as_store, _monolith_store],
        ids=["factored", "monolith"],
    )
    def test_rebuilds_the_agreed_store(self, build):
        sla = make_sla(level=0.8)
        store = build(sla)
        assert store.consistency() == 0.8
        assert store.entails(
            ConstantConstraint(sla.semiring, sla.agreed_level)
        )


class TestSLA:
    def test_ids_unique_and_increasing(self):
        a = make_sla()
        b = make_sla()
        assert b.sla_id > a.sla_id

    def test_needs_provider(self):
        with pytest.raises(SLAError, match="at least one provider"):
            make_sla(providers=())

    def test_level_must_be_semiring_element(self):
        semiring = ProbabilisticSemiring()
        with pytest.raises(SLAError):
            SLA(
                client="C",
                providers=("P",),
                attribute="reliability",
                semiring=semiring,
                agreed_constraint=ConstantConstraint(semiring, 0.9),
                agreed_level=7.0,
            )

    def test_satisfied_by_probabilistic(self):
        sla = make_sla(level=0.9)
        assert sla.satisfied_by(0.95)
        assert sla.satisfied_by(0.9)
        assert not sla.satisfied_by(0.85)

    def test_satisfied_by_weighted_inverts(self):
        semiring = WeightedSemiring()
        sla = SLA(
            client="C",
            providers=("P",),
            attribute="latency",
            semiring=semiring,
            agreed_constraint=ConstantConstraint(semiring, 20.0),
            agreed_level=20.0,
        )
        assert sla.satisfied_by(15.0)  # faster is better
        assert not sla.satisfied_by(25.0)

    def test_terminate(self):
        sla = make_sla()
        assert sla.active
        sla.terminate()
        assert not sla.active


class TestRepository:
    def test_queries(self):
        repo = SLARepository()
        a = make_sla(client="C1", providers=("P1",))
        b = make_sla(client="C2", providers=("P1", "P2"))
        repo.add(a)
        repo.add(b)
        assert len(repo) == 2
        assert repo.for_client("C1") == [a]
        assert repo.for_provider("P1") == [a, b]
        assert repo.for_provider("P2") == [b]
        assert list(repo) == [a, b]

    def test_active_filter(self):
        repo = SLARepository()
        a = make_sla()
        b = make_sla()
        repo.add(a)
        repo.add(b)
        a.terminate()
        assert repo.active() == [b]

    def test_last_known_is_served_before_admission_latest_admitted(self):
        repo = SLARepository()
        render = make_sla(operation="render")
        store = make_sla(operation="store")
        other = make_sla(client="D", operation="render")
        later = make_sla(operation="render")
        unserved = make_sla(operation="render")
        for sla in (render, store, other, later, unserved):
            repo.add(sla)
        # ``later`` was served first but to a later-admitted session
        repo.serve(later, (0, 5))
        repo.serve(render, (0, 2))
        repo.serve(store, (0, 3))
        repo.serve(other, (0, 4))
        assert repo.servings == 4
        assert repo.last_known("C", "render", "reliability", 4) is later
        # only the first ``before`` servings count
        assert repo.last_known("C", "render", "reliability", 1) is later
        assert repo.last_known("C", "store", "reliability", 2) is None
        assert repo.last_known("C", "store", "reliability", 3) is store
        assert repo.last_known("C", "render", "cost", 4) is None
        assert repo.last_known("E", "render", "reliability", 4) is None
        later.terminate()
        assert repo.last_known("C", "render", "reliability", 4) is render
        assert repo.last_known("C", "render", "reliability", 1) is None


class TestViolation:
    def test_str_mentions_parties(self):
        violation = SLAViolation(
            sla_id=7,
            attribute="availability",
            expected=0.99,
            observed=0.8,
            at_execution=42,
        )
        text = str(violation)
        assert "SLA#7" in text and "availability" in text and "42" in text
