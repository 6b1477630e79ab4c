"""The SOA query engine (paper's future-work deliverable)."""

import pytest

from repro.soa import (
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)
from repro.soa.query import (
    QueryEngine,
    QueryError,
    ServiceQuery,
)


def publish(
    registry,
    service_id,
    operation,
    inputs=(),
    outputs=(),
    reliability=0.95,
    provider=None,
    tags=(),
):
    provider = provider or f"prov-{service_id}"
    registry.publish(
        ServiceDescription(
            service_id=service_id,
            name=operation,
            provider=provider,
            interface=ServiceInterface(
                operation=operation,
                inputs=tuple(inputs),
                outputs=tuple(outputs),
            ),
            qos=QoSDocument(
                service_name=operation,
                provider=provider,
                policies=[
                    QoSPolicy(attribute="reliability", constant=reliability)
                ],
            ),
            tags=tuple(tags),
        )
    )


@pytest.fixture
def photo_registry():
    """The paper's photo-editing services, typed by data formats."""
    registry = ServiceRegistry()
    publish(
        registry,
        "compf",
        "compress",
        inputs=("raw-photo",),
        outputs=("compressed",),
        reliability=0.99,
    )
    publish(
        registry,
        "redf",
        "red-filter",
        inputs=("compressed",),
        outputs=("red-photo",),
        reliability=0.97,
    )
    publish(
        registry,
        "bwf",
        "bw-filter",
        inputs=("red-photo",),
        outputs=("bw-photo",),
        reliability=0.95,
    )
    publish(
        registry,
        "allinone",
        "darkroom",
        inputs=("raw-photo",),
        outputs=("bw-photo",),
        reliability=0.85,
    )
    return registry


class TestQueryValidation:
    def test_needs_operation_xor_produces(self):
        with pytest.raises(QueryError):
            ServiceQuery(attribute="reliability")
        with pytest.raises(QueryError):
            ServiceQuery(
                attribute="reliability",
                operation="x",
                produces=("y",),
            )

    def test_max_chain_validated(self):
        with pytest.raises(QueryError):
            ServiceQuery(
                attribute="reliability", operation="x", max_chain=0
            )


class TestOperationQueries:
    def test_single_operation_match(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(attribute="reliability", operation="compress")
        )
        assert answer.satisfiable
        assert answer.best.plan.services() == ["compf"]
        assert answer.best.level == pytest.approx(0.99)

    def test_best_of_competing_providers(self, photo_registry):
        publish(
            photo_registry,
            "compf2",
            "compress",
            inputs=("raw-photo",),
            outputs=("compressed",),
            reliability=0.999,
        )
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(attribute="reliability", operation="compress")
        )
        assert [m.plan.services() for m in answer.matches] == [
            ["compf2"],
            ["compf"],
        ]

    def test_unknown_operation_unsatisfiable(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(attribute="reliability", operation="teleport")
        )
        assert not answer.satisfiable
        assert answer.best is None


class TestTypeDirectedQueries:
    def test_direct_type_match(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("compressed",),
                consumes=("raw-photo",),
            )
        )
        assert answer.best.plan.services() == ["compf"]

    def test_pipeline_composition_discovered(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=("raw-photo",),
                max_chain=3,
            )
        )
        assert answer.satisfiable
        plans = [m.plan.services() for m in answer.matches]
        assert ["compf", "redf", "bwf"] in plans  # the composed pipeline
        assert ["allinone"] in plans              # the monolith

    def test_pipeline_level_is_product(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=("raw-photo",),
                max_chain=3,
            )
        )
        pipeline_match = next(
            m for m in answer.matches if m.stages == 3
        )
        assert pipeline_match.level == pytest.approx(0.99 * 0.97 * 0.95)

    def test_reliable_pipeline_beats_flaky_monolith(self, photo_registry):
        """The who-wins shape: the composed chain (0.912) outranks the
        all-in-one service (0.85)."""
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=("raw-photo",),
                max_chain=3,
            )
        )
        assert answer.best.stages == 3
        assert answer.best.level > 0.85

    def test_chain_budget_respected(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=("raw-photo",),
                max_chain=2,  # the 3-stage chain is out of budget
            )
        )
        assert [m.plan.services() for m in answer.matches] == [["allinone"]]

    def test_minimum_level_cut(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=("raw-photo",),
                max_chain=3,
                minimum_level=0.9,
            )
        )
        assert all(m.level >= 0.9 for m in answer.matches)
        assert ["allinone"] not in [
            m.plan.services() for m in answer.matches
        ]

    def test_unreachable_type_unsatisfiable(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("hologram",),
                consumes=("raw-photo",),
                max_chain=4,
            )
        )
        assert not answer.satisfiable

    def test_missing_client_inputs_block_chains(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=(),  # client supplies nothing
                max_chain=4,
            )
        )
        assert not answer.satisfiable


class TestScoringDetails:
    def test_services_without_attribute_are_skipped(self, photo_registry):
        registry = photo_registry
        # a service publishing only cost cannot answer reliability queries
        registry.publish(
            ServiceDescription(
                service_id="costonly",
                name="compress",
                provider="cheap",
                interface=ServiceInterface(
                    operation="compress",
                    inputs=("raw-photo",),
                    outputs=("compressed",),
                ),
                qos=QoSDocument(
                    service_name="compress",
                    provider="cheap",
                    policies=[QoSPolicy(attribute="cost", constant=1.0)],
                ),
            )
        )
        engine = QueryEngine(registry)
        answer = engine.query(
            ServiceQuery(attribute="reliability", operation="compress")
        )
        assert ["costonly"] not in [
            m.plan.services() for m in answer.matches
        ]

    def test_offer_levels_cached(self, photo_registry):
        engine = QueryEngine(photo_registry)
        engine.query(
            ServiceQuery(attribute="reliability", operation="compress")
        )
        assert ("compf", "reliability") in engine._level_cache

    def test_republished_service_is_rescored(self):
        registry = ServiceRegistry()
        publish(registry, "s1", "op", reliability=0.9)
        engine = QueryEngine(registry)
        query = ServiceQuery(attribute="reliability", operation="op")
        assert engine.query(query).best.level == 0.9
        registry.unpublish("s1")
        publish(registry, "s1", "op", reliability=0.5)
        assert QueryEngine(registry).query(query).best.level == 0.5
        # The cached level belongs to the unpublished description.
        assert engine.query(query).best.level == 0.5

    def test_candidates_considered_reported(self, photo_registry):
        engine = QueryEngine(photo_registry)
        answer = engine.query(
            ServiceQuery(
                attribute="reliability",
                produces=("bw-photo",),
                consumes=("raw-photo",),
                max_chain=3,
            )
        )
        assert answer.candidates_considered >= 2
