"""JSON (de)serialization for problems, QoS documents and trust networks.

The paper's broker consumes "XML-based documents" describing QoS and
turns them into soft constraints; this module is the equivalent wire
format for this library (JSON rather than XML — same role, see DESIGN.md
substitutions).  Everything that can be stated declaratively round-trips:

* semirings (by registry name + parameters, including products);
* variables, table / polynomial / constant constraints;
* whole SCSPs ``⟨C, con⟩``;
* :class:`~repro.soa.qos.QoSDocument` / :class:`~repro.soa.qos.QoSPolicy`;
* market specs (``kind: market``: services and a client request, read
  by the CLI);
* :class:`~repro.coalitions.trust.TrustNetwork`.

Function constraints (arbitrary Python callables) intentionally do not
serialize — materialize them to tables first (`constraint.materialize()`).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from .coalitions.exact import CoalitionSolution
from .coalitions.trust import TrustNetwork
from .constraints.constraint import (
    ConstantConstraint,
    SoftConstraint,
)
from .constraints.polynomial import Polynomial, polynomial_constraint
from .constraints.table import TableConstraint, to_table
from .constraints.variables import Variable
from .semirings.base import Semiring
from .semirings.product import ProductSemiring
from .semirings.registry import get_semiring
from .semirings.setbased import SetSemiring
from .semirings.weighted import BoundedWeightedSemiring, WeightedSemiring
from .sccp.check import CheckSpec
from .soa.broker import ClientRequest
from .soa.composition import Choose, Invoke, Pipeline, Plan, Split
from .soa.qos import QoSDocument, QoSPolicy, resolve_attribute
from .soa.registry import ServiceRegistry
from .soa.service import ServiceDescription, ServiceInterface
from .soa.sla import SLA
from .solver.problem import SCSP


class SerializationError(Exception):
    """Raised on unknown payloads or non-serializable objects."""


# ----------------------------------------------------------------------
# Semirings
# ----------------------------------------------------------------------


def semiring_to_dict(semiring: Semiring) -> Dict[str, Any]:
    if isinstance(semiring, ProductSemiring):
        return {
            "kind": "product",
            "components": [
                semiring_to_dict(c) for c in semiring.components
            ],
        }
    if isinstance(semiring, SetSemiring):
        return {"kind": "set", "universe": sorted(map(str, semiring.universe))}
    if isinstance(semiring, BoundedWeightedSemiring):
        return {"kind": "bounded-weighted", "cap": semiring.cap}
    if isinstance(semiring, WeightedSemiring):
        return {"kind": "weighted", "integral": semiring.integral}
    name = semiring.name.lower()
    if name in ("classical", "fuzzy", "probabilistic"):
        return {"kind": name}
    raise SerializationError(
        f"semiring {semiring.name!r} has no registered JSON form"
    )


def semiring_from_dict(payload: Dict[str, Any]) -> Semiring:
    kind = payload.get("kind")
    if kind == "product":
        return ProductSemiring(
            [semiring_from_dict(c) for c in payload["components"]]
        )
    if kind == "set":
        return get_semiring("set", universe=payload["universe"])
    if kind == "bounded-weighted":
        return get_semiring("bounded-weighted", cap=payload["cap"])
    if kind == "weighted":
        return get_semiring(
            "weighted", integral=payload.get("integral", False)
        )
    if kind in ("classical", "fuzzy", "probabilistic", "boolean"):
        return get_semiring(kind)
    raise SerializationError(f"unknown semiring kind {kind!r}")


# ----------------------------------------------------------------------
# Values (semiring elements) — JSON has no ∞ or frozensets
# ----------------------------------------------------------------------


def value_to_json(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, frozenset):
        return {"set": sorted(map(str, value))}
    if isinstance(value, tuple):
        return {"tuple": [value_to_json(v) for v in value]}
    return value


def value_from_json(payload: Any) -> Any:
    if payload == "inf":
        return math.inf
    if isinstance(payload, dict) and "set" in payload:
        return frozenset(payload["set"])
    if isinstance(payload, dict) and "tuple" in payload:
        return tuple(value_from_json(v) for v in payload["tuple"])
    return payload


# ----------------------------------------------------------------------
# Variables and constraints
# ----------------------------------------------------------------------


def variable_to_dict(variable: Variable) -> Dict[str, Any]:
    return {"name": variable.name, "domain": list(variable.domain)}


def variable_from_dict(payload: Dict[str, Any]) -> Variable:
    return Variable(payload["name"], tuple(payload["domain"]))


def polynomial_to_dict(polynomial: Polynomial) -> List[Dict[str, Any]]:
    return [
        {"monomial": [list(item) for item in monomial], "coeff": coeff}
        for monomial, coeff in sorted(polynomial.coefficients.items())
    ]


def polynomial_from_dict(payload: List[Dict[str, Any]]) -> Polynomial:
    return Polynomial(
        {
            tuple((name, power) for name, power in term["monomial"]): term[
                "coeff"
            ]
            for term in payload
        }
    )


def constraint_to_dict(constraint: SoftConstraint) -> Dict[str, Any]:
    """Serialize a constraint; non-table kinds are materialized."""
    semiring = semiring_to_dict(constraint.semiring)
    if isinstance(constraint, ConstantConstraint):
        return {
            "kind": "constant",
            "semiring": semiring,
            "value": value_to_json(constraint.constant),
        }
    poly = getattr(constraint, "_serialized_polynomial", None)
    if poly is not None:
        return {
            "kind": "polynomial",
            "semiring": semiring,
            "scope": [variable_to_dict(v) for v in constraint.scope],
            "polynomial": polynomial_to_dict(poly),
            "name": getattr(constraint, "name", ""),
        }
    table = to_table(constraint)
    return {
        "kind": "table",
        "semiring": semiring,
        "scope": [variable_to_dict(v) for v in table.scope],
        "default": value_to_json(table.default),
        "entries": [
            {"key": list(key), "value": value_to_json(val)}
            for key, val in sorted(
                table.table.items(), key=lambda kv: repr(kv[0])
            )
        ],
        "name": table.name,
    }


def constraint_from_dict(payload: Dict[str, Any]) -> SoftConstraint:
    kind = payload.get("kind")
    semiring = semiring_from_dict(payload["semiring"])
    if kind == "constant":
        return ConstantConstraint(semiring, value_from_json(payload["value"]))
    if kind == "polynomial":
        scope = [variable_from_dict(v) for v in payload["scope"]]
        constraint = polynomial_constraint(
            semiring,
            scope,
            polynomial_from_dict(payload["polynomial"]),
            name=payload.get("name", ""),
        )
        constraint._serialized_polynomial = polynomial_from_dict(  # type: ignore[attr-defined]
            payload["polynomial"]
        )
        return constraint
    if kind == "table":
        scope = [variable_from_dict(v) for v in payload["scope"]]
        entries = {
            tuple(entry["key"]): value_from_json(entry["value"])
            for entry in payload["entries"]
        }
        return TableConstraint(
            semiring,
            scope,
            entries,
            default=value_from_json(payload["default"]),
            name=payload.get("name", ""),
        )
    raise SerializationError(f"unknown constraint kind {kind!r}")


def serializable_polynomial_constraint(
    semiring: Semiring,
    scope: List[Variable],
    polynomial: Polynomial,
    name: str = "",
):
    """A polynomial constraint that remembers its polynomial, so
    :func:`constraint_to_dict` emits the compact symbolic form instead of
    a table."""
    constraint = polynomial_constraint(semiring, scope, polynomial, name)
    constraint._serialized_polynomial = polynomial  # type: ignore[attr-defined]
    return constraint


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------


def problem_to_dict(problem: SCSP) -> Dict[str, Any]:
    return {
        "kind": "scsp",
        "name": problem.name,
        "constraints": [
            constraint_to_dict(c) for c in problem.constraints
        ],
        "con": list(problem.con),
    }


def problem_from_dict(payload: Dict[str, Any]) -> SCSP:
    if payload.get("kind") != "scsp":
        raise SerializationError("payload is not an SCSP")
    constraints = [
        constraint_from_dict(c) for c in payload["constraints"]
    ]
    return SCSP(
        constraints, con=payload.get("con"), name=payload.get("name", "")
    )


# ----------------------------------------------------------------------
# QoS documents
# ----------------------------------------------------------------------


def qos_policy_to_dict(policy: QoSPolicy) -> Dict[str, Any]:
    if policy.fn is not None:
        raise SerializationError(
            "fn-based QoS policies cannot serialize; use table/polynomial"
        )
    payload: Dict[str, Any] = {
        "attribute": policy.attribute,
        "variables": {
            name: list(domain) for name, domain in policy.variables.items()
        },
    }
    if policy.constant is not None:
        payload["constant"] = value_to_json(policy.constant)
    if policy.polynomial is not None:
        payload["polynomial"] = polynomial_to_dict(policy.polynomial)
    if policy.table is not None:
        payload["table"] = [
            {"key": list(key), "value": value_to_json(val)}
            for key, val in sorted(
                policy.table.items(), key=lambda kv: repr(kv[0])
            )
        ]
    return payload


def qos_policy_from_dict(payload: Dict[str, Any]) -> QoSPolicy:
    table = None
    if "table" in payload:
        table = {
            tuple(entry["key"]): value_from_json(entry["value"])
            for entry in payload["table"]
        }
    return QoSPolicy(
        attribute=payload["attribute"],
        variables={
            name: tuple(domain)
            for name, domain in payload.get("variables", {}).items()
        },
        constant=value_from_json(payload["constant"])
        if "constant" in payload
        else None,
        polynomial=polynomial_from_dict(payload["polynomial"])
        if "polynomial" in payload
        else None,
        table=table,
    )


def qos_document_to_dict(document: QoSDocument) -> Dict[str, Any]:
    return {
        "kind": "qos-document",
        "service_name": document.service_name,
        "provider": document.provider,
        "policies": [qos_policy_to_dict(p) for p in document.policies],
    }


def qos_document_from_dict(payload: Dict[str, Any]) -> QoSDocument:
    if payload.get("kind") != "qos-document":
        raise SerializationError("payload is not a QoS document")
    return QoSDocument(
        service_name=payload["service_name"],
        provider=payload["provider"],
        policies=[
            qos_policy_from_dict(p) for p in payload.get("policies", [])
        ],
    )


def sla_to_dict(sla: SLA) -> Dict[str, Any]:
    """The identity and agreed level of a signed SLA."""
    return {
        "sla_id": sla.sla_id,
        "providers": list(sla.providers),
        "service_ids": list(sla.service_ids),
        "agreed_level": value_to_json(sla.agreed_level),
    }


def market_registry_from_dict(payload: Dict[str, Any]) -> ServiceRegistry:
    """Publish every service of a market spec into a fresh registry."""
    registry = ServiceRegistry()
    for entry in payload.get("services", []):
        document = qos_document_from_dict(entry["qos"])
        registry.publish(
            ServiceDescription(
                service_id=entry["service_id"],
                name=entry.get("name", document.service_name),
                provider=document.provider,
                interface=ServiceInterface(operation=entry["operation"]),
                qos=document,
                tags=tuple(entry.get("tags", ())),
            )
        )
    return registry


def market_request_from_dict(payload: Dict[str, Any]) -> ClientRequest:
    """The client request of a market spec."""
    spec = payload["request"]
    acceptance = None
    if "acceptance" in spec:
        acceptance = CheckSpec(
            resolve_attribute(spec["attribute"]).semiring(),
            lower=value_from_json(spec["acceptance"].get("lower")),
            upper=value_from_json(spec["acceptance"].get("upper")),
        )
    return ClientRequest(
        client=spec.get("client", "cli"),
        operation=spec["operation"],
        attribute=spec["attribute"],
        acceptance=acceptance,
    )


# ----------------------------------------------------------------------
# Composition plans
# ----------------------------------------------------------------------

_PLAN_TYPES = {"pipeline": Pipeline, "split": Split, "choose": Choose}


def _plan_node_to_dict(node: Plan) -> Dict[str, Any]:
    if isinstance(node, Invoke):
        return {"type": "invoke", "service_id": node.service_id}
    for type_name, plan_type in _PLAN_TYPES.items():
        if isinstance(node, plan_type):
            return {
                "type": type_name,
                "children": [
                    _plan_node_to_dict(child) for child in node.children
                ],
            }
    raise SerializationError(
        f"cannot serialize plan node {type(node).__name__}"
    )


def _plan_node_from_dict(payload: Dict[str, Any]) -> Plan:
    node_type = payload.get("type")
    if node_type == "invoke":
        try:
            return Invoke(payload["service_id"])
        except KeyError:
            raise SerializationError(
                "invoke node needs a service_id"
            ) from None
    plan_type = _PLAN_TYPES.get(node_type)
    if plan_type is None:
        raise SerializationError(f"unknown plan node type {node_type!r}")
    children = payload.get("children")
    if not children:
        raise SerializationError(
            f"{node_type} node needs a non-empty children list"
        )
    return plan_type([_plan_node_from_dict(child) for child in children])


def plan_to_dict(plan: Plan) -> Dict[str, Any]:
    return {"kind": "plan", "root": _plan_node_to_dict(plan)}


def plan_from_dict(payload: Dict[str, Any]) -> Plan:
    if payload.get("kind") != "plan":
        raise SerializationError("payload is not a composition plan")
    try:
        root = payload["root"]
    except KeyError:
        raise SerializationError("plan payload needs a root node") from None
    return _plan_node_from_dict(root)


# ----------------------------------------------------------------------
# Trust networks
# ----------------------------------------------------------------------


def trust_network_to_dict(network: TrustNetwork) -> Dict[str, Any]:
    return {
        "kind": "trust-network",
        "agents": list(network.agents),
        "default": network.default,
        "scores": [
            {"source": source, "target": target, "trust": value}
            for (source, target), value in sorted(
                network.known_scores().items()
            )
        ],
    }


def trust_network_from_dict(payload: Dict[str, Any]) -> TrustNetwork:
    if payload.get("kind") != "trust-network":
        raise SerializationError("payload is not a trust network")
    scores = {
        (entry["source"], entry["target"]): entry["trust"]
        for entry in payload.get("scores", [])
    }
    return TrustNetwork(
        payload["agents"], scores, default=payload.get("default")
    )


def coalition_solution_to_dict(
    solution: CoalitionSolution,
) -> Dict[str, Any]:
    """JSON view of a coalition search result, shared by the CLI and the
    runtime so both surfaces report the same shape.

    ``stable_partitions`` is only meaningful for exact enumeration (the
    heuristics never count the stable universe), so it is included only
    when the method actually measured it.
    """
    payload: Dict[str, Any] = {
        "kind": "coalition-solution",
        "method": solution.method,
        "found": solution.found,
        "stable": solution.stable,
        "trust": solution.trust,
        "partition": [
            sorted(group) for group in (solution.partition or ())
        ],
        "partitions_examined": solution.partitions_examined,
    }
    if solution.method == "exact":
        payload["stable_partitions"] = solution.stable_partitions
    return payload


# ----------------------------------------------------------------------
# Top-level convenience
# ----------------------------------------------------------------------

_DUMPERS = {
    SCSP: problem_to_dict,
    QoSDocument: qos_document_to_dict,
    TrustNetwork: trust_network_to_dict,
    CoalitionSolution: coalition_solution_to_dict,
    Plan: plan_to_dict,
}

_LOADERS = {
    "scsp": problem_from_dict,
    "qos-document": qos_document_from_dict,
    "trust-network": trust_network_from_dict,
    "plan": plan_from_dict,
}


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize a supported object to a JSON string."""
    for cls, dumper in _DUMPERS.items():
        if isinstance(obj, cls):
            return json.dumps(dumper(obj), indent=indent)
    if isinstance(obj, SoftConstraint):
        return json.dumps(constraint_to_dict(obj), indent=indent)
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def loads(text: str) -> Any:
    """Deserialize any supported top-level payload."""
    payload = json.loads(text)
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind in _LOADERS:
        return _LOADERS[kind](payload)
    if kind in ("table", "polynomial", "constant"):
        return constraint_from_dict(payload)
    raise SerializationError(f"unknown payload kind {kind!r}")
