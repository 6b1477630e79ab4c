"""Service-oriented architecture substrate (paper Sec. 3–4).

Service descriptions and QoS documents, a UDDI-like registry, a SOAP-like
message bus, the broker-orchestrator with its embedded soft-constraint
solver, SLA objects, composition patterns with per-attribute QoS
aggregation, a fault-injecting execution engine and a runtime SLA monitor.
"""

from .broker import (
    Broker,
    BrokerConfig,
    BrokerError,
    CandidateEvaluation,
    ClientRequest,
    MulticriteriaResult,
    NegotiationResult,
    ParetoPoint,
)
from .allocation import (
    CONGESTION_GAMMA,
    AllocationError,
    AllocationInfo,
    FairAllocation,
    satisfaction_score,
)
from .composition import (
    AGGREGATION_RULES,
    AggregationRule,
    Choose,
    CompositionError,
    Invoke,
    Pipeline,
    Plan,
    Split,
    aggregate,
    aggregate_many,
    pipeline,
    plan_depth,
)
from .execution import ExecutionEngine, ExecutionReport
from .faults import (
    BernoulliCrash,
    BurstOutage,
    FaultInjector,
    FaultModel,
    InjectedFault,
    RandomDelay,
)
from .manager import (
    DependabilityManager,
    ManagementEvent,
    ManagementOutcome,
    ManagerError,
)
from .messages import Envelope, MessageBus, MessageError, request_reply
from .monitor import SLAMonitor
from .negotiation import (
    NegotiationOutcome,
    Party,
    fuzzy_agreement,
    iterative_concession,
    merged_policy,
    negotiate,
)
from .qos import (
    AVAILABILITY,
    COST,
    DOWNTIME,
    FUZZY_RELIABILITY,
    LATENCY,
    RELIABILITY,
    SECURITY_RIGHTS,
    STANDARD_ATTRIBUTES,
    QoSAttribute,
    QoSDocument,
    QoSError,
    QoSPolicy,
    compile_document,
    compile_policy,
    resolve_attribute,
)
from .capabilities import (
    CapabilityError,
    CapabilityPolicy,
    CompositionVerdict,
    compose_in_semiring,
    compose_policies,
    policy,
    to_semiring_value,
)
from .query import (
    QueryAnswer,
    QueryEngine,
    QueryError,
    QueryMatch,
    ServiceQuery,
)
from .registry import RegistryError, ServiceRegistry
from .strategies import (
    NegotiationRound,
    ProtocolOutcome,
    StrategyError,
    Tactic,
    alternating_offers,
    boulware,
    conceder,
    concession_index,
)
from .service import (
    InvocationOutcome,
    Service,
    ServiceDescription,
    ServiceError,
    ServiceInterface,
    ServicePool,
)
from .sla import SLA, SLAError, SLARepository, SLAViolation

__all__ = [
    # qos
    "QoSAttribute",
    "QoSDocument",
    "QoSPolicy",
    "QoSError",
    "compile_document",
    "compile_policy",
    "resolve_attribute",
    "STANDARD_ATTRIBUTES",
    "AVAILABILITY",
    "RELIABILITY",
    "COST",
    "LATENCY",
    "DOWNTIME",
    "FUZZY_RELIABILITY",
    "SECURITY_RIGHTS",
    # service / registry
    "Service",
    "ServiceDescription",
    "ServiceInterface",
    "ServicePool",
    "ServiceError",
    "InvocationOutcome",
    "ServiceRegistry",
    "RegistryError",
    # messages
    "MessageBus",
    "Envelope",
    "MessageError",
    "request_reply",
    # negotiation / broker
    "Party",
    "negotiate",
    "NegotiationOutcome",
    "fuzzy_agreement",
    "iterative_concession",
    "merged_policy",
    "Broker",
    "BrokerConfig",
    "BrokerError",
    "AllocationError",
    "AllocationInfo",
    "FairAllocation",
    "CONGESTION_GAMMA",
    "satisfaction_score",
    "ClientRequest",
    "CandidateEvaluation",
    "NegotiationResult",
    "MulticriteriaResult",
    "ParetoPoint",
    # sla
    "SLA",
    "SLAError",
    "SLAViolation",
    "SLARepository",
    # composition
    "Plan",
    "Invoke",
    "Pipeline",
    "Split",
    "Choose",
    "pipeline",
    "plan_depth",
    "aggregate",
    "aggregate_many",
    "AggregationRule",
    "AGGREGATION_RULES",
    "CompositionError",
    # execution / faults / monitoring
    "ExecutionEngine",
    "ExecutionReport",
    "FaultInjector",
    "FaultModel",
    "InjectedFault",
    "BernoulliCrash",
    "BurstOutage",
    "RandomDelay",
    "SLAMonitor",
    # query engine (paper future work)
    "ServiceQuery",
    "QueryEngine",
    "QueryAnswer",
    "QueryMatch",
    "QueryError",
    # capability policies
    "CapabilityPolicy",
    "CapabilityError",
    "CompositionVerdict",
    "policy",
    "compose_policies",
    "compose_in_semiring",
    "to_semiring_value",
    # self-healing manager
    "DependabilityManager",
    "ManagementOutcome",
    "ManagementEvent",
    "ManagerError",
    # concession tactics
    "Tactic",
    "boulware",
    "conceder",
    "concession_index",
    "alternating_offers",
    "ProtocolOutcome",
    "NegotiationRound",
    "StrategyError",
]
