"""Declarative layer for grounded agentic workflows.

Servers declare capabilities and tasks, a federated directory maps agents to
the servers they may use, and a deterministic orchestrator discovers, plans,
and executes task graphs grounded exclusively in declared operations.
"""

from .atdp import FeasibilityReport, TaskDeclaration, check_feasibility, parse_task
from .capabilities import Capability, CapabilityId, parse_capability, validate_capability
from .directory import (
    AgentRecord,
    DirectorySnapshot,
    bind_server_capabilities,
    empty_snapshot,
    executable_capabilities,
    load_snapshot,
    merge,
    register_agent,
    remove_agent,
    resolve_capability,
    save_snapshot,
)
from .discovery import ExecutionContext, build_invoker, context_fingerprint, discover, feasibility
from .errors import DaliaError, ValidationError, ValidationReport
from .executor import (
    ExecutionTrace,
    StepRecord,
    canonical_order,
    canonical_serialize_trace,
    execute,
    replay_check,
)
from .planner import (
    Edge,
    Goal,
    Node,
    TaskGraph,
    assign_agents,
    canonical_serialize_graph,
    export_dot,
    parse_graph,
    plan,
    resolve_goal,
    synthesize_graph,
    validate_graph,
)
from .wire import (
    DirectoryService,
    HandlerSpec,
    Invoker,
    LocalClient,
    ServerConfig,
    TcpClient,
    WireServer,
    parse_server_config,
)

# Classes and functions only: importing a submodule also binds its name here.
__all__ = sorted(name for name, value in globals().items() if callable(value) and name[0] != "_")
