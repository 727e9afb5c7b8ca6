"""repro — Gossiping in the Multicasting Communication Environment.

A full reproduction of T. F. Gonzalez's gossiping algorithm (IPPS 2001;
journal version IEEE TPDS): communication schedules of total time
``n + r`` for all-to-all broadcast on arbitrary networks under the
multicasting communication model.

Quickstart
----------
>>> from repro import topologies, gossip
>>> plan = gossip(topologies.grid_2d(4, 4))
>>> plan.total_time                          # n + r = 16 + 4
20
>>> plan.execute().complete
True

Packages
--------
* :mod:`repro.networks`  — graphs, topologies, radius / spanning trees;
* :mod:`repro.tree`      — rooted trees and DFS message labelling;
* :mod:`repro.core`      — the scheduling algorithms and data model;
* :mod:`repro.simulator` — round-based execution and validation;
* :mod:`repro.lint`      — execution-free static schedule analysis;
* :mod:`repro.service`   — cached, concurrent plan serving;
* :mod:`repro.analysis`  — bounds, comparisons, paper tables;
* :mod:`repro.viz`       — ASCII rendering helpers.
"""

from . import networks
from .core.broadcast import broadcast, broadcast_time, telephone_broadcast
from .core.concurrent_updown import concurrent_updown, concurrent_updown_on_tree
from .core.gossip import (
    ALGORITHMS,
    GossipPlan,
    gossip,
    gossip_on_tree,
    register_algorithm,
    resolve_network,
)
from .core.online import run_online_gossip
from .core.optimal import minimum_gossip_time
from .core.optimal_path import optimal_path_gossip
from .core.recovery import RecoveryResult, execute_plan_with_faults, recover
from .core.repeated import repeated_gossip
from .core.ring import hamiltonian_circuit, ring_gossip, ring_gossip_on_graph
from .core.schedule import Round, Schedule, Transmission
from .core.simple import simple_gossip, simple_total_time
from .core.survival import (
    SurvivalDiagnosis,
    SurvivalResult,
    diagnose_survival,
    survive,
    validate_survival,
)
from .core.updown import updown_gossip, updown_total_time_bound
from .core.weighted import weighted_gossip
from .exceptions import (
    CircuitOpenError,
    DisconnectedGraphError,
    GraphError,
    IncompleteGossipError,
    LabelingError,
    MessageClassError,
    ModelViolationError,
    PartitionedNetworkError,
    PlanTimeoutError,
    RecoveryExhaustedError,
    ReproError,
    ScheduleConflictError,
    ScheduleError,
    ScheduleLintError,
    SimulationError,
    SurvivorSetError,
    TreeError,
    UnknownTimelineRowError,
)
from .lint import Diagnostic, LintReport, Severity, lint_schedule
from .networks import topologies
from .networks.graph import Graph, GraphBuilder
from .networks.properties import center, diameter, radius, summarize
from .networks.spanning_tree import bfs_spanning_tree, minimum_depth_spanning_tree
from .service import GossipService, MaintainedNetwork, ServiceStats
from .simulator.engine import execute_schedule
from .simulator.lossy import FaultModel, FaultyExecutionResult, execute_with_faults
from .tree.labeling import LabeledTree, label_tree
from .tree.tree import Tree

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # network substrate
    "Graph",
    "GraphBuilder",
    "topologies",
    "networks",
    "radius",
    "diameter",
    "center",
    "summarize",
    "bfs_spanning_tree",
    "minimum_depth_spanning_tree",
    # tree substrate
    "Tree",
    "LabeledTree",
    "label_tree",
    # schedules and algorithms
    "Transmission",
    "Round",
    "Schedule",
    "concurrent_updown",
    "concurrent_updown_on_tree",
    "simple_gossip",
    "simple_total_time",
    "updown_gossip",
    "updown_total_time_bound",
    "ring_gossip",
    "ring_gossip_on_graph",
    "hamiltonian_circuit",
    "broadcast",
    "broadcast_time",
    "telephone_broadcast",
    "weighted_gossip",
    "run_online_gossip",
    "repeated_gossip",
    "minimum_gossip_time",
    "optimal_path_gossip",
    "gossip",
    "gossip_on_tree",
    "GossipPlan",
    "ALGORITHMS",
    "register_algorithm",
    "resolve_network",
    # serving
    "GossipService",
    "MaintainedNetwork",
    "ServiceStats",
    # execution
    "execute_schedule",
    # static analysis
    "lint_schedule",
    "LintReport",
    "Diagnostic",
    "Severity",
    # fault tolerance
    "FaultModel",
    "FaultyExecutionResult",
    "execute_with_faults",
    "recover",
    "RecoveryResult",
    "execute_plan_with_faults",
    # survivability
    "survive",
    "diagnose_survival",
    "validate_survival",
    "SurvivalResult",
    "SurvivalDiagnosis",
    # exceptions
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "TreeError",
    "LabelingError",
    "ScheduleError",
    "ScheduleConflictError",
    "ModelViolationError",
    "IncompleteGossipError",
    "ScheduleLintError",
    "MessageClassError",
    "SimulationError",
    "UnknownTimelineRowError",
    "RecoveryExhaustedError",
    "PlanTimeoutError",
    "PartitionedNetworkError",
    "SurvivorSetError",
    "CircuitOpenError",
]
