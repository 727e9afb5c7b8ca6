"""Core algorithms: the paper's schedule constructions and baselines.

* :mod:`~repro.core.schedule` — the communication-schedule data model;
* :mod:`~repro.core.concurrent_updown` — the main contribution
  (Theorem 1, ``n + r`` rounds) built from
  :mod:`~repro.core.propagate_up` and :mod:`~repro.core.propagate_down`;
* :mod:`~repro.core.simple` — Lemma 1's ``2n + r - 3`` baseline;
* :mod:`~repro.core.updown` — the reconstructed two-phase predecessor;
* :mod:`~repro.core.ring` / :mod:`~repro.core.broadcast` — the Section 1/2
  special cases;
* :mod:`~repro.core.store_forward` — policy-driven greedy/telephone
  baselines;
* :mod:`~repro.core.gossip` — the end-to-end network pipeline;
* :mod:`~repro.core.recovery` — repair scheduling for lossy executions
  (the fault-tolerance layer over :mod:`repro.simulator.lossy`);
* :mod:`~repro.core.survival` — degraded gossip among the survivors of
  permanent fail-stop crashes and severed links;
* :mod:`~repro.core.epidemic` / :mod:`~repro.core.coded` — the
  randomized half of the field: seeded push/pull/push-pull epidemic
  gossip and GF(2) algebraic (network-coded) gossip baselines.
"""

from .ablations import concurrent_updown_no_lip, no_lip_penalty, propagate_up_no_lip
from .broadcast import broadcast, broadcast_time, telephone_broadcast
from .coded import (
    CodedPacket,
    CodedResult,
    RankTracker,
    run_coded_gossip,
    systematic_coded_schedule,
)
from .concurrent_updown import concurrent_updown, concurrent_updown_on_tree
from .epidemic import (
    EPIDEMIC_VARIANTS,
    EpidemicResult,
    epidemic_schedule,
    run_epidemic,
)
from .gossip import (
    ALGORITHMS,
    GossipPlan,
    NetworkSpec,
    gossip,
    gossip_on_tree,
    register_algorithm,
    resolve_network,
)
from .online import OnlineProcessor, online_matches_offline, run_online_gossip
from .optimal import is_gossipable_within, minimum_gossip_time, optimal_schedule
from .optimal_path import optimal_path_gossip, optimal_path_time
from .propagate_down import propagate_down
from .propagate_up import propagate_up
from .recovery import (
    REPAIR_POLICIES,
    RecoveryResult,
    execute_plan_with_faults,
    plan_repair_rounds,
    recover,
)
from .repeated import RepeatedGossipPlan, minimal_pipeline_offset, repeated_gossip
from .ring import hamiltonian_circuit, ring_gossip, ring_gossip_on_graph
from .survival import (
    ComponentPlan,
    SurvivalDiagnosis,
    SurvivalResult,
    diagnose_survival,
    survive,
    survivor_coverage,
    validate_survival,
)
from .schedule import Round, Schedule, Transmission, merge_schedules
from .simple import simple_gossip, simple_gossip_on_tree, simple_total_time
from .store_forward import (
    GreedyMulticastPolicy,
    UpDownTreePolicy,
    greedy_gossip_on_graph,
    greedy_multicast_gossip,
    greedy_updown_gossip,
    store_forward_schedule,
    telephone_gossip,
    telephone_gossip_on_graph,
)
from .updown import updown_gossip, updown_gossip_on_tree, updown_total_time_bound
from .weighted import WeightedGossipPlan, expand_weighted_tree, weighted_gossip

__all__ = [
    "Transmission",
    "Round",
    "Schedule",
    "merge_schedules",
    "concurrent_updown",
    "concurrent_updown_on_tree",
    "propagate_up",
    "propagate_down",
    "simple_gossip",
    "simple_gossip_on_tree",
    "simple_total_time",
    "updown_gossip",
    "updown_gossip_on_tree",
    "updown_total_time_bound",
    "ring_gossip",
    "ring_gossip_on_graph",
    "hamiltonian_circuit",
    "broadcast",
    "broadcast_time",
    "telephone_broadcast",
    "no_lip_penalty",
    "concurrent_updown_no_lip",
    "propagate_up_no_lip",
    "run_online_gossip",
    "online_matches_offline",
    "OnlineProcessor",
    "minimum_gossip_time",
    "is_gossipable_within",
    "optimal_schedule",
    "optimal_path_gossip",
    "optimal_path_time",
    "repeated_gossip",
    "minimal_pipeline_offset",
    "RepeatedGossipPlan",
    "recover",
    "RecoveryResult",
    "execute_plan_with_faults",
    "plan_repair_rounds",
    "REPAIR_POLICIES",
    "survive",
    "diagnose_survival",
    "validate_survival",
    "survivor_coverage",
    "SurvivalDiagnosis",
    "SurvivalResult",
    "ComponentPlan",
    "weighted_gossip",
    "expand_weighted_tree",
    "WeightedGossipPlan",
    "greedy_updown_gossip",
    "gossip",
    "gossip_on_tree",
    "GossipPlan",
    "ALGORITHMS",
    "register_algorithm",
    "resolve_network",
    "NetworkSpec",
    "store_forward_schedule",
    "GreedyMulticastPolicy",
    "UpDownTreePolicy",
    "greedy_multicast_gossip",
    "greedy_gossip_on_graph",
    "telephone_gossip",
    "telephone_gossip_on_graph",
    "run_epidemic",
    "epidemic_schedule",
    "EpidemicResult",
    "EPIDEMIC_VARIANTS",
    "run_coded_gossip",
    "systematic_coded_schedule",
    "RankTracker",
    "CodedPacket",
    "CodedResult",
]
