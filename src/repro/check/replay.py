"""Conformance replay: pin the abstract model to the real runtime.

The model checker's guarantees are only as good as the model's fidelity,
so this module closes the loop the other way: it *runs the real thing*
over localhost UDP under a seeded
:class:`~repro.runtime.transport.NetChaos` profile — on either runtime
host: :func:`repro.runtime.runner.run_gossip_network` (peers as asyncio
tasks) or :func:`repro.runtime.supervisor.run_gossip_processes` (peers
as OS processes, also the rejoin path) — then replays the same scenario
through :class:`~repro.check.model.ProtocolModel` and demands *exact*
state agreement:

* the recorded phase-1 transcript must equal the model's emitted
  multicast set, record for record;
* the recorded hold bitsets, death set, completion flag, and round
  count must equal the model's quiescent state;
* for kill runs, the recorded survival transcript must be a
  possession-respecting completion of the model's abort state, landing
  exactly on the recorded final holds;
* for supervised rejoin runs, the model's rejoin contract
  (:func:`~repro.check.model.check_rejoin`) must certify the recovery
  the supervisor actually performed.

Drops, delays and duplicates vanish into the model's delivery-order
abstraction — a lossy seeded run must still conform exactly, which is
precisely the claim that the reliability layer implements exactly-once
ordered-per-round delivery.  Any divergence is rendered as a mismatch
string; an empty report means the recording and the model agree.

``python -m repro.check.replay`` replays the whole corpus on the process
host, one fleet at a time, and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.gossip import GossipPlan, gossip
from ..core.recovery import _tree_adjacency
from ..exceptions import ProtocolCheckError
from ..runtime.clock import ScaledClock
from ..runtime.peer import RuntimeConfig, TranscriptEntry
from ..runtime.runner import run_gossip_network
from ..runtime.supervisor import (
    RestartPolicy,
    RuntimeResult,
    run_gossip_processes,
)
from ..runtime.transport import NetChaos
from .model import ModelState, ProtocolModel, check_rejoin

__all__ = [
    "ConformanceCase",
    "ConformanceReport",
    "canonical_quiescent",
    "default_cases",
    "replay_case",
    "replay_rejoin",
    "replay_result",
    "run_conformance",
]

#: Runtime knobs for conformance runs: aggressive retransmit, a failure
#: detector slow enough that lossy links are never falsely accused, and
#: deadlines far above anything a small fleet needs.
CONFORMANCE_CONFIG = dict(
    ack_timeout=0.02,
    heartbeat_interval=0.25,
    fail_after=1.5,
    round_timeout=30.0,
    run_timeout=240.0,
)

#: Virtual-clock scale per runtime host: every wait above shrinks 10x
#: in wall time for in-process peers, 4x for peer processes (whose
#: event loops share the host's cores with every other peer's).
HOST_SCALES = {"network": 0.1, "processes": 0.25}


@dataclass(frozen=True)
class ConformanceCase:
    """One seeded scenario: a family spec plus a chaos profile."""

    name: str
    spec: str
    seed: int
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_max: float = 0.02
    kill: Tuple[Tuple[int, int], ...] = ()

    def chaos(self) -> NetChaos:
        return NetChaos(
            seed=self.seed,
            drop_rate=self.drop_rate,
            delay_rate=self.delay_rate,
            delay_max=self.delay_max,
            kill=self.kill,
        )


@dataclass
class ConformanceReport:
    """Outcome of replaying one recorded run through the model."""

    case: ConformanceCase
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def canonical_quiescent(model: ProtocolModel) -> ModelState:
    """One deterministic maximal run of the model (deliver-first order).

    The model is confluent (the explorer certifies as much), so any
    schedule reaches the same quiescent state; the canonical one
    delivers the least in-flight token when possible, else steps the
    least enabled peer.  A violation along this run means the *model*
    found a protocol bug while replaying — that is an exploration
    matter, so it surfaces as :class:`ProtocolCheckError` here.
    """
    state = model.initial()
    while True:
        enabled = model.enabled(state)
        if not enabled:
            kind, violations = model.classify_quiescent(state)
            if violations:
                raise ProtocolCheckError(
                    f"canonical replay reached an invalid {kind} state: "
                    f"{violations[0]}"
                )
            return state
        state, violations = model.apply(state, enabled[0])
        if violations:
            raise ProtocolCheckError(
                f"canonical replay hit a model violation: {violations[0]}"
            )


def _records(entries: Sequence[TranscriptEntry]) -> List[Tuple[int, int, int, Tuple[int, ...]]]:
    return sorted(
        (e.round, e.sender, e.message, tuple(sorted(e.destinations)))
        for e in entries
    )


def _apply_survival(
    holds: List[int],
    entries: Sequence[TranscriptEntry],
    dead: Sequence[int],
) -> List[str]:
    """Execute a recorded survival transcript over model holds, strictly.

    Receives land at the end of each round, so a message may only be
    relayed a round after it arrived — the same possession discipline
    the online phase enforces.
    """
    problems: List[str] = []
    by_round: Dict[int, List[TranscriptEntry]] = {}
    for entry in entries:
        by_round.setdefault(entry.round, []).append(entry)
    buried = set(dead)
    for rnd in sorted(by_round):
        landed: List[Tuple[int, int]] = []
        for entry in by_round[rnd]:
            if entry.sender in buried or buried & set(entry.destinations):
                problems.append(
                    f"survival round {rnd}: recorded transmission touches a "
                    f"dead peer ({entry.sender} -> "
                    f"{sorted(entry.destinations)})"
                )
            if not holds[entry.sender] >> entry.message & 1:
                problems.append(
                    f"survival round {rnd}: peer {entry.sender} relays "
                    f"message {entry.message} without holding it at the "
                    f"model's abort state"
                )
            for d in entry.destinations:
                landed.append((d, entry.message))
        for d, message in landed:
            holds[d] |= 1 << message
    return problems


def replay_result(
    plan: GossipPlan,
    result: RuntimeResult,
    *,
    kill: Tuple[Tuple[int, int], ...] = (),
) -> List[str]:
    """Replay one recorded runtime result through the model; return diffs."""
    model = ProtocolModel(plan, crash=kill)
    final = canonical_quiescent(model)
    mismatches: List[str] = []

    model_transcript = sorted(
        (r.round, r.sender, r.message, r.destinations) for r in final.sent
    )
    real_transcript = _records(result.transcript)
    if model_transcript != real_transcript:
        missing = [r for r in model_transcript if r not in real_transcript]
        extra = [r for r in real_transcript if r not in model_transcript]
        mismatches.append(
            f"phase-1 transcript diverges: runtime is missing "
            f"{missing[:3]}, runtime adds {extra[:3]}"
        )

    model_dead = tuple(
        v for v, p in enumerate(final.peers) if p.died_at is not None
    )
    if tuple(sorted(result.dead)) != model_dead:
        mismatches.append(
            f"death sets diverge: runtime buried {sorted(result.dead)}, "
            f"model {list(model_dead)}"
        )

    model_complete = not model_dead
    if bool(result.complete) != model_complete:
        mismatches.append(
            f"completion diverges: runtime complete={result.complete}, "
            f"model complete={model_complete}"
        )

    horizon = model.horizon
    model_rounds = max(
        (
            horizon if p.done else p.t
            for v, p in enumerate(final.peers)
            if p.died_at is None
        ),
        default=0,
    )
    if result.rounds_completed != model_rounds:
        mismatches.append(
            f"round counts diverge: runtime completed "
            f"{result.rounds_completed} rounds, model {model_rounds}"
        )

    holds = [p.holds for p in final.peers]
    if kill:
        mismatches.extend(
            _apply_survival(holds, result.survival_transcript, model_dead)
        )
    if list(result.final_holds) != holds:
        diverging = [
            v for v, (a, b) in enumerate(zip(result.final_holds, holds))
            if a != b
        ]
        mismatches.append(
            f"hold bitsets diverge at peers {diverging}: runtime "
            f"{[hex(h) for h in result.final_holds]}, model "
            f"{[hex(h) for h in holds]}"
        )
    return mismatches


def replay_case(
    case: ConformanceCase, *, host: str = "network"
) -> ConformanceReport:
    """Record one seeded run on ``host`` and replay it through the model.

    ``host`` is ``"network"`` (:func:`run_gossip_network`) or
    ``"processes"`` (:func:`run_gossip_processes`).
    """
    plan = gossip(case.spec)
    chaos = case.chaos()
    config = RuntimeConfig(seed=case.seed, **CONFORMANCE_CONFIG)
    scale = HOST_SCALES[host]
    if host == "processes":
        result: RuntimeResult = run_gossip_processes(
            plan, chaos=chaos, config=config, time_scale=scale
        )
    else:
        result = run_gossip_network(
            plan, chaos=chaos, config=config, clock=ScaledClock(scale)
        )
    return ConformanceReport(
        case=case, mismatches=replay_result(plan, result, kill=case.kill)
    )


def replay_rejoin(
    spec: str,
    seed: int,
    victim: int,
    round_: int,
    *,
    time_scale: float = 0.25,
) -> ConformanceReport:
    """Record a supervised SIGKILL + restart-with-rejoin run; replay it.

    The supervised path loses the victim's own phase-1 snapshot (the
    process is SIGKILLed), reconstructs its holds from the truncated
    offline schedule, resyncs from its first live tree neighbour, and
    scripts a repair-round completion.  The replay mirrors each step
    from the model's abort state: the surviving transcript, the
    supervisor's deterministic resync-source choice, the possession
    discipline of the recorded repair rounds, and re-completion inside
    the ``4n + 16`` budget — while :func:`check_rejoin` certifies that
    the contract would have held for *any* source choice.
    """
    case = ConformanceCase(
        f"{spec}/rejoin@{round_}", spec, seed,
        kill=((victim, round_),),
    )
    plan = gossip(spec)
    result = run_gossip_processes(
        plan,
        chaos=NetChaos(seed=seed, sigkill=((victim, round_),)),
        config=RuntimeConfig(
            seed=seed,
            heartbeat_interval=0.25,
            fail_after=1.5,
            round_timeout=60.0,
            run_timeout=600.0,
        ),
        policy=RestartPolicy(mode="restart", max_restarts=3),
        time_scale=time_scale,
    )
    model = ProtocolModel(plan, crash=case.kill)
    final = canonical_quiescent(model)
    mismatches: List[str] = []

    if result.mode != "rejoin" or not result.complete:
        mismatches.append(
            f"supervised run resolved as mode={result.mode!r} "
            f"complete={result.complete}, expected a completed rejoin"
        )
        return ConformanceReport(case=case, mismatches=mismatches)

    # Phase 1: the runtime's transcript is the model's minus the
    # victim's sends (SIGKILL destroys the victim's snapshot).
    model_transcript = sorted(
        (r.round, r.sender, r.message, r.destinations)
        for r in final.sent if r.sender != victim
    )
    if model_transcript != _records(result.transcript):
        mismatches.append(
            "surviving phase-1 transcript diverges from the model's "
            "abort-state transcript"
        )

    # Rejoin: mirror the supervisor's resolution from the model state.
    holds = [p.holds for p in final.peers]
    adjacency = _tree_adjacency(plan.tree)
    source = next(u for u in adjacency[victim] if u != victim)
    holds[victim] = (1 << model.labels[victim]) | holds[source]
    mismatches.extend(
        _apply_survival(holds, result.survival_transcript, dead=())
    )
    if list(result.final_holds) != holds:
        mismatches.append(
            f"post-rejoin holds diverge: runtime "
            f"{[hex(h) for h in result.final_holds]}, model "
            f"{[hex(h) for h in holds]}"
        )
    full = (1 << model.n) - 1
    if any(h != full for h in holds):
        mismatches.append("model replay of the rejoin did not re-complete")
    budget = 4 * model.n + 16
    if result.survival_rounds > budget:
        mismatches.append(
            f"recorded repair took {result.survival_rounds} rounds, over "
            f"the {budget} budget"
        )
    mismatches.extend(check_rejoin(model, final))
    return ConformanceReport(case=case, mismatches=mismatches)


def default_cases() -> List[ConformanceCase]:
    """The committed conformance corpus: ≥50 seeded scenarios.

    Per family instance: one clean run, one lossy run (drops force the
    retransmit path), one reordering run (delays force out-of-order
    delivery), and one kill run (crash-at-round; the victim is chosen
    so the survivors stay connected).  Seeds are all distinct so every
    recording exercises a different chaos draw sequence.
    """
    instances: List[Tuple[str, int]] = [
        ("path:3", 2), ("path:4", 3), ("path:5", 4), ("path:6", 5),
        ("star:4", 3), ("star:5", 4), ("star:6", 5),
        ("complete:4", 3), ("complete:5", 4),
        ("cycle:5", 2), ("cycle:6", 3),
        ("grid:9", 8),
    ]
    cases: List[ConformanceCase] = []
    seed = 100
    for spec, victim in instances:
        seed += 1
        cases.append(ConformanceCase(f"{spec}/clean", spec, seed))
        seed += 1
        cases.append(
            ConformanceCase(f"{spec}/drop", spec, seed, drop_rate=0.12)
        )
        seed += 1
        cases.append(
            ConformanceCase(
                f"{spec}/delay", spec, seed, delay_rate=0.3, delay_max=0.05
            )
        )
        seed += 1
        cases.append(
            ConformanceCase(
                f"{spec}/kill", spec, seed, kill=((victim, 1),)
            )
        )
    for spec, victim, rnd in [("grid:9", 0, 0), ("cycle:6", 2, 2),
                              ("complete:5", 1, 3)]:
        seed += 1
        cases.append(
            ConformanceCase(
                f"{spec}/kill@{rnd}", spec, seed, kill=((victim, rnd),)
            )
        )
    return cases


def run_conformance(
    cases: Optional[Sequence[ConformanceCase]] = None,
    *,
    host: str = "network",
) -> List[ConformanceReport]:
    """Replay every case on ``host``; reports in corpus order."""
    chosen = default_cases() if cases is None else list(cases)
    return [replay_case(case, host=host) for case in chosen]


def main() -> int:
    """Replay the whole corpus on the process host; 1 on any mismatch."""
    reports = run_conformance(host="processes")
    for r in reports:
        verdict = "ok" if r.ok else "; ".join(r.mismatches)
        print(f"{r.case.name} (seed {r.case.seed}): {verdict}")
    failed = sum(not r.ok for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} cases replay exactly "
          f"on the process host")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
