"""Randomized epidemic gossip — push, pull, and push-pull baselines.

The paper's rivals (Simple, UpDown, telephone) are deterministic tree
schedules; this module adds the other half of the gossip literature as
first-class registry algorithms: seeded random *push* (every round each
processor forwards a random held rumour to random neighbours), *pull*
(each processor asks a random neighbour for a rumour it lacks) and
*push-pull* fanout gossip, in the style of the demand/anti-entropy
protocols the related-work snippets model (DistributedExercisesAAU,
PeerConnect push-gossip).

Everything is expressed in the paper's round-based multicasting model so
the existing engines execute the output unchanged:

* one send per processor per round, one receive per processor per round
  — colliding pushes are *resolved at generation time* (a seeded random
  intent order; losers are simply not scheduled, the rumor-mongering
  analogue of a busy callee);
* a multicast may target up to ``fanout`` neighbours at once (the
  multicasting model's advantage over telephone gossip);
* deliveries land one round after sending (receive-before-send).

Determinism is the load-bearing property, exactly as in
:mod:`repro.simulator.lossy`: every coin flip flows through the
splitmix64 streams of :mod:`repro.core.rng`, keyed by
``(seed, tag, round, vertex)``, so a run is a pure function of its seed
(codelint rule 6, ``repro.check.codelint``, bans any other randomness
source here).

Two execution styles:

* :func:`epidemic_schedule` — generate the *fault-free* transcript as a
  plain :class:`~repro.core.schedule.Schedule`; this is what the
  registered algorithms (``epidemic-push``, ``epidemic-pull``,
  ``epidemic-push-pull``) return, so ``gossip(g, algorithm=...)``,
  the simulator, the linter and the lossy/chaos engines all consume
  epidemic output like any deterministic schedule.
* :func:`run_epidemic` — the *online* protocol under a seeded
  :class:`~repro.simulator.lossy.FaultModel`: round decisions read the
  actual (faulty) possession state, which is where epidemic redundancy
  earns its keep.  The returned transcript replayed through
  :func:`~repro.simulator.lossy.execute_with_faults` under the same
  model lands in the identical final state (property-tested) — the
  online run and the lossy engine agree on what happened.

TTL semantics: ``ttl=k`` keeps a rumour *hot* (eligible for pushing)
for ``k`` rounds after its first arrival, after which the vertex stops
volunteering it — the classic rumour-death knob.  Pull responses ignore
TTL (anti-entropy repairs cold rumours); ``ttl=None`` (default) never
cools, which is what the completeness properties rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from ..exceptions import ReproError
from ..networks.builders import tree_to_graph
from ..networks.graph import Graph
from ..simulator.lossy import FaultModel
from ..tree.labeling import LabeledTree
from .gossip import register_algorithm
from .rng import SplitMix64, keyed_u64
from .schedule import Schedule

__all__ = [
    "EpidemicResult",
    "EPIDEMIC_VARIANTS",
    "run_epidemic",
    "epidemic_schedule",
    "default_epidemic_horizon",
]

_P = TypeVar("_P")

#: The supported protocol variants.
EPIDEMIC_VARIANTS = ("push", "pull", "push-pull")

#: Seed the registry entries use (``gossip(g, algorithm="epidemic-*")``
#: must be deterministic with no way to pass a seed through the
#: registry signature; use :func:`epidemic_schedule` for seeded runs).
REGISTRY_SEED = 7

# Domain-separation tags (disjoint from the lossy-model tags so one
# seed can drive both the protocol and its fault injection).
_TAG_PUSH_MSG = 0xE41
_TAG_PUSH_DEST = 0xE42
_TAG_PULL_PEER = 0xE43
_TAG_PULL_SERVE = 0xE44
_TAG_ORDER = 0xE45


def default_epidemic_horizon(n: int) -> int:
    """Default round budget: generous w.r.t. the O(n²) completion scale.

    Pull and push-pull complete in O(n) rounds, but *push* with uniform
    random rumour selection degenerates to an O(n²) random walk on
    path-like networks (a held rumour is re-pushed with probability
    ``1/|holds|`` per round), with a heavy tail on top — measured worst
    case ≈ 7·n² rounds on ``caterpillar:16``.  The cap is a comfortable
    multiple of that, so hitting it is evidence of a disconnected
    network or a cooled-off (finite-TTL) rumour, not bad luck.
    """
    return max(256, 32 * n * n)


def _nth_bit(mask: int, index: int) -> int:
    """The ``index``-th (0-based, ascending) set bit of ``mask``."""
    for _ in range(index):
        mask &= mask - 1
    low = mask & -mask
    return low.bit_length() - 1


def _random_bit(rng: SplitMix64, mask: int) -> int:
    """A uniformly random set bit of a non-zero ``mask``."""
    return _nth_bit(mask, rng.randrange(mask.bit_count()))


def _resolve_receivers(
    intents: Sequence[Tuple[int, _P, Tuple[int, ...]]], rng: SplitMix64
) -> List[Tuple[int, _P, Tuple[int, ...]]]:
    """One-receive-per-processor conflict resolution.

    A seeded random intent order decides contested receivers; losing
    destinations are trimmed (the multicast shrinks) and emptied intents
    are dropped.  Shared by the epidemic and coded engines so both play
    by the identical model rules.
    """
    claimed = 0
    kept: List[Tuple[int, _P, Tuple[int, ...]]] = []
    for idx in rng.sample(range(len(intents)), len(intents)):
        sender, payload, dests = intents[idx]
        live = tuple(d for d in dests if not (claimed >> d) & 1)
        if not live:
            continue
        for d in live:
            claimed |= 1 << d
        kept.append((sender, payload, live))
    return kept


def _surviving_destinations(
    model: FaultModel, t: int, sender: int, dests: Sequence[int]
) -> Tuple[Optional[List[int]], int]:
    """Apply the lossy-model hazards of one multicast.

    Returns ``(survivors, lost)``; ``survivors is None`` means the send
    itself was suppressed (sender fail-stopped or crashed).  The checks
    are :meth:`FaultModel.send_fault` and :meth:`FaultModel.delivery_fault`,
    the ones :func:`repro.simulator.lossy.execute_with_faults` makes, so
    an online run and a transcript replay under the same model consume
    the same coordinate-keyed draws and agree on every outcome.
    """
    if model.send_fault(t, sender):
        return None, 0
    survivors = [d for d in dests if not model.delivery_fault(t, sender, d)]
    return survivors, len(dests) - len(survivors)


@dataclass(frozen=True)
class EpidemicResult:
    """Everything observable about one epidemic run.

    ``schedule`` is the transcript of *attempted* multicasts — a
    model-valid :class:`~repro.core.schedule.Schedule` (replayable on
    the fault-free engine, or on
    :func:`~repro.simulator.lossy.execute_with_faults` under the same
    ``model`` to reproduce this exact outcome).  Counts are attempt-side
    (``deliveries``) and outcome-side (``delivered`` / ``lost`` /
    ``duplicate_deliveries``).
    """

    variant: str
    seed: int
    complete: bool
    rounds: int
    schedule: Schedule
    completion_times: Tuple[Optional[int], ...]
    messages_sent: int
    deliveries: int
    delivered: int
    lost: int
    duplicate_deliveries: int
    suppressed_sends: int
    final_holds: Tuple[int, ...]

    @property
    def completion_round(self) -> Optional[int]:
        """Latest per-vertex completion time (``None`` when incomplete)."""
        if not self.complete:
            return None
        return max(t for t in self.completion_times if t is not None)

    @property
    def redundancy(self) -> float:
        """Fraction of successful deliveries that were duplicates."""
        return self.duplicate_deliveries / self.delivered if self.delivered else 0.0


def run_epidemic(
    graph: Graph,
    *,
    variant: str = "push-pull",
    seed: int = 0,
    fanout: int = 1,
    ttl: Optional[int] = None,
    max_rounds: Optional[int] = None,
    messages: Optional[Sequence[int]] = None,
    model: Optional[FaultModel] = None,
) -> EpidemicResult:
    """Run the online epidemic protocol and return its transcript.

    Parameters
    ----------
    graph:
        The communication network (any connected or disconnected graph;
        completeness is only guaranteed on connected ones).
    variant:
        ``"push"``, ``"pull"`` or ``"push-pull"``.
    seed:
        Root seed — the run is a pure function of it (plus the model's).
    fanout:
        Maximum multicast width of a push (pull responses are unicast).
    ttl:
        Rounds a rumour stays push-eligible after first arrival
        (``None`` = forever; see module docstring).
    max_rounds:
        Round budget (default :func:`default_epidemic_horizon`).
    messages:
        Message id originated by each vertex (default: identity).  Pass
        DFS labels to run in label space like the tree algorithms.
    model:
        Optional seeded fault model; decisions then read the *faulty*
        possession state (the online protocol), and the transcript
        records attempts while the counters record outcomes.

    hot-loop-ok: the round loop is the protocol itself (decisions are
    data-dependent coin flips per vertex) — this module is a baseline,
    not a planner hot path.
    """
    if variant not in EPIDEMIC_VARIANTS:
        raise ReproError(
            f"unknown epidemic variant {variant!r}; choose from {EPIDEMIC_VARIANTS}"
        )
    if fanout < 1:
        raise ReproError(f"fanout must be >= 1, got {fanout}")
    if ttl is not None and ttl < 1:
        raise ReproError(f"ttl must be >= 1 or None, got {ttl}")
    n = graph.n
    origin = list(range(n)) if messages is None else [int(m) for m in messages]
    if len(origin) != n:
        raise ReproError(
            f"messages has {len(origin)} entries for n={n} processors"
        )
    full = (1 << n) - 1
    holds: List[int] = [0] * n
    for v, m in enumerate(origin):
        if not 0 <= m < n:
            raise ReproError(f"vertex {v} originates out-of-range message {m}")
        holds[v] |= 1 << m
    cap = default_epidemic_horizon(n) if max_rounds is None else max_rounds
    if cap < 0:
        raise ReproError(f"max_rounds must be >= 0, got {cap}")

    null_model = model is None or model.is_null
    do_push = variant in ("push", "push-pull")
    do_pull = variant in ("pull", "push-pull")
    # hot_expiry[v][m] = first round at which m is no longer pushable.
    hot_expiry: Optional[List[Dict[int, int]]] = None
    if ttl is not None:
        hot_expiry = [{origin[v]: ttl} for v in range(n)]

    completion: List[Optional[int]] = [0 if holds[v] == full else None for v in range(n)]
    sends: List[Tuple[int, int, int, Tuple[int, ...]]] = []
    pending: List[Tuple[int, int, int]] = []  # (receiver, sender, message)
    messages_sent = deliveries = delivered = lost = duplicates = suppressed = 0

    t = 0
    while True:
        # Receive-before-send: land last round's surviving deliveries.
        for receiver, _sender, message in pending:
            bit = 1 << message
            if holds[receiver] & bit:
                duplicates += 1
            else:
                holds[receiver] |= bit
                if hot_expiry is not None and ttl is not None:
                    hot_expiry[receiver][message] = t + ttl
                if holds[receiver] == full and completion[receiver] is None:
                    completion[receiver] = t
            delivered += 1
        pending = []
        if all(h == full for h in holds) or t >= cap:
            break

        # ------------------------------------------------------------------
        # Intent formation (one candidate multicast per vertex).
        # ------------------------------------------------------------------
        intents: List[Tuple[int, int, Tuple[int, ...]]] = []
        served: Dict[int, Tuple[int, int]] = {}  # responder -> (requester, msg)
        if do_pull:
            requests: Dict[int, List[int]] = {}
            for v in range(n):
                neigh = graph.neighbors(v)
                if not neigh or holds[v] == full:
                    continue  # a complete vertex has nothing left to pull
                rng = SplitMix64(keyed_u64(seed, _TAG_PULL_PEER, t, v))
                requests.setdefault(rng.choice(neigh), []).append(v)
            for u, askers in requests.items():
                rng = SplitMix64(keyed_u64(seed, _TAG_PULL_SERVE, t, u))
                for w in rng.sample(askers, len(askers)):
                    useful = holds[u] & ~holds[w]
                    if useful:
                        served[u] = (w, _random_bit(rng, useful))
                        break
        for v in range(n):
            if v in served:
                # A pull response wins the vertex's one send this round:
                # it is demand-driven, so never wasted.
                w, m = served[v]
                intents.append((v, m, (w,)))
                continue
            if not do_push:
                continue
            eligible = holds[v]
            if hot_expiry is not None:
                hot = 0
                for m, expiry in hot_expiry[v].items():
                    if t < expiry:
                        hot |= 1 << m
                eligible &= hot
            neigh = graph.neighbors(v)
            if not eligible or not neigh:
                continue
            rng = SplitMix64(keyed_u64(seed, _TAG_PUSH_MSG, t, v))
            m = _random_bit(rng, eligible)
            dest_rng = SplitMix64(keyed_u64(seed, _TAG_PUSH_DEST, t, v))
            intents.append((v, m, tuple(dest_rng.sample(neigh, fanout))))

        # ------------------------------------------------------------------
        # Conflict resolution: one receive per processor per round.  A
        # seeded random intent order decides contested receivers; losing
        # destinations are trimmed (the multicast shrinks), empty
        # intents are dropped entirely.
        # ------------------------------------------------------------------
        order_rng = SplitMix64(keyed_u64(seed, _TAG_ORDER, t))
        resolved = _resolve_receivers(intents, order_rng)
        for sender, m, dests in resolved:
            sends.append((t, sender, m, dests))
            messages_sent += 1
            deliveries += len(dests)
            if null_model:
                survivors: Optional[Sequence[int]] = dests
            else:
                assert model is not None
                survivors, lost_here = _surviving_destinations(model, t, sender, dests)
                lost += lost_here
            if survivors is None:
                suppressed += 1
                continue
            for d in survivors:
                pending.append((d, sender, m))
        t += 1

    name = f"Epidemic-{variant}(seed={seed})"
    return EpidemicResult(
        variant=variant,
        seed=seed,
        complete=all(h == full for h in holds),
        rounds=t,
        schedule=Schedule.from_sends(sends, n=n, name=name),
        completion_times=tuple(completion),
        messages_sent=messages_sent,
        deliveries=deliveries,
        delivered=delivered,
        lost=lost,
        duplicate_deliveries=duplicates,
        suppressed_sends=suppressed,
        final_holds=tuple(holds),
    )


def epidemic_schedule(
    graph: Graph,
    *,
    variant: str = "push-pull",
    seed: int = 0,
    fanout: int = 1,
    ttl: Optional[int] = None,
    max_rounds: Optional[int] = None,
    messages: Optional[Sequence[int]] = None,
) -> Schedule:
    """The fault-free epidemic transcript as a plain schedule.

    Raises :class:`~repro.exceptions.ReproError` if the run does not
    complete within the round budget (a disconnected network, or a
    finite TTL that let every copy of some rumour cool off).
    """
    result = run_epidemic(
        graph,
        variant=variant,
        seed=seed,
        fanout=fanout,
        ttl=ttl,
        max_rounds=max_rounds,
        messages=messages,
    )
    if not result.complete:
        raise ReproError(
            f"epidemic {variant} gossip did not complete within "
            f"{result.rounds} rounds (disconnected network or expired TTL)"
        )
    return result.schedule


def _tree_epidemic(labeled: LabeledTree, variant: str) -> Schedule:
    """Registry adapter: epidemic gossip on the spanning tree, DFS labels.

    The registry contract hands algorithms the labelled spanning tree
    only, so the registered epidemic variants gossip over *tree* edges
    in label space (like every deterministic algorithm); use
    :func:`epidemic_schedule` / :func:`run_epidemic` directly to unleash
    the protocol on the full network.
    """
    return epidemic_schedule(
        tree_to_graph(labeled.tree),
        variant=variant,
        seed=REGISTRY_SEED,
        messages=labeled.labels(),
    )


@register_algorithm("epidemic-push")
def epidemic_push(labeled: LabeledTree) -> Schedule:
    """Seeded random push gossip on the labelled spanning tree."""
    return _tree_epidemic(labeled, "push")


@register_algorithm("epidemic-pull")
def epidemic_pull(labeled: LabeledTree) -> Schedule:
    """Seeded random pull (anti-entropy) gossip on the labelled spanning tree."""
    return _tree_epidemic(labeled, "pull")


@register_algorithm("epidemic-push-pull")
def epidemic_push_pull(labeled: LabeledTree) -> Schedule:
    """Seeded random push-pull gossip on the labelled spanning tree."""
    return _tree_epidemic(labeled, "push-pull")
