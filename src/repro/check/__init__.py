"""Execution-free verification of the runtime: model checking + code lint.

Two prongs, one discipline (see ``docs/ALGORITHM.md`` §21):

* :mod:`repro.check.model` / :mod:`repro.check.explore` — an
  explicit-state model checker that exhaustively explores adversarial
  interleavings of an abstract model of the runtime peer state machines
  for small ``n``, checking the protocol's safety invariants and
  reachability properties; :mod:`repro.check.replay` pins the model to
  the real code by replaying recorded runtime transcripts through it.
* :mod:`repro.check.codelint` — the repository's AST conventions lint
  (``cli lint --code``) plus concurrency dataflow rules for the
  service/runtime layers.
"""

from __future__ import annotations

from .explore import (
    Counterexample,
    ExplorationReport,
    FamilyCheck,
    check_family,
    check_matrix,
    explore,
    parse_family_spec,
    render_trace,
)
from .model import (
    Action,
    ModelState,
    PeerView,
    ProtocolModel,
    SentRecord,
    Token,
    check_rejoin,
    render_token,
)

__all__ = [
    "Action",
    "Counterexample",
    "ExplorationReport",
    "FamilyCheck",
    "ModelState",
    "PeerView",
    "ProtocolModel",
    "SentRecord",
    "Token",
    "check_family",
    "check_matrix",
    "check_rejoin",
    "explore",
    "parse_family_spec",
    "render_token",
    "render_trace",
]
