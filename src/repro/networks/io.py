"""Serialisation of graphs, trees and schedules.

Plain-text edge lists for interop with classic graph tooling, and a JSON
envelope that round-trips a whole gossip artefact (network + tree +
schedule) so benchmark outputs can be archived and re-validated later
without re-running the construction.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..core.schedule import Schedule
from ..exceptions import GraphError, ScheduleConflictError, ScheduleError
from ..tree.tree import Tree
from .graph import Graph

__all__ = [
    "graph_to_edgelist",
    "graph_from_edgelist",
    "graph_to_json",
    "graph_from_json",
    "tree_to_json",
    "tree_from_json",
    "schedule_to_json",
    "schedule_from_json",
]


def graph_to_edgelist(graph: Graph) -> str:
    """Classic whitespace edge list; first line is ``n m``."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def graph_from_edgelist(text: str, name: str = "") -> Graph:
    """Parse the :func:`graph_to_edgelist` format.

    Malformed text raises :class:`~repro.exceptions.GraphError`: no
    ``n m`` header, a field that is not an integer, a line that is not
    one ``u v`` pair, an edge count that disagrees with the header, or
    an edge :class:`Graph` rejects.
    """
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise GraphError("edge list must start with a 'n m' header line")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
        edges = [(int(u), int(v)) for u, v in rows[1:]]
    except ValueError as exc:
        raise GraphError(f"edge list does not parse: {exc}") from exc
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges but {len(edges)} found")
    return Graph(n, edges, name=name)


def graph_to_json(graph: Graph) -> str:
    """JSON envelope: ``{"n", "name", "edges"}``."""
    return json.dumps(
        {"n": graph.n, "name": graph.name, "edges": graph.edge_list()}
    )


def graph_from_json(text: str) -> Graph:
    """Parse the :func:`graph_to_json` envelope.

    Malformed input raises :class:`~repro.exceptions.GraphError`: text
    that is not JSON, an envelope that is not an object with ``n`` and
    ``edges``, or a network :class:`Graph` rejects.
    """
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"graph JSON does not parse: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    return Graph(data["n"], data["edges"], name=data.get("name", ""))


def tree_to_json(tree: Tree) -> str:
    """JSON envelope: parent array + root + explicit child order."""
    return json.dumps(
        {
            "parents": list(tree.parents()),
            "root": tree.root,
            "children": [list(tree.children(v)) for v in range(tree.n)],
            "name": tree.name,
        }
    )


def tree_from_json(text: str) -> Tree:
    """Parse the :func:`tree_to_json` envelope, restoring child order."""
    data = json.loads(text)
    order = {v: list(kids) for v, kids in enumerate(data["children"])}
    return Tree(
        data["parents"],
        root=data["root"],
        child_order=lambda v, kids: order[v],
        name=data.get("name", ""),
    )


def schedule_to_json(schedule: Schedule) -> str:
    """JSON envelope: rounds as ``[[message, sender, [dests]], ...]``."""
    rounds: List[List[List[Any]]] = [[] for _ in range(schedule.total_time)]
    for t, sender, message, dests in schedule.sends():
        rounds[t].append([message, sender, list(dests)])
    return json.dumps({"name": schedule.name, "rounds": rounds})


def _is_id(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def schedule_from_json(text: str) -> Schedule:
    """Parse the :func:`schedule_to_json` envelope.

    The processor count is inferred as the largest sender or destination
    id plus one.  Malformed input raises
    :class:`~repro.exceptions.ScheduleError` (a
    :class:`~repro.exceptions.ScheduleConflictError` for a processor
    listed twice as a sender in one round): text that is not JSON, an
    envelope without a ``rounds`` list, a row that is not
    ``[message, sender, [destinations]]`` of integers, a negative id or
    an empty destination list.
    """
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise ScheduleError(f"schedule JSON does not parse: {exc}") from exc
    rounds = data.get("rounds") if isinstance(data, dict) else None
    name = data.get("name", "") if isinstance(data, dict) else ""
    if not isinstance(rounds, list) or not isinstance(name, str):
        raise ScheduleError(
            "schedule JSON must be an object with a 'rounds' list and a string 'name'"
        )
    sends = []
    for t, rnd in enumerate(rounds):
        if not isinstance(rnd, list):
            raise ScheduleError(f"schedule JSON round {t} is not a list")
        senders: Dict[int, int] = {}
        for row in rnd:
            if not (
                isinstance(row, list) and len(row) == 3
                and _is_id(row[0]) and _is_id(row[1])
                and isinstance(row[2], list) and all(_is_id(d) for d in row[2])
            ):
                raise ScheduleError(
                    f"schedule JSON round {t}: {row!r} is not "
                    "[message, sender, [destinations]] of integers"
                )
            message, sender, dests = row
            if min(message, sender, *dests) < 0:
                raise ScheduleError(f"schedule JSON round {t}: negative id in {row!r}")
            if not dests:
                raise ScheduleError(
                    f"transmission of message {message} from {sender} "
                    "has an empty destination set"
                )
            if sender in senders:
                raise ScheduleConflictError(
                    f"processor {sender} sends two messages in one round: "
                    f"{senders[sender]} and {message}"
                )
            senders[sender] = message
            sends.append((t, sender, message, dests))
    n = max((v for _, s, _, ds in sends for v in (s, *ds)), default=-1) + 1
    return Schedule.from_sends(sends, n=n, name=name)
