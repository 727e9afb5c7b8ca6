"""AST conventions + concurrency lint for ``src/repro`` (stdlib only).

The repository's conventions gate (``python -m repro.cli lint --code``
runs :func:`main`).  The original seven rules:

1. **Typed exceptions** — every ``raise SomeException(...)`` must use an
   exception defined by the library (all of which derive from
   ``ReproError``), never a bare builtin.  Bare ``raise`` re-raises are
   always fine.
2. **No ``bin(x).count("1")``** — popcounts use ``int.bit_count()``.
3. **Keyword-only public API calls** — calls to ``gossip`` /
   ``gossip_on_tree`` pass at most one positional argument and
   ``.execute()`` method calls pass none.  The signatures enforce this
   at run time (``TypeError``); the rule catches it without running or
   type-checking the code.
4. **No Python loops in core hot paths** — the schedule-construction
   modules build schedules as flat numpy arrays; loops are only allowed
   under a justified ``hot-loop-ok`` docstring marker (the per-vertex
   reference emitters live outside these modules, in
   ``core/reference.py``).
5. **Clock discipline in the runtime** — every time-dependent call goes
   through the injectable :class:`repro.runtime.clock.Clock`.
6. **Seeded randomness in the randomized baselines** — all draws flow
   through the splitmix64 streams of ``repro.core.rng``.
7. **Process discipline in the runtime** — only ``supervisor.py`` and
   ``proc.py`` may touch process machinery.

New concurrency dataflow rules (this module):

8. **Lock-guarded attributes stay under the lock** (``service/``) — an
   attribute of a class that is ever *written or mutated* inside a
   ``with self._lock`` block (outside ``__init__``) is lock-guarded;
   any access to it outside a with-lock block in a non-``__init__``
   method is a race.  Reads of immutable references assigned only in
   ``__init__`` are deliberately not guarded — the rule keys on writes,
   which is what the lock exists to serialise.
9. **No ``await`` while holding a lock** (``runtime/``) — suspending
   inside ``with``/``async with`` on a lock-ish attribute lets another
   task interleave on the protected state (or deadlock on the same
   lock).
10. **Supervisor pipe protocol ordering** (``supervisor.py`` /
    ``proc.py``) — within one function, control-pipe sends of the
    rendezvous tags must follow HELLO → ADDRS → START; a child hears
    its address book before the start gun, never after.
11. **No blocking calls in async functions** (``runtime/``) — a
    ``connection.recv()`` / socket ``accept``/``sendall`` /
    ``time.sleep`` / ``select.select`` inside an ``async def`` stalls
    the whole event loop.

Plus one repository-hygiene rule, checked when run from the repo root:

12. **No tracked compiled artifacts** — ``git ls-files`` must list no
    ``*.pyc`` / ``__pycache__`` entries.

And one import-cost rule:

13. **Heavy dependencies load lazily** — no module-level ``import
    networkx`` / ``import scipy`` (or ``from`` either) anywhere in
    ``src/repro``; together they about double ``import repro``'s time
    and memory for a few interop and analysis helpers.  Imports inside
    function bodies and ``if TYPE_CHECKING:`` blocks are fine.

Exit status: 0 when clean, 1 with one ``file:line: message`` per
violation on stdout::

    python -m repro.cli lint --code                   # the whole package
    python -m repro.check.codelint                    # the same
    python -m repro.check.codelint src/repro/service  # narrower scope
"""

from __future__ import annotations

import ast
import builtins
import pathlib
import subprocess
import sys
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

__all__ = [
    "Violation",
    "check_file",
    "collect_violations",
    "main",
    "tracked_artifact_violations",
]

#: Public API callables whose calls must be keyword-only past the first
#: positional argument (functions) or past zero (methods).
KEYWORD_ONLY_FUNCTIONS = {"gossip": 1, "gossip_on_tree": 1}
KEYWORD_ONLY_METHODS = {"execute": 0}

#: ``core/`` modules where Python-level loops are banned (vectorised
#: schedule construction) unless explicitly exempted.
HOT_PATH_MODULES = {
    "propagate_up.py",
    "propagate_down.py",
    "concurrent_updown.py",
}

#: Docstring marker exempting one function from the hot-path loop rule.
HOT_LOOP_MARKER = "hot-loop-ok"

#: ``module.attr`` calls forbidden in ``src/repro/runtime`` outside
#: ``clock.py`` (the injectable-clock discipline, rule 5).
BARE_CLOCK_CALLS = {
    ("asyncio", "sleep"),
    ("asyncio", "wait_for"),
    ("time", "time"),
    ("time", "monotonic"),
}

#: ``core/`` modules whose randomness must come from ``repro.core.rng``
#: (rule 6): any mention of the stdlib ``random`` / ``numpy.random``
#: modules is forbidden.
SEEDED_RNG_MODULES = {
    "epidemic.py",
    "coded.py",
    "rng.py",
}

#: Runtime modules allowed to touch process machinery (rule 7): the
#: supervision tree's own two halves.
PROCESS_MODULES = {"supervisor.py", "proc.py"}

#: Module imports forbidden in the rest of ``src/repro/runtime``.
PROCESS_IMPORTS = ("multiprocessing", "signal")

#: ``os.<attr>`` calls forbidden there for the same reason.
PROCESS_OS_CALLS = {"fork", "forkpty", "kill", "killpg"}

#: Method calls that mutate a container in place (rule 8: a call like
#: ``self._inflight.pop(key)`` under the lock marks ``_inflight`` as
#: lock-guarded just as an assignment would).
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
})

#: Control-pipe rendezvous tags in protocol order (rule 10).
PIPE_PROTOCOL_ORDER = {"HELLO": 0, "ADDRS": 1, "START": 2}

#: Callable names that put a tuple on a control pipe (rule 10).
PIPE_SEND_NAMES = {"send", "_send", "_broadcast", "_safe_send", "report"}

#: Top-level packages that may not be imported at module level (rule 13).
LAZY_IMPORTS = ("networkx", "scipy")

#: Method names that block the calling thread (rule 11).
BLOCKING_METHODS = frozenset({
    "accept", "connect", "listen", "recv", "recv_bytes", "sendall",
})

#: ``module.attr`` calls that block the calling thread (rule 11).
BLOCKING_MODULE_CALLS = {("time", "sleep"), ("select", "select")}

Violation = Tuple[pathlib.Path, int, str]


def _builtin_exception_names() -> FrozenSet[str]:
    return frozenset(
        name
        for name in dir(builtins)
        if isinstance(getattr(builtins, name), type)
        and issubclass(getattr(builtins, name), BaseException)
    )


BUILTIN_EXCEPTIONS = _builtin_exception_names()


def _raised_name(node: ast.Raise) -> str:
    """The name being raised, or '' for bare/complex raises."""
    exc = node.exc
    if exc is None:
        return ""  # bare re-raise
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return ""  # attribute raises (module.Error) are library-defined


def _is_hot_path(path: pathlib.Path) -> bool:
    return path.name in HOT_PATH_MODULES and path.parent.name == "core"


def _needs_clock_discipline(path: pathlib.Path) -> bool:
    return path.parent.name == "runtime" and path.name != "clock.py"


def _needs_seeded_rng(path: pathlib.Path) -> bool:
    return path.name in SEEDED_RNG_MODULES and path.parent.name == "core"


def _needs_process_discipline(path: pathlib.Path) -> bool:
    return path.parent.name == "runtime" and path.name not in PROCESS_MODULES


def _needs_lock_discipline(path: pathlib.Path) -> bool:
    return path.parent.name == "service"


def _needs_async_discipline(path: pathlib.Path) -> bool:
    return path.parent.name == "runtime"


def _needs_pipe_discipline(path: pathlib.Path) -> bool:
    return path.name in PROCESS_MODULES and path.parent.name == "runtime"


def _process_violations(
    path: pathlib.Path, node: ast.AST
) -> Iterator[Violation]:
    """Rule 7: process machinery only in supervisor.py / proc.py."""
    message = (
        "process machinery outside the supervision tree; spawning or "
        "signalling belongs in repro.runtime.supervisor / proc so every "
        "death is detected, journaled, and resolved"
    )
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] in PROCESS_IMPORTS:
                yield (path, node.lineno, message)
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module.split(".")[0] in PROCESS_IMPORTS:
            yield (path, node.lineno, message)
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in PROCESS_OS_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            yield (path, node.lineno, message)


def _seeded_rng_violations(
    path: pathlib.Path, node: ast.AST
) -> Iterator[Violation]:
    """Rule 6: no stdlib/numpy randomness in the randomized baselines."""
    message = (
        "unseeded randomness source in a randomized-baseline module; "
        "use the splitmix64 streams in repro.core.rng"
    )
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("numpy.random"):
                yield (path, node.lineno, message)
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module == "random" or module.startswith("numpy.random"):
            yield (path, node.lineno, message)
        elif module == "numpy" and any(a.name == "random" for a in node.names):
            yield (path, node.lineno, message)
    elif (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in {"np", "numpy"}
    ):
        yield (path, node.lineno, message)


def _hot_loop_violations(
    path: pathlib.Path, scope: ast.AST, exempt: bool
) -> Iterator[Violation]:
    """Flag ``for``/``while`` under ``scope`` unless exempted.

    Exemption is per *function* — a ``hot-loop-ok`` docstring marker —
    and extends to functions nested inside an exempt one.
    """
    for node in ast.iter_child_nodes(scope):
        child_exempt = exempt
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node) or ""
            child_exempt = exempt or HOT_LOOP_MARKER in doc
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)) and not exempt:
            yield (
                path,
                node.lineno,
                "Python loop in a core hot path; vectorise it, or justify "
                f"a '{HOT_LOOP_MARKER}' marker in the function's docstring",
            )
        yield from _hot_loop_violations(path, node, child_exempt)


def _check_clock_call(path: pathlib.Path, node: ast.Call) -> Iterator[Violation]:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and (func.value.id, func.attr) in BARE_CLOCK_CALLS
    ):
        yield (
            path,
            node.lineno,
            f"bare {func.value.id}.{func.attr}() in the runtime; route it "
            "through the injectable Clock (repro.runtime.clock) so the "
            "ScaledClock test double still governs every wait",
        )


def _check_call(path: pathlib.Path, node: ast.Call) -> Iterator[Violation]:
    func = node.func
    # bin(x).count(...) — the pre-bit_count popcount idiom
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "count"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "bin"
    ):
        yield (
            path,
            node.lineno,
            'popcount via bin(x).count("1"); use int.bit_count()',
        )
    # keyword-only public API calls
    if isinstance(func, ast.Name) and func.id in KEYWORD_ONLY_FUNCTIONS:
        limit = KEYWORD_ONLY_FUNCTIONS[func.id]
        if len(node.args) > limit:
            yield (
                path,
                node.lineno,
                f"{func.id}() called with {len(node.args)} positional "
                f"arguments; everything after the first is keyword-only",
            )
    elif isinstance(func, ast.Attribute) and func.attr in KEYWORD_ONLY_METHODS:
        limit = KEYWORD_ONLY_METHODS[func.attr]
        if len(node.args) > limit:
            yield (
                path,
                node.lineno,
                f".{func.attr}() called with positional arguments; "
                f"its options are keyword-only",
            )


# ---------------------------------------------------------------------------
# Rule 8: lock-guarded attributes (service/)
# ---------------------------------------------------------------------------

def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_expr(node: ast.expr) -> bool:
    """Whether a with-item context expression is a lock-ish self attribute."""
    attr = _self_attr(node)
    if attr is None and isinstance(node, ast.Call):
        # with self._lock.acquire_timeout(...) style wrappers
        attr = _self_attr(node.func)
    return attr is not None and "lock" in attr.lower()


class _Access:
    """One touch of ``self.X``: where, whether under a lock, write or read."""

    __slots__ = ("attr", "lineno", "locked", "write")

    def __init__(self, attr: str, lineno: int, locked: bool, write: bool) -> None:
        self.attr = attr
        self.lineno = lineno
        self.locked = locked
        self.write = write


def _scan_accesses(node: ast.AST, locked: bool, out: List[_Access]) -> None:
    """Record every self-attribute access under ``node``, lock-aware."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        inner = locked or any(
            _is_lock_expr(item.context_expr) for item in node.items
        )
        for child in ast.iter_child_nodes(node):
            _scan_accesses(child, inner, out)
        return
    attr = _self_attr(node)
    if attr is not None:
        assert isinstance(node, ast.Attribute)
        write = isinstance(node.ctx, (ast.Store, ast.Del))
        out.append(_Access(attr, node.lineno, locked, write))
    if isinstance(node, ast.Subscript) and isinstance(
        node.ctx, (ast.Store, ast.Del)
    ):
        target = _self_attr(node.value)
        if target is not None:
            out.append(_Access(target, node.lineno, locked, True))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATING_METHODS:
            target = _self_attr(node.func.value)
            if target is not None:
                out.append(_Access(target, node.lineno, locked, True))
    for child in ast.iter_child_nodes(node):
        _scan_accesses(child, locked, out)


def _lock_guard_violations(
    path: pathlib.Path, tree: ast.Module
) -> Iterator[Violation]:
    """Rule 8: attributes written under ``self._lock`` never escape it."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        accesses: Dict[str, List[_Access]] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out: List[_Access] = []
            for stmt in method.body:
                _scan_accesses(stmt, False, out)
            accesses[method.name] = out
        guarded: Set[str] = set()
        for name, touches in accesses.items():
            if name == "__init__":
                continue
            for access in touches:
                if access.write and access.locked and "lock" not in access.attr.lower():
                    guarded.add(access.attr)
        for name, touches in sorted(accesses.items()):
            if name == "__init__":
                continue
            for access in touches:
                if access.attr in guarded and not access.locked:
                    yield (
                        path,
                        access.lineno,
                        f"self.{access.attr} is lock-guarded (written under "
                        f"the lock elsewhere in {cls.name}) but touched "
                        f"outside a with-lock block in {name}(); hold the "
                        f"lock for every access",
                    )


# ---------------------------------------------------------------------------
# Rule 9: no await while holding a lock (runtime/)
# ---------------------------------------------------------------------------

def _await_under_lock(node: ast.AST, locked: bool) -> Iterator[int]:
    if isinstance(node, (ast.With, ast.AsyncWith)):
        locked = locked or any(
            _is_lock_expr(item.context_expr) for item in node.items
        )
    elif isinstance(node, ast.Await) and locked:
        yield node.lineno
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # A nested function body runs later, under its own locks.
        return
    for child in ast.iter_child_nodes(node):
        yield from _await_under_lock(child, locked)


def _await_lock_violations(
    path: pathlib.Path, tree: ast.Module
) -> Iterator[Violation]:
    """Rule 9: suspending inside a with-lock block invites interleaving."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        for stmt in node.body:
            for lineno in _await_under_lock(stmt, False):
                yield (
                    path,
                    lineno,
                    "await while holding a lock; another task can interleave "
                    "on the lock-protected state (or deadlock on the same "
                    "lock) — release the lock before suspending",
                )


# ---------------------------------------------------------------------------
# Rule 10: supervisor pipe protocol ordering (supervisor.py / proc.py)
# ---------------------------------------------------------------------------

def _pipe_sends(func: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield (lineno, TAG) for control-pipe tuple sends under ``func``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = ""
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name not in PIPE_SEND_NAMES or not node.args:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Tuple) and arg.elts:
                head = arg.elts[0]
                if isinstance(head, ast.Name) and head.id in PIPE_PROTOCOL_ORDER:
                    yield (node.lineno, head.id)
                break


def _pipe_order_violations(
    path: pathlib.Path, tree: ast.Module
) -> Iterator[Violation]:
    """Rule 10: within one function, HELLO → ADDRS → START, never back."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        sends = sorted(_pipe_sends(node))
        high = ""
        for lineno, tag in sends:
            if high and PIPE_PROTOCOL_ORDER[tag] < PIPE_PROTOCOL_ORDER[high]:
                yield (
                    path,
                    lineno,
                    f"control-pipe send of {tag} after {high} in "
                    f"{node.name}(); the rendezvous protocol is "
                    f"HELLO → ADDRS → START — a child must hear its "
                    f"address book before the start gun",
                )
            if not high or PIPE_PROTOCOL_ORDER[tag] > PIPE_PROTOCOL_ORDER[high]:
                high = tag


# ---------------------------------------------------------------------------
# Rule 11: no blocking calls in async functions (runtime/)
# ---------------------------------------------------------------------------

def _blocking_calls(node: ast.AST) -> Iterator[Tuple[int, str]]:
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        return  # sync helper bodies run elsewhere (threads/executors)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if (
            isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in BLOCKING_MODULE_CALLS
        ):
            yield (node.lineno, f"{func.value.id}.{func.attr}")
        elif func.attr in BLOCKING_METHODS:
            yield (node.lineno, f".{func.attr}")
    for child in ast.iter_child_nodes(node):
        yield from _blocking_calls(child)


def _blocking_async_violations(
    path: pathlib.Path, tree: ast.Module
) -> Iterator[Violation]:
    """Rule 11: blocking I/O inside ``async def`` stalls the event loop."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        for stmt in node.body:
            for lineno, name in _blocking_calls(stmt):
                yield (
                    path,
                    lineno,
                    f"blocking call {name}() inside an async function stalls "
                    f"the event loop; use the asyncio transport APIs or hand "
                    f"it to an executor",
                )


# ---------------------------------------------------------------------------
# Rule 12: no tracked compiled artifacts
# ---------------------------------------------------------------------------

def tracked_artifact_violations(
    root: Optional[pathlib.Path] = None,
) -> List[Violation]:
    """Rule 12: ``git ls-files`` lists no ``*.pyc`` / ``__pycache__``."""
    where = root if root is not None else pathlib.Path(".")
    if not (where / ".git").exists():
        return []
    try:
        listing = subprocess.run(
            ["git", "ls-files"],
            cwd=where,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return []  # no git — nothing to audit
    violations: List[Violation] = []
    for name in listing.splitlines():
        if name.endswith(".pyc") or "__pycache__" in name.split("/"):
            violations.append((
                where / name,
                0,
                "compiled artifact tracked by git; `git rm --cached` it "
                "and keep __pycache__/ in .gitignore",
            ))
    return violations


# ---------------------------------------------------------------------------
# Rule 13: heavy dependencies load lazily
# ---------------------------------------------------------------------------

def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``."""
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _import_time_nodes(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Statements run at import time: skips function bodies and
    ``if TYPE_CHECKING:`` blocks, descends into everything else."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            yield from _import_time_nodes(stmt.orelse)
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _import_time_nodes(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _import_time_nodes(handler.body)


def _lazy_import_violations(
    path: pathlib.Path, tree: ast.Module
) -> Iterator[Violation]:
    """Rule 13: no module-level ``networkx`` / ``scipy`` import."""
    for node in _import_time_nodes(tree.body):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top in LAZY_IMPORTS:
                yield (
                    path,
                    node.lineno,
                    f"module-level import of {top}; import it inside the "
                    f"function that needs it (or under TYPE_CHECKING for "
                    f"annotations) so `import repro` stays light",
                )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def check_file(path: pathlib.Path) -> Iterator[Violation]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if _is_hot_path(path):
        yield from _hot_loop_violations(path, tree, exempt=False)
    if _needs_lock_discipline(path):
        yield from _lock_guard_violations(path, tree)
    if _needs_async_discipline(path):
        yield from _await_lock_violations(path, tree)
        yield from _blocking_async_violations(path, tree)
    if _needs_pipe_discipline(path):
        yield from _pipe_order_violations(path, tree)
    yield from _lazy_import_violations(path, tree)
    for node in ast.walk(tree):
        if _needs_seeded_rng(path):
            yield from _seeded_rng_violations(path, node)
        if _needs_process_discipline(path):
            yield from _process_violations(path, node)
        if isinstance(node, ast.Raise):
            name = _raised_name(node)
            if name in BUILTIN_EXCEPTIONS:
                yield (
                    path,
                    node.lineno,
                    f"raises builtin {name}; raise a ReproError subclass "
                    f"from repro.exceptions instead",
                )
        elif isinstance(node, ast.Call):
            yield from _check_call(path, node)
            if _needs_clock_discipline(path):
                yield from _check_clock_call(path, node)


def collect_violations(roots: List[pathlib.Path]) -> List[Violation]:
    """Every violation under ``roots`` (files or directories)."""
    violations: List[Violation] = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            violations.extend(check_file(path))
    return violations


#: The installed package directory (``src/repro`` in a checkout).
PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1]


def main(argv: List[str]) -> int:
    """Lint ``argv`` (files or directories; default: the whole package)
    plus the tracked-artifact audit of the checkout holding it."""
    roots = [pathlib.Path(a) for a in argv] or [PACKAGE_ROOT]
    violations = collect_violations(roots)
    violations.extend(tracked_artifact_violations(PACKAGE_ROOT.parents[1]))
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"\n{len(violations)} convention violation(s)")
        return 1
    print("conventions: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
