"""Measurement primitives of the benchmark: percentiles, spans, fingerprint.

Nothing here imports ``repro``; the workloads (``workloads.py``) and the
orchestrator (``run.py``) build on these helpers.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The tail is the highest nearest-rank percentile that still leaves at
#: least this many samples beyond it.
TAIL_BEYOND = 10

#: Fewest samples in one window of a timed run (see ``windows``).  The
#: host flips between fast and slow phases that last seconds: a median
#: or tail taken over a whole run jumps to whichever phase held most of
#: it, or to its rarest stalls, while the mean over windows moves in
#: proportion to the share of the run spent slow, as a throughput does.
WINDOW_OPS = 100

#: A timed run interleaves the host reference at most this often.
REFERENCE_EVERY_S = 0.5
#: What :func:`host_reference` takes at the nominal host speed: its median
#: on the 2-core x86_64 Xeon host the benchmark was written on.  It only
#: fixes the scale of the host-scaled timings; it must never change.
REFERENCE_NOMINAL_S = 0.012


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def host_reference() -> int:
    """A fixed piece of pure-Python work that times the host.

    The host this benchmark runs on is shared: its speed drifts by tens of
    per cent over seconds to minutes, and a run's absolute timings move with
    it.  Timed between the ops of the same run, this work slows with them,
    so ``host_scale`` can take the drift back out.  It mixes the kinds of
    work the workloads do (integer arithmetic, tuple-keyed dicts, strings,
    small objects, sorts), since each kind feels a busy neighbour
    differently.  The garbage collector is off while it runs, or its time
    would depend on the workload's heap.
    """
    gc.disable()
    try:
        total = 0
        for i in range(30000):
            total += i * i % 7
        table = {}
        for i in range(4000):
            table[(i % 97, i // 97)] = [i, i * i % 1009]
        total += sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))[0][1][0]
        names = {(i, i & 7): [i, str(i)] for i in range(4000)}
        total += sorted(names, key=lambda k: -k[0])[0][0]
        pairs = [_Pair(i, i % 13) for i in range(3000)]
        groups: Dict[int, List[int]] = {}
        for pair in pairs:
            groups.setdefault(pair.value, []).append(pair.key)
        return total + len(groups) + sorted(pairs, key=lambda q: (q.value, -q.key))[0].key
    finally:
        gc.enable()


def host_scale(reference_s: Sequence[float], cpu_share: float) -> float:
    """How much slower than nominal the host ran the timed ops.

    ``reference_s`` are the durations of :func:`host_reference` taken during
    the run; ``cpu_share`` is the share of the ops' wall time the process
    spent on CPU.  Only that share slows with the host: the rest is waiting
    on timers and sockets.  Divide a duration, or multiply a rate, by the
    result to express it at the nominal host speed.
    """
    if not reference_s:
        raise ValueError("no reference timings")
    slow = sum(reference_s) / len(reference_s) / REFERENCE_NOMINAL_S
    return 1.0 + min(max(cpu_share, 0.0), 1.0) * (slow - 1.0)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The value at 1-based rank ``ceil(q / 100 * N)`` of the sorted data:
    always one of the samples, never an interpolation.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} is outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (the p50 the benchmark reports)."""
    return nearest_rank(values, 50.0)


def windows(passes: Sequence[Sequence[float]], min_ops: int = WINDOW_OPS
            ) -> List[List[float]]:
    """Cut a run's samples, given pass by pass, into windows of whole passes.

    Each window is the fewest consecutive passes that hold at least
    ``min_ops`` samples; a shorter remainder joins the last window, and a
    run with fewer samples than that is one window.  Every pass holds the
    same mix of inputs, so every window does too.
    """
    cut: List[List[float]] = []
    current: List[float] = []
    for samples in passes:
        current.extend(samples)
        if len(current) >= min_ops:
            cut.append(current)
            current = []
    if current:
        if cut:
            cut[-1].extend(current)
        else:
            cut.append(current)
    return cut


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest nearest-rank percentile with ``beyond`` samples past it.

    Returns ``(value, percentile, samples)``.  With ``N`` samples the
    chosen rank is ``N - beyond``, i.e. the ``beyond + 1``-th largest
    sample, and its percentile is ``100 * (N - beyond) / N`` — the
    smallest ``q`` whose nearest rank is that sample.  Fewer than
    ``beyond + 1`` samples cannot support a tail.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond a tail")
    ordered = sorted(values)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer: ``[start, end]`` seconds, nested by parent."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """In-memory span recorder for one thread.

    ``span(name)`` nests under whichever span is open; ``op`` is the id
    every span of one benchmark operation shares.  Nothing is written
    until :meth:`dump` is called at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, perf_counter(), 0.0,
                      self._open[-1] if self._open else None, self.op)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self) -> List[Dict[str, object]]:
        """The spans as JSON-ready records, each with its self time."""
        selfs = self_times(self.spans)
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "self": selfs[i]}
            for i, s in enumerate(self.spans)
        ]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: List[float] = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_self_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time (seconds) per layer, the prefix of a span's name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def fingerprint() -> Dict[str, object]:
    """Interpreter, library versions and CPU count printed with every result."""
    versions: Dict[str, object] = {"python": platform.python_version()}
    for mod in ("numpy", "scipy", "networkx"):
        module = sys.modules.get(mod)
        versions[mod] = getattr(module, "__version__", "not imported")
    versions["nproc"] = os.cpu_count()
    versions["machine"] = platform.machine()
    return versions
