"""PLANNER — cold-plan latency of the pruned + batched sweep vs the O(mn) sweep.

The claim behind the fast-planner subsystem: the preprocessing stage
(Section 3.1's n BFS traversals) can be replaced by a double-sweep
seeded, cutoff-pruned, bit-parallel sweep that returns a *bit-identical*
minimum-depth spanning tree at a fraction of the cost.  Measured across
topology families and sizes:

* exhaustive vs pruned sweep wall-clock and the speedup ratio,
* cold end-to-end plan latency through :func:`repro.core.gossip.gossip`
  and its ratio to the pruned sweep alone,
* the bit-identical gate (same root, parents, and child order) on every
  benchmarked network,
* the >= 3x speedup gate on ``grid:400``-class graphs,
* the cold-plan gate (``plan_cold_s`` within ``COLD_MAX_RATIO``x of the
  pruned sweep on gate networks) plus the all-families schedule-identity
  sweep (array pipeline vs seed builder, round for round).

Runs three ways:

* under pytest(-benchmark) with the rest of the suite — records rows in
  the reproduction summary;
* standalone: ``python benchmarks/bench_planner.py --check`` exits
  non-zero unless both gates hold (wired into tier-1 via
  ``tests/analysis/test_planner_check.py``).  It writes nothing unless
  asked: ``--update`` rewrites the committed ``BENCH_planner.json`` at
  the repo root so successive changes can compare the trajectory, and
  ``--json PATH`` writes the same artefact elsewhere;
* by hand through ``python -m repro.cli plan-bench``.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis.planner_bench import (
    COLD_MAX_RATIO,
    DEFAULT_SPECS,
    MIN_SPEEDUP,
    QUICK_SPECS,
    run_planner_bench,
)

#: Where the perf-trajectory artefact lives (committed at the repo root).
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_planner.json"


def run(*, quick: bool = False, repeats: int = 3):
    """The standard sweep (or the tier-1 ``--quick`` subset)."""
    return run_planner_bench(
        QUICK_SPECS if quick else DEFAULT_SPECS, repeats=repeats
    )


def test_planner_speedup(benchmark, report):
    """Pruned sweep: bit-identical trees, gated speedup, recorded rows."""
    result = benchmark.pedantic(run, kwargs={"quick": True}, iterations=1, rounds=1)
    for cell in result.cells:
        report.row(
            network=cell.spec,
            n=cell.n,
            radius=cell.radius,
            exhaustive_ms=f"{cell.exhaustive_s * 1e3:.1f}",
            pruned_ms=f"{cell.pruned_s * 1e3:.1f}",
            speedup=f"{cell.speedup:.1f}x",
            cold_ratio=f"{cell.cold_ratio:.2f}x",
            identical=cell.identical,
        )
    result.check()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless trees are bit-identical, the "
             f">= {MIN_SPEEDUP:.0f}x grid:400 speedup gate and the "
             f"<= {COLD_MAX_RATIO:.0f}x cold-plan gate hold, and array "
             "schedules match the seed builder on every family",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="benchmark the small tier-1 subset instead of the full sweep",
    )
    parser.add_argument("--repeats", type=int, default=3)
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--update", action="store_true",
        help="rewrite the committed trajectory artefact BENCH_planner.json",
    )
    output.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the trajectory artefact to PATH instead",
    )
    args = parser.parse_args(argv)

    result = run(quick=args.quick, repeats=args.repeats)
    print(result.format())
    target = str(ARTIFACT) if args.update else args.json
    if target:
        result.write_json(target)
        print(f"wrote {target}")
    if args.check:
        try:
            result.check()
        except AssertionError as err:
            print(f"CHECK FAILED: {err}")
            return 1
        print(
            "check: bit-identical trees, identical schedules, and "
            "planner speedup + cold-plan gates hold  OK"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
