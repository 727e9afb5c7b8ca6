"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run.  See ``perfbench/README.md``.

Every measurement happens in fresh interpreters started from this
process (``workloads.py``): ``setup_s`` is the median, over several of
them, of the wall time from process start to the first timed op.  The
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.pycache_prefix = str(OUT / "pycache")

from harness import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for setup_s (the measuring one included).
SETUP_STARTS = 3
#: Everything, fresh starts included, must end within this many seconds.
DEADLINE_S = 170.0


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ChildFailed(RuntimeError):
    pass


def start_child(args: argparse.Namespace, role: str, deadline: float
                ) -> Tuple[float, float, List[str]]:
    """Run one fresh interpreter; return (setup seconds, import seconds, lines)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Bytecode of every module the child imports is cached under OUT, so
    # the run writes nowhere else and only the first start compiles.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, str(HERE / "workloads.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    begin = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    setup_s: Optional[float] = None
    import_s = 0.0
    lines: List[str] = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if setup_s is None and line.startswith("READY "):
                setup_s = perf_counter() - begin
                import_s = float(line.split()[1])
            else:
                lines.append(line.rstrip("\n"))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or setup_s is None:
        raise ChildFailed(f"{role} child exited with {proc.returncode}")
    return setup_s, import_s, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    setups: List[float] = []
    imports: List[float] = []
    try:
        for _ in range(SETUP_STARTS - 1):
            setup_s, import_s, _ = start_child(args, "setup", deadline)
            setups.append(setup_s)
            imports.append(import_s)
        setup_s, import_s, lines = start_child(args, "measure", deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    imports.append(import_s)

    results = [line for line in lines if line.startswith("RESULT ")]
    if len(results) != 1:
        print("perfbench: the measuring child printed no result", file=sys.stderr)
        return 1
    child = json.loads(results[0][len("RESULT "):])
    metrics: Dict[str, float] = dict(child["metrics"])
    info = [line[len("INFO "):] for line in lines if line.startswith("INFO ")]
    if args.trace:
        metrics["import.repro_s"] = median(imports)
    else:
        metrics["setup_s"] = median(setups)
    info.insert(0, f"setup_s over {len(setups)} fresh starts: "
                   + ", ".join(f"{s:.3f}" for s in setups)
                   + f" s; import.repro_s median {median(imports):.3f} s")
    if args.workload == "net":
        info.append("net runs over loopback UDP, not a real link")

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)}, declared {sorted(units)}",
              file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in info:
        print(f"  {line}")
    for name in sorted(metrics):
        print(f"  {name:<30} {metrics[name]:>14.6g} {units[name]}")
    print(f"  attempted={child['attempted']} failed={child['failed']}")
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
