"""Tier-1 smoke: the planner benchmark's ``--check`` gates hold.

Runs ``benchmarks/bench_planner.py --check --quick`` and
``python -m repro.cli plan-bench --check`` the same way CI does
(standalone processes), asserting the bit-identical-tree, >= 3x
``grid:400`` speedup, and <= ``COLD_MAX_RATIO``x cold-plan gates plus
the all-families schedule-identity sweep and the ``BENCH_planner.json``
trajectory artefact (including its ``cold_gate`` block, written to a
temporary path so a test run never rewrites the committed file), and exercises
:func:`repro.analysis.planner_bench.run_planner_bench` in-process for
coverage of both entry points.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.planner_bench import (
    COLD_MAX_RATIO,
    GATE_MIN_N,
    MIN_SPEEDUP,
    run_planner_bench,
)
from repro.exceptions import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_planner.py"

CHECK_OK = (
    "check: bit-identical trees, identical schedules, and "
    "planner speedup + cold-plan gates hold  OK"
)


def _run(cmd):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        cwd=str(REPO_ROOT),
    )


def test_benchmark_check_mode_passes_and_writes_artifact(tmp_path):
    artefact = tmp_path / "BENCH_planner.json"
    proc = _run([
        sys.executable, str(BENCH), "--check", "--quick", "--json", str(artefact),
    ])
    assert proc.returncode == 0, (
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert CHECK_OK in proc.stdout
    assert artefact.exists()
    payload = json.loads(artefact.read_text())
    assert payload["benchmark"] == "planner"
    assert payload["gate"]["min_speedup"] == MIN_SPEEDUP
    cold_gate = payload["cold_gate"]
    assert cold_gate["max_ratio"] == COLD_MAX_RATIO
    assert cold_gate["measured"], "no gated cell recorded a cold ratio"
    assert all(r > 0 for r in cold_gate["measured"].values())
    enforced = cold_gate["enforced"]
    assert enforced, "no cell enforces the cold-plan ratio gate"
    assert all(
        cold_gate["measured"][spec] <= COLD_MAX_RATIO for spec in enforced
    )
    assert cold_gate["schedule_identity"]["families"] >= 21
    assert cold_gate["schedule_identity"]["identical"] is True
    cells = payload["cells"]
    assert any(c["gated"] for c in cells)
    assert all(c["identical"] for c in cells)
    assert all(c["cold_ratio"] > 0 for c in cells)


def test_cli_plan_bench_check_passes(tmp_path):
    artefact = tmp_path / "BENCH_planner.json"
    proc = _run([
        sys.executable, "-m", "repro.cli", "plan-bench",
        "--spec", "grid:400", "--spec", "path:128",
        "--repeats", "1", "--check", "--json", str(artefact),
    ])
    assert proc.returncode == 0, (
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert CHECK_OK in proc.stdout
    payload = json.loads(artefact.read_text())
    assert [c["spec"] for c in payload["cells"]] == ["grid:400", "path:128"]
    assert payload["cold_gate"]["schedule_identity"]["identical"] is True


class TestInProcessBench:
    def test_cells_and_gates(self):
        report = run_planner_bench(("grid:400", "star:64"), repeats=1)
        assert [c.spec for c in report.cells] == ["grid:400", "star:64"]
        gate = report.cells[0]
        assert gate.gated and gate.cold_gated and gate.n == GATE_MIN_N
        assert not report.cells[1].gated and not report.cells[1].cold_gated
        assert all(c.identical for c in report.cells)
        assert all(c.cold_ratio == c.plan_cold_s / c.pruned_s for c in report.cells)
        assert len(report.schedule_identity) >= 21
        report.check()  # bit-identical + speedup + cold-plan + identity gates

    def test_check_requires_a_gate_network(self):
        report = run_planner_bench(
            ("star:32",), repeats=1, schedule_identity=False
        )
        with pytest.raises(AssertionError, match="no gate network"):
            report.check()

    def test_check_fails_below_speedup_gate(self):
        report = run_planner_bench(
            ("grid:400",), repeats=1, min_speedup=1e9, schedule_identity=False
        )
        with pytest.raises(AssertionError, match="below"):
            report.check()

    def test_check_fails_above_cold_ratio_gate(self):
        report = run_planner_bench(
            ("grid:400",), repeats=1, cold_max_ratio=1e-9,
            schedule_identity=False,
        )
        with pytest.raises(AssertionError, match="cold plan"):
            report.check()

    def test_check_fails_on_schedule_mismatch(self):
        report = run_planner_bench(
            ("grid:400",), repeats=1, schedule_identity=False
        )
        report.schedule_identity = {"path": True, "grid": False}
        with pytest.raises(AssertionError, match="differs from the seed builder"):
            report.check()

    def test_format_lists_every_cell(self):
        report = run_planner_bench(("path:64",), repeats=1)
        out = report.format()
        assert "path:64" in out and "speedup" in out

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            run_planner_bench(("grid:64",), repeats=0)
        with pytest.raises(ReproError):
            run_planner_bench(())
