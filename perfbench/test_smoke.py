"""Smoke test of the benchmark itself.

    python -m pytest perfbench/test_smoke.py

Runs every workload at the shortest length, untraced and traced, and checks
that each emits the metrics it owns with no failed task; checks that a wrong
reference value and a raising task are counted as failures, so the
correctness gate cannot pass vacuously; and checks that the benchmark refuses
to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run.import_package()
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

OWNED = {
    "large_period": {"minimize_energy_ms", "energy_scan_ms"},
    "near_critical": {"find_min_period_ms", "minimize_energy_ms", "continue_branch_ms",
                      "verify_T0_bound_ms"},
    "certify": {"hamiltonian_check_ms", "modica_check_ms", "extension_energy_ms",
                "dirichlet_to_neumann_ms", "poisson_route_ms", "oracle_ms", "linear_solve_ms"},
    "cli_suite": {f"cli.{cmd}_ms" for cmd in ("apply", "eig", "solve-linear", "solve", "min-period",
                                              "continue", "t0-bound", "hamiltonian", "modica",
                                              "energy-scan", "test-bound", "extend")},
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_emits_its_metrics(name, trace):
    proc = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, detail["problems"]
    assert last["attempted"] >= 1 and detail["fail_frac"] == 0.0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(detail["tasks"]) == OWNED[name]
    meta = detail["meta"]
    assert meta["nproc"] >= 1 and meta["seed"] == 0
    assert all(b["threads"] is None or b["threads"] <= meta["nproc"] for b in meta["blas"])
    if trace == "0":
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_wrong_reference_and_raising_task_fail():
    wl = workloads.build("near_critical", workloads.DEFAULT_SEED, str(run.OUT))
    task = next(t for t in wl.tasks if t.label == "continue_branch")
    _, result, error = run.run_task(task)
    assert error is None
    values = {}
    assert run.check_task(task, result, None, values) == []
    right = {task.label: values[task.label]}
    wrong = {task.label: {k: v * (1.0 + 1e-3) + 1e-3 for k, v in values[task.label].items()}}
    assert run.check_task(task, result, right, {}) == []
    assert run.check_task(task, result, wrong, {})

    def boom():
        raise RuntimeError("deliberate")

    raising = workloads.Task("raising", "raising", boom, task.check)
    wl.tasks = [task, raising]
    loop = run.Loop(wl, wrong)
    loop.one_pass()
    assert loop.attempted == 2 and loop.failed == 2
    assert any("deliberate" in p for p in loop.problems)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "large_period", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
