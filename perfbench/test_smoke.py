"""Smoke test of the benchmark harness itself (tiny workload sizes).

    python3 -m pytest perfbench -q

Every workload must print every metric ``BENCHMARK.json`` names, with its
unit, and fail no output check.  A traced run must repeat its exact counts,
outcome ratios and output digest for one seed and change the digest for
another.  Without the program source next to it, the harness must refuse
to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Per-layer metrics that are counts or outcome ratios, not timings.
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["unit"] in ("count", "B", "ratio") and m["name"] != "trace.overhead_frac"]


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def results(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = results(run(workload, 1, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert report["failed_frac"] == 0 and result["attempted"] >= 1
    check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["provenance"]["kernel_backend"] == "cext"
    assert report["provenance"]["seed"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_for_a_seed(workload):
    first, a = results(run(workload, 1, 1))
    second, b = results(run(workload, 1, 1))
    other, _ = results(run(workload, 2, 1))
    assert a["correct"] and a["failed"] == 0, first["problems"]
    check_metrics(a, SPEC["per_layer"])
    assert {k: a["metrics"][k] for k in EXACT} == {k: b["metrics"][k] for k in EXACT}
    assert first["digest"] == second["digest"] != other["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
