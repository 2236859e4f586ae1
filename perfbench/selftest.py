"""Self-tests of the dirgaf benchmark at its tiny sizes.

Run from the root of the checkout:  python3 -m pytest perfbench/selftest.py
(about two minutes on two cores).  Not named ``test_*.py`` so that the
repository's own test suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, dirgaf_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# counts that must repeat exactly between traced runs and across thread counts
DETERMINISTIC = (
    "coeff_models.draws",
    "series_eval.eval.points",
    "series_eval.atoms_per_path",
    "zero_finder.fcalls_per_replicate",
    "limit_gaf.integral.normals",
)


def bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--replicates", str(WORKLOADS[workload].tiny_replicates)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_and_output_check(workload):
    out = result(bench(workload, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= WORKLOADS[workload].per_pass
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_metrics_and_deterministic_counters(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", ["nr-dist", "zeros-real"])
def test_counters_do_not_depend_on_threads(workload, tmp_path):
    w = WORKLOADS[workload]
    totals = []
    for threads in (1, 2):
        out_dir = tmp_path / f"threads{threads}"
        out_dir.mkdir()
        spec = {"argv": dirgaf_argv(w, w.pool[0], w.tiny_replicates, threads, out_dir), "seed": w.pool[0],
                "replicates": w.tiny_replicates, "trace": True, "src": str(ROOT / "src")}
        (out_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "child.py"), str(out_dir / "spec.json"), str(out_dir / "r.json")],
                       cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=170)
        t = json.loads((out_dir / "r.json").read_text(encoding="utf-8"))["trace"]["totals"]
        totals.append({k: v for k, v in t.items() if not k.endswith("_s")})
    assert totals[0] == totals[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clt", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
