"""The benchmark's traced child run against this checkout.

``perfbench/tracer.py`` replaces dirgaf functions by name, with no guard, so
renaming or removing one of them (or a parameter it binds by name, such as
``replicate_map``'s ``threads``) makes every traced child of the benchmark
fail.  This runs one traced ``nr-dist`` child as the benchmark does.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_traced_child_books_replicate_map(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses resolve their annotations there
    spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS["nr-dist"]
    seed, replicates = w.pool[0], 2
    child_spec = {"argv": workloads.dirgaf_argv(w, seed, replicates, w.threads, tmp_path / "out"), "seed": seed,
                  "replicates": replicates, "trace": True, "src": str(ROOT / "src")}
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(child_spec), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spec_path), str(result_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode in (0, 1), done.stderr
    totals = json.loads(result_path.read_text(encoding="utf-8"))["trace"]["totals"]
    assert totals["stats_harness.replicate_map.calls"] == 1
    assert totals["stats_harness.replicate_map.thread_s"] > 0
