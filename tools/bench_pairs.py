"""Paired benchmark runs of a parent commit and this checkout, summarised per metric.

Usage (from the repository root):

    python3 tools/bench_pairs.py PARENT OUT

Checks PARENT out in a temporary git worktree (removed at the end) and
byte-compiles ``src`` in both trees, so that neither side pays for writing
bytecode.  Then, for each workload of ``BENCHMARK.json``, it runs 10 pairs of
``perfbench/run.py --workload W --seed i --seconds <run_seconds> --trace 0``,
seeds 1 to 10, each side from its own tree and the two sides taking turns at
going first.  OUT (JSON) holds per workload and end-to-end metric the median
and quartiles on each side and the pairs the checkout won (ties count for
neither side), the seeds, every run's result, both commits and the
environment line of each side's first run.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``: its result line (or the failure) and its environment line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    environment = next((json.loads(line.removeprefix("environment: ")) for line in lines
                        if line.startswith("environment: ")), None)
    if done.returncode != 0 or not lines:
        return {"correct": False, "exit": done.returncode, "stderr": done.stderr[-2000:], "environment": environment}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}, "environment": environment}


def summarise(pairs: list[dict], declared: list[dict]) -> dict:
    """Median, quartiles and pairs won per declared metric, from runs of the form {"parent": run, "change": run}.

    A run contributes a metric's value when it has one; a pair counts towards
    ``pairs`` when both of its runs do, and towards ``pairs_won`` when the
    change's value is better by the metric's ``better`` direction.
    """
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run[side]["metrics"][name] for run in pairs if name in run[side].get("metrics", {})]
                  for side in ("parent", "change")}
        both = [(run["parent"]["metrics"][name], run["change"]["metrics"][name]) for run in pairs
                if all(name in run[side].get("metrics", {}) for side in ("parent", "change"))]
        out[name] = {
            "better": metric["better"],
            **{side: quartiles(v) for side, v in values.items()},
            "pairs": len(both),
            "pairs_won": sum((c > p) if higher else (c < p) for p, c in both),
        }
    return out


def quartiles(values: list[float]) -> dict | None:
    """Median and the inclusive-method first and third quartiles, or None for no values."""
    if not values:
        return None
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT", help="commit to compare this checkout with")
    parser.add_argument("out", metavar="OUT", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    parent_ref = args.parent
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "parent": {"ref": parent_ref, "commit": git("rev-parse", parent_ref)},
        "change": {"commit": git("describe", "--always", "--dirty", "--abbrev=40")},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent), parent_ref)
        try:
            trees = {"parent": parent, "change": ROOT}
            for tree in trees.values():
                subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
            for workload in (w["name"] for w in spec["workloads"]):
                pairs = []
                for i, seed in enumerate(SEEDS):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = bench_once(trees[side], workload, seed, spec["run_seconds"])
                        print(f"{workload} seed {seed} {side}: {pair[side].get('metrics')}", file=sys.stderr,
                              flush=True)
                    pairs.append(pair)
                record["workloads"][workload] = {
                    "all_correct": all(pair[side]["correct"] for pair in pairs for side in trees),
                    "failed_children": sum(pair[side].get("failed", 0) for pair in pairs for side in trees),
                    "metrics": summarise(pairs, spec["end_to_end"]),
                    "pairs": pairs,
                }
            for side in trees:
                record[side]["environment"] = next((pair[side]["environment"] for w in record["workloads"].values()
                                                    for pair in w["pairs"] if pair[side]["environment"]), None)
        finally:
            git("worktree", "remove", "--force", str(parent))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
