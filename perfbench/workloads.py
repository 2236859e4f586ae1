"""Workloads of the dirgaf benchmark and the output check of each child run.

A child run is one fresh interpreter that executes one workload on one input:
the master seed of a ``dirgaf run`` invocation (or of the GAF sampler pair)
together with a replicate count.  Inputs come from a pool of master seeds
whose outputs are recorded in ``reference.json``; the benchmark's ``--seed``
chooses which pool entries a run uses and in which order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# acceptance-2 grid and covariance of the sampler cross-check
GAF_GRID = (0.7, 1.1 + 0.8j, 1.6 - 0.5j, 2.2 + 1.4j)
GAF_COV = (1.0, 0.25, 0.3)
GAF_MAX_SE = 4.0
CLT_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple | None  # ``dirgaf run`` flags without replicates/seed/output; None: library call
    threads: int
    replicates: int  # per child run
    tiny_replicates: int  # per child run in the self-tests
    pool: tuple  # master seeds with recorded reference outputs
    per_pass: int  # pool entries one measuring pass runs
    child_s: float  # rough seconds per child run; sizes the traced run
    payload: str | None  # CSV the output check reads


POOL = tuple(range(1, 17))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nr-dist",
            flags=("--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3", "--r", "0.5",
                   "--head-n", "4096"),
            threads=1,
            replicates=6,
            tiny_replicates=2,
            # per-replicate cost is bimodal (about 20 ms without a zero in the
            # rectangle, 250 ms with one), so every pass runs the whole pool:
            # a seed-chosen subset would swing throughput by about 10 %
            pool=(1, 2, 3, 4),
            per_pass=4,
            child_s=3.1,
            payload="counts.csv",
        ),
        Workload(
            name="zeros-real",
            flags=("--experiment", "zeros-real", "--model", "rademacher", "--s", "1e-3", "--window", "0.2,5",
                   "--head-n", "4096"),
            threads=2,
            replicates=60,
            tiny_replicates=8,
            pool=POOL,
            per_pass=3,
            child_s=4.1,
            payload="real_zero_counts.csv",
        ),
        Workload(
            name="clt",
            flags=("--experiment", "clt", "--model", "rademacher", "--alpha", "0", "--s", "2e-3"),
            threads=1,
            replicates=1500,
            tiny_replicates=500,
            pool=POOL,
            per_pass=3,
            child_s=4.0,
            payload="clt_summary.csv",
        ),
        Workload(
            name="gaf-crosscheck",
            flags=None,
            threads=1,
            replicates=2200,
            tiny_replicates=200,
            pool=POOL,
            per_pass=3,
            child_s=4.1,
            payload=None,
        ),
    )
}


def pass_seeds(workload: Workload, bench_seed: int) -> list[int]:
    """Pool entries of one measuring pass, in the order the bench seed gives."""
    rng = random.Random(f"{workload.name}:{bench_seed}")
    return rng.sample(workload.pool, workload.per_pass)


def dirgaf_argv(workload: Workload, seed: int, replicates: int, threads: int, out_dir: Path) -> list[str]:
    """``dirgaf`` command line of one child run of a CLI workload."""
    return ["run", *workload.flags, "--threads", str(threads), "--replicates", str(replicates),
            "--seed", str(seed), "--output-dir", str(out_dir)]


def gaf_moment_deviation(a, b) -> float:
    """Largest |mean difference| / SE over all plain and conjugated product moments.

    The statistic of acceptance criterion 2, for two (n_draws, m) sample arrays.
    """
    import numpy as np

    worst = 0.0
    m = a.shape[1]
    for i in range(m):
        for j in range(m):
            for conj in (np.conj, lambda v: v):
                pa = a[:, i] * conj(a[:, j])
                pb = b[:, i] * conj(b[:, j])
                se = math.sqrt(
                    max(pa.real.var(), pa.imag.var()) / len(pa)
                    + max(pb.real.var(), pb.imag.var()) / len(pb)
                )
                worst = max(worst, abs(pa.mean() - pb.mean()) / se)
    return worst


def observe(workload: Workload, out_dir: Path, child: dict) -> dict:
    """What the output check compares: exit code, verdicts and the payload."""
    if workload.flags is None:
        return {"exit": child["exit_code"], "n_draws": child["n_draws"], "worst_dev_se": child["worst_dev_se"]}
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    obs = {"exit": child["exit_code"], "verdicts": {r["name"]: r["verdict"] for r in report}}
    data = (out_dir / workload.payload).read_bytes()
    if workload.name == "clt":
        row = data.decode("utf-8").splitlines()[1]
        obs["values"] = [float(v) for v in row.split(",")]
    else:
        obs["sha256"] = hashlib.sha256(data).hexdigest()
    return obs


def check(workload: Workload, expected: dict | None, obs: dict) -> list[str]:
    """Problems with one child run's observation; empty when the output is correct."""
    if expected is None:
        return ["no reference output recorded for this input"]
    problems = []
    if obs["exit"] != expected["exit"]:
        problems.append(f"exit code {obs['exit']}, expected {expected['exit']}")
    if workload.flags is None:
        if obs["n_draws"] != expected["n_draws"]:
            problems.append(f"{obs['n_draws']} draws, expected {expected['n_draws']}")
        if not obs["worst_dev_se"] < GAF_MAX_SE:
            problems.append(f"sampler moments differ by {obs['worst_dev_se']:.3f} SE (limit {GAF_MAX_SE})")
        return problems
    if obs["verdicts"] != expected["verdicts"]:
        problems.append(f"verdicts {obs['verdicts']}, expected {expected['verdicts']}")
    if "values" in expected:
        got, want = obs.get("values", []), expected["values"]
        if len(got) != len(want) or not all(
            math.isclose(g, w, rel_tol=CLT_REL_TOL, abs_tol=0.0) for g, w in zip(got, want)
        ):
            problems.append(f"{workload.payload} values {got}, expected {want} (rel tol {CLT_REL_TOL})")
    elif obs.get("sha256") != expected["sha256"]:
        problems.append(f"{workload.payload} bytes differ from the reference")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def expected_output(reference: dict, workload: Workload, replicates: int, seed: int) -> dict | None:
    return reference.get(workload.name, {}).get(str(replicates), {}).get(str(seed))
