"""Record the reference outputs of every pool input into reference.json.

Usage (from the root of a dirgaf checkout): python3 perfbench/record.py [WORKLOAD ...]

Runs each workload in this process on every pool seed, at the workload's
size and at its self-test size, and stores what ``workloads.observe`` reads:
exit code, verdicts and the payload digest (``clt``: the summary floats;
``gaf-crosscheck``: the draw count, whose moment agreement is checked anew on
every run).  Re-record only when a change is meant to alter these outputs.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from child import execute  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, check, dirgaf_argv, observe  # noqa: E402


def main(names: list[str]) -> int:
    """Re-record the named workloads (all when none is named), keeping the others."""
    out_dir = ROOT / ".perfbench" / "record"
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if names else {}
    for w in (WORKLOADS[name] for name in names or WORKLOADS):
        per_size = reference[w.name] = {}
        for replicates in (w.replicates, w.tiny_replicates):
            entries = per_size[str(replicates)] = {}
            for seed in w.pool:
                shutil.rmtree(out_dir, ignore_errors=True)
                out_dir.mkdir(parents=True)
                argv = None if w.flags is None else dirgaf_argv(w, seed, replicates, w.threads, out_dir)
                spec = {"argv": argv, "seed": seed, "replicates": replicates, "trace": False, "src": str(ROOT / "src")}
                obs = observe(w, out_dir, execute(spec))
                problems = check(w, obs, obs)
                if problems:
                    print(f"{w.name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                if w.flags is None:
                    del obs["worst_dev_se"]  # checked against the 4 SE limit on every run, not recorded
                entries[str(seed)] = obs
                print(w.name, replicates, seed, obs, flush=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
