"""Replay digests: the sha256 of every CSV payload of every experiment at small fixed configs.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/replay_digests.py [--seed 7] [--compare FILE]

Runs each of the nine experiments in this process, ``gaf-sample`` once per
sampler and once on a conjugate pair under a real law, and some experiments
for several coefficient models, and prints one line per CSV file that
``dirgaf replay`` byte-compares: the run's label, the file, its sha256, the
verdicts and the exit code.  The output of two checkouts differs exactly where
a change altered a payload, a verdict or an exit code.  The configs are small,
so some criteria fail at them (exit 1): the digests compare checkouts, not the
experiments.  Uses only the standard library and dirgaf.

With ``--compare FILE`` (a listing saved from an earlier run) the exit status
is 1 when a verdict or an exit code differs, or a payload file appears or
disappears; a changed digest alone exits 0.  The listing is printed either
way, so ``diff FILE -`` on it shows which lines moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from dirgaf.cli import main as dirgaf_main

# label -> ``dirgaf run`` arguments without seed and output directory
RUNS = {
    "clt": ["--experiment", "clt", "--model", "rademacher", "--alpha", "0", "--s", "2e-3",
            "--replicates", "500"],
    "clt/two-point": ["--experiment", "clt", "--model", "two-point", "--set", "coefficients.point=2.5", "--alpha", "0",
                      "--s", "2e-3", "--replicates", "500"],
    "covariance": ["--experiment", "covariance", "--model", "gauss-real", "--alpha", "0",
                   "--replicates", "2001", "--head-n", "1024"],
    "covariance/two-point": ["--experiment", "covariance", "--model", "two-point", "--set", "coefficients.point=1+0.5j",
                             "--alpha", "0", "--replicates", "2001", "--head-n", "1024"],
    "zeros-complex": ["--experiment", "zeros-complex", "--model", "gauss-complex", "--s", "1e-3",
                      "--replicates", "6", "--head-n", "1024"],
    "zeros-complex/rademacher": ["--experiment", "zeros-complex", "--model", "rademacher", "--s", "1e-3",
                                 "--replicates", "6", "--head-n", "1024"],
    "zeros-real/rademacher": ["--experiment", "zeros-real", "--model", "rademacher", "--s", "1e-3",
                              "--replicates", "120", "--head-n", "4096", "--threads", "2"],
    "zeros-real/gauss-real": ["--experiment", "zeros-real", "--model", "gauss-real", "--s", "1e-3",
                              "--replicates", "60", "--head-n", "4096"],
    "zeros-real/two-point": ["--experiment", "zeros-real", "--model", "two-point", "--s", "1e-3",
                             "--replicates", "60", "--head-n", "4096"],
    "nr-dist/gauss-complex": ["--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3",
                              "--r", "0.5", "--replicates", "48", "--head-n", "1024"],
    "nr-dist/circle": ["--experiment", "nr-dist", "--model", "circle", "--s", "1e-3", "--r", "0.5",
                       "--replicates", "24", "--head-n", "1024"],
    "lil": ["--experiment", "lil", "--model", "rademacher", "--alpha", "0"],
    "zeta-check": ["--experiment", "zeta-check", "--beta", "0", "--s", "1e-2"],
    "gaf-sample/cholesky": ["--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=cholesky"],
    "gaf-sample/integral": ["--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral"],
    "gaf-sample/conjugate": ["--experiment", "gaf-sample", "--alpha", "0", "--set", "grid=1+1j;1-1j;2+0.5j",
                             "--set", "sampler=integral"],
    "sigma-c": ["--experiment", "sigma-c", "--model", "rademacher", "--alpha", "0", "--set", "n_max=100000"],
}


def digest_lines(seed: int):
    """One (label, file, sha256, verdicts, exit code) tuple per payload file of every run."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in RUNS.items():
            out = Path(tmp) / label.replace("/", "-")
            with contextlib.redirect_stdout(io.StringIO()):
                code = dirgaf_main(["run", *args, "--seed", str(seed), "--output-dir", str(out)])
            manifest_path = out / "manifest.json"
            if not manifest_path.exists():
                yield label, "-", "-", "-", code
                continue
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            verdicts = ",".join(f"{k}={v}" for k, v in sorted(manifest["verdicts"].items()))
            for name in sorted(manifest["files"]):
                yield label, name, hashlib.sha256((out / name).read_bytes()).hexdigest(), verdicts, code


def format_line(label, name, digest, verdicts, code) -> str:
    return f"{label:24s} {name:22s} {digest} {verdicts} exit={code}"


def read_listing(path: Path) -> dict:
    """(label, file) -> (digest, verdicts, exit code) of a saved listing; other lines are skipped."""
    saved = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[4].startswith("exit="):
            saved[fields[0], fields[1]] = (fields[2], fields[3], fields[4].removeprefix("exit="))
    return saved


def compare(saved: dict, current: dict) -> int:
    """1 if a verdict or exit code differs or a payload file appears or disappears, else 0."""
    return int({key: entry[1:] for key, entry in saved.items()} != {key: entry[1:] for key, entry in current.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--compare", type=Path, metavar="FILE",
                        help="exit 1 if a verdict or exit code differs from FILE or a payload file came or went")
    args = parser.parse_args(argv)
    saved = read_listing(args.compare) if args.compare else None
    current = {}
    for label, name, digest, verdicts, code in digest_lines(args.seed):
        print(format_line(label, name, digest, verdicts, code), flush=True)
        current[label, name] = (digest, verdicts, str(code))
    return 0 if saved is None else compare(saved, current)


if __name__ == "__main__":
    sys.exit(main())
