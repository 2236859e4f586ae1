"""Replay digests: the sha256 of every CSV payload of every experiment at small fixed configs.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/replay_digests.py [--seed 7] [--compare FILE]

Runs each of the nine experiments in this process, ``gaf-sample`` once per
sampler and once on a conjugate pair under a real law, and some experiments
for several coefficient models, and prints one line per CSV file that
``dirgaf replay`` byte-compares (the run's label, the file and its sha256),
then one line with the run's verdicts and exit code.  The output of two
checkouts differs exactly where a change altered a payload, a verdict or an
exit code, and a digest line moves only when its bytes moved.  The configs
are small, so some criteria fail at them (exit 1): the digests compare
checkouts, not the experiments.  Uses only the standard library and dirgaf.

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


# the file column of a run's verdict line; payloads are CSV files, so no payload has this name
VERDICTS = "verdicts"


def digest_runs(seed: int):
    """One (label, [(file, sha256), ...], verdicts, exit code) tuple per run."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in RUNS.items():
            out = Path(tmp) / label.replace("/", "-")
            with contextlib.redirect_stdout(io.StringIO()):
                code = dirgaf_main(["run", *args, "--seed", str(seed), "--output-dir", str(out)])
            manifest_path = out / "manifest.json"
            if not manifest_path.exists():
                yield label, [], "-", code
                continue
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            verdicts = ",".join(f"{k}={v}" for k, v in sorted(manifest["verdicts"].items()))
            files = [(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
                     for name in sorted(manifest["files"])]
            yield label, files, verdicts, code


def format_run(label, files, verdicts, code) -> list[str]:
    """A run's digest lines, one per payload file, then its verdict line."""
    return [f"{label:24s} {name:22s} {digest}" for name, digest in files] + [
        f"{label:24s} {VERDICTS:22s} {verdicts} exit={code}"]


def read_listing(path: Path) -> tuple[dict, dict]:
    """(label, file) -> sha256 and label -> (verdicts, exit code) of a saved listing; other lines are skipped."""
    digests, verdicts = {}, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[1] == VERDICTS and fields[3].startswith("exit="):
            verdicts[fields[0]] = (fields[2], fields[3].removeprefix("exit="))
        elif len(fields) == 3 and len(fields[2]) == 64:
            digests[fields[0], fields[1]] = fields[2]
    return digests, verdicts


def tables(runs) -> tuple[dict, dict]:
    """The two maps of :func:`read_listing` for (label, files, verdicts, exit code) runs."""
    digests = {(label, name): digest for label, files, _, _ in runs for name, digest in files}
    return digests, {label: (verdicts, str(code)) for label, _, verdicts, code in runs}


def compare(saved: tuple[dict, dict], current: tuple[dict, dict]) -> int:
    """1 if a verdict or exit code differs or a payload file appears or disappears, else 0."""
    return int(saved[0].keys() != current[0].keys() or saved[1] != current[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--compare", type=Path, metavar="FILE",
                        help="exit 1 if a verdict or exit code differs from FILE or a payload file came or went")
    args = parser.parse_args(argv)
    saved = read_listing(args.compare) if args.compare else None
    runs = []
    for run in digest_runs(args.seed):
        print("\n".join(format_run(*run)), flush=True)
        runs.append(run)
    return 0 if saved is None else compare(saved, tables(runs))


if __name__ == "__main__":
    sys.exit(main())
