"""One child run of the dirgaf benchmark, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON RESULT_JSON

The spec holds the ``dirgaf`` command line (null for the library workload),
the master seed, the replicate count and whether to trace.  The child
imports dirgaf from the checkout's ``src/``, marks the end of set-up with
``time.monotonic()`` (a system-wide clock, so the parent can subtract its
spawn time), runs the workload, and writes its timings, the environment it
saw and, when traced, the trace summary to the result file.  Its exit code
is the workload's exit code.
"""

import json
import os
import sys
import time

EXIT_WRONG_PACKAGE = 90


def environment() -> dict:
    """Interpreter, numerical stack and thread settings as this process sees them."""
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def execute(spec: dict) -> dict:
    """Run one workload in this process and return the child's result record."""
    t_import = time.perf_counter()
    import dirgaf

    if spec["argv"] is not None:
        import dirgaf.cli as cli
    import_s = time.perf_counter() - t_import
    if not os.path.realpath(dirgaf.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"dirgaf imported from {dirgaf.__file__}, not from {spec['src']}", file=sys.stderr)
        raise SystemExit(EXIT_WRONG_PACKAGE)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"import_s": import_s}
    if spec["argv"] is not None:
        result.update(_run_cli(cli, spec["argv"]))
    else:
        result.update(_run_gaf(spec["seed"], spec["replicates"]))
    result["environment"] = environment()
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def _run_cli(cli, argv: list) -> dict:
    marks = {}
    inner_run = cli.run

    def marked_run(config):
        marks["setup_end"] = time.monotonic()
        experiment = config.experiment
        inner_dispatch = cli.DISPATCH[experiment]

        def timed_dispatch(*args):
            t0 = time.perf_counter()
            try:
                return inner_dispatch(*args)
            finally:
                marks["dispatch_s"] = time.perf_counter() - t0

        cli.DISPATCH[experiment] = timed_dispatch
        t0 = time.perf_counter()
        try:
            return inner_run(config)
        finally:
            marks["run_s"] = time.perf_counter() - t0
            cli.DISPATCH[experiment] = inner_dispatch

    cli.run = marked_run
    try:
        code = cli.main(argv)
    finally:
        cli.run = inner_run
    return {
        "exit_code": code,
        "setup_end": marks.get("setup_end"),
        "dispatch_s": marks.get("dispatch_s"),
        "write_s": marks["run_s"] - marks["dispatch_s"] if "dispatch_s" in marks else None,
    }


def _run_gaf(seed: int, n_draws: int) -> dict:
    import numpy as np
    from dirgaf import limit_gaf
    from dirgaf.coeff_models import CovarianceSpec

    from workloads import GAF_COV, GAF_GRID, gaf_moment_deviation

    params = limit_gaf.KernelParams(0.0, CovarianceSpec(*GAF_COV))
    grid = np.array(GAF_GRID)
    setup_end = time.monotonic()
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    a = limit_gaf.sample_gaf_integral(params, grid, rng, n_draws=n_draws)
    b = limit_gaf.sample_gaf_cholesky(params, grid, rng, n_draws=n_draws)
    worst = gaf_moment_deviation(a, b)
    return {
        "exit_code": 0,
        "setup_end": setup_end,
        "dispatch_s": time.perf_counter() - t0,
        "write_s": 0.0,
        "n_draws": len(a),
        "worst_dev_se": worst,
    }


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = execute(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
