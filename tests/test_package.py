import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirgaf

LAZY_CHECK = """
import sys
import dirgaf
assert "__version__" in vars(dirgaf)
assert not any(m.startswith("dirgaf.") for m in sys.modules), sorted(m for m in sys.modules if "dirgaf" in m)
import numpy as np
import dirgaf.limit_gaf as lg
from dirgaf.coeff_models import CovarianceSpec
params = lg.KernelParams(0.25, CovarianceSpec(1.0, 0.25, 0.3))
grid = [0.7, 1.1 + 0.8j, 1.6 - 0.5j, 2.2 + 1.4j]
assert lg.sample_gaf_integral(params, grid, np.random.default_rng(1), n_draws=100).shape == (100, 4)
assert lg.sample_gaf_cholesky(params, grid, np.random.default_rng(2), n_draws=100).shape == (100, 4)
loaded = sorted(m for m in sys.modules if m == "mpmath" or m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

CLI_IMPORT_CHECK = """
import gc
import sys
import tempfile

import dirgaf.cli as cli

def heavy():
    return [m for m in ("scipy.stats", "mpmath") if m in sys.modules]

assert not heavy(), heavy()
with tempfile.TemporaryDirectory() as tmp:
    for args in (
        ("--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3", "--r", "0.5", "--replicates", "2",
         "--head-n", "256"),
        ("--experiment", "zeros-real", "--s", "1e-2", "--replicates", "2", "--head-n", "256"),
        ("--experiment", "clt", "--alpha", "0", "--s", "1e-2", "--replicates", "500", "--head-n", "256"),
    ):
        code = cli.main(["run", *args, "--seed", "1", "--output-dir", tmp])
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL), code
assert not heavy(), heavy()
assert gc.get_freeze_count() > 0 and gc.isenabled()
cli.ExperimentConfig.from_raw({"experiment": "clt", "seed": "1", "alpha": "0", "s": "1e-3", "replicates": "500"})
assert heavy() == [], heavy()
cli.ExperimentConfig.from_raw({"experiment": "zeta-check", "seed": "1", "beta": "0", "s": "1e-2"})
assert heavy() == ["mpmath"], heavy()
"""

# one tiny run per experiment (gaf-sample once per sampler), each in a fresh interpreter
TINY_RUNS = {
    "clt": ["--experiment", "clt", "--alpha", "0", "--s", "1e-2", "--replicates", "500", "--head-n", "256"],
    "covariance": ["--experiment", "covariance", "--alpha", "0", "--replicates", "200", "--head-n", "256"],
    "zeros-complex": ["--experiment", "zeros-complex", "--model", "gauss-complex", "--s", "1e-2", "--replicates", "1",
                      "--head-n", "256"],
    "zeros-real": ["--experiment", "zeros-real", "--s", "1e-2", "--replicates", "2", "--head-n", "256"],
    "nr-dist": ["--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3", "--r", "0.5",
                "--replicates", "2", "--head-n", "256"],
    "lil": ["--experiment", "lil", "--alpha", "0", "--set", "s_grid=geom:1e-2:1e-3:4", "--set", "head_n=1000"],
    "zeta-check": ["--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--set", "k_cut=1000"],
    "gaf-sample/cholesky": ["--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=cholesky"],
    "gaf-sample/integral": ["--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral",
                            "--set", "cells=1000"],
    "sigma-c": ["--experiment", "sigma-c", "--alpha", "0", "--set", "n_max=10000"],
    # rademacher draws no normals; this one reaches scipy.special.ndtri
    "sigma-c/gauss-complex": ["--experiment", "sigma-c", "--model", "gauss-complex", "--alpha", "0",
                              "--set", "n_max=10000"],
}

NO_SCIPY_CHECK = """
import contextlib
import io
import sys
import tempfile

import dirgaf.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
with tempfile.TemporaryDirectory() as tmp:
    for args in {runs!r}:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", *args, "--seed", "1", "--output-dir", tmp])
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL), (args, code)
        assert not scipy_modules(), (args, scipy_modules())
"""

RUN_IMPORT_CHECK = """
import contextlib
import io
import sys
import tempfile

import dirgaf.cli as cli

with tempfile.TemporaryDirectory() as tmp:
    args = cli.build_parser().parse_args(["run", *{args!r}, "--seed", "1", "--output-dir", tmp])
    config = cli.ExperimentConfig.from_raw(cli.raw_config(args))
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(config)
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL), code
gained = sorted(set(sys.modules) - before)
assert not gained, gained
"""


def _run_fresh(code: str):
    # a fresh interpreter: this test process has long imported everything
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dirgaf.__file__))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_limit_gaf_import_leaves_statistics_unloaded():
    """Both GAF samplers run on numpy and the stdlib alone: no scipy module, no mpmath."""
    _run_fresh(LAZY_CHECK)


def test_cli_loads_statistics_only_for_the_experiments_that_use_them():
    """nr-dist, zeros-real and clt run without scipy.stats and mpmath; main freezes the heap and keeps gc on."""
    _run_fresh(CLI_IMPORT_CHECK)


def test_cli_import_and_the_clt_covariance_and_gaf_runs_load_no_scipy():
    """``import dirgaf.cli`` loads no scipy module, and neither do tiny clt, covariance and gaf-sample runs."""
    runs = [TINY_RUNS[label] for label in ("clt", "covariance", "gaf-sample/cholesky", "gaf-sample/integral")]
    _run_fresh(NO_SCIPY_CHECK.format(runs=runs))


def test_scipy_imports_are_the_functions_left_to_port():
    """The package takes exactly these three functions from scipy, each still to be ported to numpy; a new
    ``scipy`` import, or a port that leaves its import behind, changes the set."""
    imported = set()
    for path in Path(dirgaf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imported |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"}
    assert imported == {"scipy.special.chdtrc", "scipy.special.ndtri", "scipy.special.smirnov"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dirgaf.no_such_name


@pytest.mark.parametrize("label", list(TINY_RUNS))
def test_run_imports_nothing(label):
    """Every module a run needs is loaded by ``import dirgaf.cli`` and the config's validation, before
    ``cli.run`` freezes the heap; so an import inside a run would be neither frozen nor paid for in set-up."""
    _run_fresh(RUN_IMPORT_CHECK.format(args=TINY_RUNS[label]))
