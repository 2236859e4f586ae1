import os
import subprocess
import sys

import pytest

import dirgaf

LAZY_CHECK = """
import sys
import dirgaf
assert "__version__" in vars(dirgaf)
assert not any(m.startswith("dirgaf.") for m in sys.modules), sorted(m for m in sys.modules if "dirgaf" in m)
import dirgaf.limit_gaf
heavy = [m for m in ("scipy.stats", "mpmath") if m in sys.modules]
assert not heavy, heavy
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


def _run_fresh(code: str):
    # a fresh interpreter: this test process has long imported everything
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dirgaf.__file__))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_limit_gaf_import_leaves_statistics_unloaded():
    _run_fresh(LAZY_CHECK)


def test_cli_loads_statistics_only_for_the_experiments_that_use_them():
    """nr-dist, zeros-real and clt run without scipy.stats and mpmath; main freezes the heap and keeps gc on."""
    _run_fresh(CLI_IMPORT_CHECK)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dirgaf.no_such_name
