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
dirgaf.limit_gaf
heavy = [m for m in ("scipy.stats", "mpmath") if m in sys.modules]
assert not heavy, heavy
"""


def test_limit_gaf_import_leaves_statistics_unloaded():
    # a fresh interpreter: this test process has long imported everything
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dirgaf.__file__))}
    done = subprocess.run([sys.executable, "-c", LAZY_CHECK], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_public_names_are_the_submodule_objects():
    assert {"sample_gaf_integral", "zero_count_experiment", "errors"} <= set(dirgaf.__all__)
    for name in dirgaf.__all__:
        value = getattr(dirgaf, name)
        if name in dirgaf._ORIGIN:
            assert value is getattr(sys.modules[f"dirgaf.{dirgaf._ORIGIN[name]}"], name)
        else:
            assert value is sys.modules[f"dirgaf.{name}"]
    assert set(dir(dirgaf)) >= set(dirgaf.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dirgaf.no_such_name
