import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

DECLARED = [
    {"name": "replicates_per_s", "better": "higher"},
    {"name": "peak_rss_mib", "better": "lower"},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(rate, rss):
    return {"correct": True, "metrics": {"replicates_per_s": rate, "peak_rss_mib": rss}}


def test_quartiles_and_pairs_won(tool):
    # the change is faster in 3 of 4 pairs and ties on memory in one
    pairs = [{"parent": run(p, 60.0), "change": run(c, m)}
             for p, c, m in [(100, 110, 59.0), (120, 119, 60.0), (90, 95, 61.0), (130, 140, 58.0)]]
    out = tool.summarise(pairs, DECLARED)
    rate, rss = out["replicates_per_s"], out["peak_rss_mib"]
    assert rate["parent"] == {"q1": 97.5, "median": 110.0, "q3": 122.5, "n": 4}
    assert rate["change"] == {"q1": 106.25, "median": 114.5, "q3": 124.25, "n": 4}
    assert (rate["pairs"], rate["pairs_won"]) == (4, 3)
    assert (rss["pairs"], rss["pairs_won"], rss["better"]) == (4, 2, "lower")


def test_failed_run_leaves_its_pair_out(tool):
    failed = {"correct": False, "exit": 1, "stderr": "", "environment": None}
    pairs = [{"parent": run(100, 60.0), "change": run(110, 59.0)},
             {"parent": run(90, 61.0), "change": failed},
             {"parent": failed, "change": failed}]
    rate = tool.summarise(pairs, DECLARED)["replicates_per_s"]
    assert rate["parent"] == {"q1": 92.5, "median": 95.0, "q3": 97.5, "n": 2}
    assert rate["change"] == {"q1": 110, "median": 110, "q3": 110, "n": 1}
    assert (rate["pairs"], rate["pairs_won"]) == (1, 1)
    assert tool.summarise([{"parent": failed, "change": failed}], DECLARED)["peak_rss_mib"]["parent"] is None
