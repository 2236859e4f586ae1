import importlib.util
from pathlib import Path

import pytest

from dirgaf.cli import EXPERIMENTS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def listing(tool, tmp_path, runs):
    path = tmp_path / "saved.txt"
    lines = [line for run in runs for line in tool.format_run(*run)]
    path.write_text("```\n" + "".join(line + "\n" for line in lines) + "```\n", encoding="utf-8")
    return tool.read_listing(path)


RUNS = [
    ("clt", [("clt_summary.csv", "a" * 64), ("report.csv", "b" * 64)], "clt=pass", 0),
    ("sigma-c", [("sigma_c.csv", "c" * 64)], "sigma-c=fail", 1),
]
NEW_DIGEST = ("clt", [("clt_summary.csv", "a" * 64), ("report.csv", "d" * 64)], "clt=pass", 0)


def test_identical_listing_exits_zero(tool, tmp_path):
    assert listing(tool, tmp_path, RUNS) == tool.tables(RUNS)
    assert tool.compare(listing(tool, tmp_path, RUNS), tool.tables(RUNS)) == 0


def test_changed_digest_alone_exits_zero(tool, tmp_path):
    assert tool.compare(listing(tool, tmp_path, RUNS), tool.tables([NEW_DIGEST, RUNS[1]])) == 0


@pytest.mark.parametrize(
    "changed",
    [("sigma-c", RUNS[1][1], "sigma-c=pass", 1), ("sigma-c", RUNS[1][1], "sigma-c=fail", 0)],
    ids=["verdict", "exit-code"],
)
def test_changed_verdict_or_exit_code_exits_one(tool, tmp_path, changed):
    assert tool.compare(listing(tool, tmp_path, RUNS), tool.tables([RUNS[0], changed])) == 1


def test_missing_payload_exits_one(tool, tmp_path):
    assert tool.compare(listing(tool, tmp_path, RUNS), tool.tables([RUNS[0], ("sigma-c", [], "sigma-c=fail", 1)])) == 1


def test_added_payload_exits_one(tool, tmp_path):
    assert tool.compare(listing(tool, tmp_path, RUNS[:1]), tool.tables(RUNS)) == 1


def test_verdict_change_moves_only_the_verdict_line(tool):
    # each run prints its verdicts and exit code once, so its digest lines stay put when only they change
    old, new = tool.format_run(*RUNS[1]), tool.format_run("sigma-c", RUNS[1][1], "sigma-c=pass", 0)
    assert old[:-1] == new[:-1] and old[-1] != new[-1]
    assert [line.split()[1] for line in tool.format_run(*RUNS[0])] == ["clt_summary.csv", "report.csv", "verdicts"]


def test_compare_prints_the_whole_listing(tool, tmp_path, capsys, monkeypatch):
    # the listing is printed with or without --compare; diff shows the moved lines
    saved = tmp_path / "saved.txt"
    saved.write_text("".join(line + "\n" for run in RUNS for line in tool.format_run(*run)), encoding="utf-8")
    runs = [NEW_DIGEST, RUNS[1]]
    monkeypatch.setattr(tool, "digest_runs", lambda seed: iter(runs))
    assert tool.main(["--compare", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == [line for run in runs for line in tool.format_run(*run)]


def test_runs_cover_every_experiment(tool):
    # the payload-drift listing runs each experiment of the registry at least once
    assert {args[args.index("--experiment") + 1] for args in tool.RUNS.values()} == set(EXPERIMENTS)
