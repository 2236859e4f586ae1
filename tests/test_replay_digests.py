import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def listing(tool, tmp_path, rows):
    path = tmp_path / "saved.txt"
    path.write_text("```\n" + "".join(tool.format_line(*row) + "\n" for row in rows) + "```\n", encoding="utf-8")
    return tool.read_listing(path)


ROWS = [
    ("clt", "clt_summary.csv", "aa11", "clt=pass", 0),
    ("clt", "report.csv", "bb22", "clt=pass", 0),
    ("sigma-c", "sigma_c.csv", "cc33", "sigma-c=fail", 1),
]


def current(rows):
    return {(label, name): (digest, verdicts, str(code)) for label, name, digest, verdicts, code in rows}


def test_identical_listing_exits_zero(tool, tmp_path):
    assert tool.compare(listing(tool, tmp_path, ROWS), current(ROWS)) == 0


def test_changed_digest_alone_exits_zero(tool, tmp_path):
    rows = [ROWS[0], ("clt", "report.csv", "dd44", "clt=pass", 0), ROWS[2]]
    assert tool.compare(listing(tool, tmp_path, ROWS), current(rows)) == 0


@pytest.mark.parametrize(
    "changed",
    [("sigma-c", "sigma_c.csv", "cc33", "sigma-c=pass", 1), ("sigma-c", "sigma_c.csv", "cc33", "sigma-c=fail", 0)],
    ids=["verdict", "exit-code"],
)
def test_changed_verdict_or_exit_code_exits_one(tool, tmp_path, changed):
    assert tool.compare(listing(tool, tmp_path, ROWS), current([*ROWS[:2], changed])) == 1


def test_missing_payload_exits_one(tool, tmp_path):
    assert tool.compare(listing(tool, tmp_path, ROWS), current(ROWS[:2])) == 1


def test_added_payload_exits_one(tool, tmp_path):
    assert tool.compare(listing(tool, tmp_path, ROWS[:2]), current(ROWS)) == 1


def test_compare_prints_the_whole_listing(tool, tmp_path, capsys, monkeypatch):
    # the listing is printed with or without --compare; diff shows the moved lines
    saved = tmp_path / "saved.txt"
    saved.write_text("".join(tool.format_line(*row) + "\n" for row in ROWS), encoding="utf-8")
    rows = [ROWS[0], ("clt", "report.csv", "dd44", "clt=pass", 0), ROWS[2]]
    monkeypatch.setattr(tool, "digest_lines", lambda seed: iter(rows))
    assert tool.main(["--compare", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == [tool.format_line(*row) for row in rows]
