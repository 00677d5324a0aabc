"""Golden reports: every ``verify all --json`` report and the five scans at
their defaults, as ``fibgf.cli.main`` prints them, equal the recorded ones in
``data/reports.json`` apart from ``elapsed_ms``.

A change that is meant to alter a report regenerates the file with
``PYTHONPATH=src python tests/test_reports.py`` and shows the diff.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fibgf.checks import SCAN_CHECKS
from fibgf.cli import main

REPORTS = Path(__file__).parent / "data" / "reports.json"
COMMANDS = [("verify", "all")] + [("scan", name) for name in sorted(SCAN_CHECKS)]


def run_reports(command: tuple[str, ...]) -> dict:
    """The exit code and the JSON reports one command prints, without elapsed_ms."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*command, "--json"])
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    for rep in reports:
        del rep["elapsed_ms"]
    return {"exit": code, "reports": reports}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_reports_match_recorded(command):
    recorded = json.loads(REPORTS.read_text(encoding="utf-8"))
    assert run_reports(command) == recorded[" ".join(command)]


if __name__ == "__main__":
    REPORTS.parent.mkdir(exist_ok=True)
    golden = {" ".join(c): run_reports(c) for c in COMMANDS}
    REPORTS.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
