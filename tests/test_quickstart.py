"""The README quickstart, steps 1-6, read from README and run on a copy of
data/: each `specdesk` line in-process, any other line by the shell."""

import csv
import hashlib
import re
import shlex
import shutil
import subprocess
from pathlib import Path

from specdesk.cli import main

ROOT = Path(__file__).resolve().parents[1]

# The sha256 of each model the README steps write. The reproducibility
# contract says these bytes never change, so a slip in any count, context or
# token id that training writes fails here.
MODEL_SHA256 = {
    "base.model": "f6dd0a7c4cc9763b6b20b9ed5dfef2d29a6029718ddd47b1e77bec970cb09e0b",
    "drafter_de.model": "600ff76c0416ec1bcc6f8d452c0327d1c023a586a61b9642e820343164180909",
    "drafter_ru.model": "3ea0a892c4fa73985f9bdb08fe09e4189911d601d92f8ee8cf80e15d58785d40",
    "target.model": "9879d06aef31a57c6db3e1d231c1c0b78abe47f97714de6208826225c39d26d7",
}


def quickstart_commands():
    """The bash block under "## Quickstart (CLI)", one command per entry, with
    continuation lines joined and comment lines dropped."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (CLI)", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]


def _report_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_readme_quickstart(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    routed = []
    for command in quickstart_commands():
        argv = shlex.split(command, comments=True)
        if argv[0] != "specdesk":
            subprocess.run(command, shell=True, check=True)
            continue
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        if argv[1] == "route":  # the expected tag is the line's trailing comment
            expected = re.search(r"#\s*(\S+)\s*$", command).group(1)
            assert out == expected + "\n", command
            routed.append(expected)
    assert routed == ["de-en", "ru-en"]
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in Path("out").glob("*.model")} == MODEL_SHA256

    grid = {(r["drafter"], r["corpus"]): float(r["mean_accepted"])
            for r in _report_rows("out/bench/grid.csv") if float(r["temperature"]) == 0.0}
    assert grid[("de", "de")] > grid[("ru", "de")]
    assert grid[("ru", "ru")] > grid[("de", "ru")]

    budgets = [int(r["budget"]) for r in _report_rows("out/bench/scaling.csv")]
    assert budgets == [1000, 4000, 16000, 40000]
