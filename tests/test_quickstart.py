"""The README quickstart, steps 1-6, run in-process on a copy of data/."""

import csv
import shutil
from pathlib import Path

from specdesk.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
QS = "data/quickstart"

STEPS = [
    ["vocab", "build", "--corpus", f"{QS}/tasks_all.tsv",
     "--corpus", f"{QS}/general.tsv", "--out", "out/shared.vocab"],
    ["train", "pretrain", "--corpus", f"{QS}/tasks_all.tsv",
     "--vocab", "out/shared.vocab", "--order", "4", "--k", "0.1", "--out", "out/target.model"],
    ["train", "pretrain", "--corpus", f"{QS}/general.tsv",
     "--vocab", "out/shared.vocab", "--order", "2", "--k", "0.5", "--out", "out/base.model"],
    ["distill", "--target", "out/target.model", "--prompts", f"{QS}/de-en.tsv",
     "--temps", "0.0,0.3,0.7,1.0", "--max-len", "48", "--skip-empty",
     "--out", "out/distilled_de.tsv"],
    ["distill", "--target", "out/target.model", "--prompts", f"{QS}/ru-en.tsv",
     "--temps", "0.0,0.3,0.7,1.0", "--max-len", "48", "--skip-empty",
     "--out", "out/distilled_ru.tsv"],
    ["train", "finetune", "--model", "out/base.model", "--corpus", "out/distilled_de.tsv",
     "--out", "out/drafter_de.model"],
    ["train", "finetune", "--model", "out/base.model", "--corpus", "out/distilled_ru.tsv",
     "--out", "out/drafter_ru.model"],
    ["decode", "--target", "out/target.model", "--drafter", "out/drafter_de.model",
     "--prompt", "Translate German to English: haus und baum", "--T", "0", "--K", "5",
     "--max-new", "40", "--stats"],
    ["bench", "grid", "--config", f"{QS}/grid.cfg", "--out-dir", "out/bench"],
    ["bench", "scaling", "--config", f"{QS}/scaling.cfg", "--out-dir", "out/bench"],
]


def _report_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_readme_quickstart(tmp_path, monkeypatch, capsys):
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for step in STEPS:
        assert main(step) == 0, step
    capsys.readouterr()

    grid = {(r["drafter"], r["corpus"]): float(r["mean_accepted"])
            for r in _report_rows("out/bench/grid.csv") if float(r["temperature"]) == 0.0}
    assert grid[("de", "de")] > grid[("ru", "de")]
    assert grid[("ru", "ru")] > grid[("de", "ru")]

    budgets = [int(r["budget"]) for r in _report_rows("out/bench/scaling.csv")]
    assert budgets == [1000, 4000, 16000, 40000]

    Path("out/registry.cfg").write_text(
        "default = de-en\nde-en = drafter_de.model\nru-en = drafter_ru.model\n",
        encoding="utf-8")
    for text, expected in (("Größe der Straße", "de-en"), ("Привет мир", "ru-en")):
        assert main(["route", "--registry", "out/registry.cfg", "--text", text]) == 0
        assert capsys.readouterr().out == expected + "\n"
