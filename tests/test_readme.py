"""README's library example, run as written, so every name it imports stays
part of the top-level package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    text, metrics = capsys.readouterr().out.splitlines()
    assert text
    assert all(float(m) > 0 for m in metrics.split())
