"""The README's "Library quick start" block runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
    wmap = float(re.fullmatch(r"weighted MAP: (\S+)\n", capsys.readouterr().out).group(1))
    assert 0.0 <= wmap <= 1.0
