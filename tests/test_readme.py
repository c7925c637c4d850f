"""The README's Python quick start runs against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs(capsys):
    text = README.read_text()
    quick_start = text[text.index("## Library quick start"):]
    blocks = re.findall(r"```python\n(.*?)```", quick_start, flags=re.DOTALL)
    assert blocks, "no python block under the quick start heading"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.strip()
