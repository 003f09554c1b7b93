"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
