"""The README's library example runs and its CLI config examples load as written."""

import re
from pathlib import Path

from promptsan.cli import load_cli_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_cli_config_examples_load(tmp_path):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(examples) == 2
    for i, example in enumerate(examples):
        path = tmp_path / f"config{i}.json"
        path.write_text(example, encoding="utf-8")
        _, client = load_cli_config(str(path))
        getattr(client, "close", lambda: None)()
