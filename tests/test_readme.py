"""The README's library example runs, its named keyword arguments match run_pipeline, and its
CLI config examples load as written."""

import inspect
import re
from pathlib import Path

from promptsan import run_pipeline
from promptsan.cli import load_cli_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_library_surface_names_the_keyword_arguments_of_run_pipeline():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"`run_pipeline` takes \w+\s+keyword arguments?:(.*?)\.\s", section, re.S).group(1)
    params = inspect.signature(run_pipeline).parameters.values()
    assert re.findall(r"`(\w+)`,", sentence) == [p.name for p in params if p.kind is p.KEYWORD_ONLY]


def test_cli_config_examples_load(tmp_path):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(examples) == 2
    for i, example in enumerate(examples):
        path = tmp_path / f"config{i}.json"
        path.write_text(example, encoding="utf-8")
        _, client = load_cli_config(str(path))
        getattr(client, "close", lambda: None)()
