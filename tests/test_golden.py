"""Byte-identity guard over seeded end-to-end outputs.

One sha256 digest covers the ``run_pipeline`` result JSON (ledger rows
included) across release methods, schedules, leakage retries and mock seeds,
the CLI ``sanitize`` JSON, and the CLI ``evaluate`` CSV of a small grid. A
refactor that claims "same behaviour" must leave the digest unchanged; a
change that is announced as behavioural re-pins it and says why.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from promptsan.cli import main
from promptsan.client import ChatRequest, ChatResponse, MockChatModel
from promptsan.evaluation import aggregate, emit_report, run_experiment, synthetic_qa_records
from promptsan.keywords import ReleaseMethod
from promptsan.mechanisms import ClipBounds
from promptsan.pipeline import PipelineConfig, run_pipeline
from promptsan.rewriting import RewriteSchedule

GOLDEN_SHA256 = "aa2ac32f72a115b199ae802ced25ba41162aca687f1bbc7dd4bff4fd1abcfaed"

PROMPTS = (
    "Where would the silver archive usually store a hidden journal during the harbor festival?",
    "How can a patient named Alice Moreau at 12 Rue Cler buy a big quick movie ticket? "
    "Which quiet garden would the careful baker visit before the autumn parade?",
)


class LeakyFinalClient:
    """The mock, except that the final generation echoes the exemplar verbatim."""

    def __init__(self, seed: int) -> None:
        self.mock = MockChatModel(seed=seed)

    def complete(self, req: ChatRequest) -> ChatResponse:
        lines = req.messages[-1].content.splitlines()
        if len(lines) == 4 and lines[0].startswith("Refer to the following question"):
            return ChatResponse(text=lines[1], tokens_generated=len(lines[1].split()))
        return self.mock.complete(req)


def _pipeline_outputs() -> list[str]:
    bounds = ClipBounds(0.0, 8.0)
    schedules = (1.0, RewriteSchedule.from_range(0.5, 1.5, 0.25, count_each=2))
    releases = ((ReleaseMethod.NDP, None), (ReleaseMethod.DP, 1.0))
    out = []
    for prompt, schedule, (method, eps2), retry, mock_seed in itertools.product(
        PROMPTS, schedules, releases, (0, 2), (0, 3)
    ):
        config = PipelineConfig(
            bounds=bounds, m=10, k=10, schedule=schedule, release_method=method,
            epsilon2=eps2, seed=11, retry_on_leakage=retry,
        )
        for client in (MockChatModel(seed=mock_seed), LeakyFinalClient(mock_seed)):
            result = run_pipeline(prompt, config, client)
            out.append(json.dumps(result.to_json_dict(), ensure_ascii=False))
    return out


def _cli_outputs(tmp_path, capsys) -> list[str]:
    out = []
    for name, extra in (
        ("ndp", {}),
        ("dp", {"release_method": "dp", "epsilon2": 2.0, "k": 5}),
        ("scheduled", {"schedule": "0.5:1.5:0.25", "retry_on_leakage": 2}),
    ):
        config = {"bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": 7, "use_mock": True, **extra}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert main(["sanitize", "--config", str(path), "--prompt", PROMPTS[1]]) == 0
        out.append(capsys.readouterr().out)

    dataset = tmp_path / "dev.jsonl"
    dataset.write_text(
        "".join(
            json.dumps(
                {
                    "id": r.id,
                    "answerKey": r.gold,
                    "question": {
                        "stem": r.question,
                        "choices": [{"label": c.label, "text": c.text} for c in r.choices],
                    },
                }
            )
            + "\n"
            for r in synthetic_qa_records(3, seed=5)
        )
    )
    csv_path = tmp_path / "cli.csv"
    assert main([
        "evaluate", "--dataset", str(dataset), "--format", "csqa_jsonl",
        "--config", str(tmp_path / "ndp.json"), "--out", str(csv_path),
        "--repeats", "2", "--methods", "group-ndp,paraphrase", "--temperatures", "0.25,1.0",
    ]) == 0
    capsys.readouterr()
    out.append(csv_path.read_text(encoding="utf-8"))
    return out


def _grid_csv(tmp_path) -> str:
    config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=6, k=8, seed=3, epsilon2=1.0)
    rows = run_experiment(
        synthetic_qa_records(2, seed=9), config, MockChatModel(seed=1),
        methods=("group-ndp", "group-dp", "paraphrase"), temperatures=(0.5, 1.5), repeats=2, seed=4,
    )
    path = tmp_path / "grid.csv"
    emit_report(aggregate(rows), str(path))
    return path.read_text(encoding="utf-8")


def test_seeded_outputs_are_byte_identical(tmp_path, capsys):
    parts = _pipeline_outputs() + _cli_outputs(tmp_path, capsys) + [_grid_csv(tmp_path)]
    digest = hashlib.sha256("\x1e".join(parts).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256
