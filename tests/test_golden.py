"""Byte-identity guard over seeded end-to-end outputs.

Four sha256 digests cover seeded outputs: ``GOLDEN_SHA256`` the NDP ones
(``run_pipeline`` result JSON with its ledger rows across schedules, leakage
retries and mock seeds, the CLI ``sanitize`` JSON, the CLI ``evaluate`` CSV
and a group-ndp/paraphrase grid CSV), ``GOLDEN_DP_SHA256`` the same outputs
with the DP keyword release, ``WHITEBOX_SHA256`` white-box ``run_pipeline``
JSON, so the exponential-mechanism sampler must return the same draw for
every seed, and ``REPORT_SHA256`` the report paths the others miss (a DocVQA
``evaluate`` CSV with its ``--audit`` rows, a grid with an all-failed cell,
and the ``score`` JSON). A refactor that claims "same behaviour" must leave
every digest unchanged; a change that is announced as behavioural re-pins one
and says why.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from promptsan.cli import main
from promptsan.client import ChatRequest, ChatResponse, ClientError, MockChatModel
from promptsan.evaluation import (
    aggregate,
    emit_report,
    run_experiment,
    synthetic_qa_records,
    write_dataset,
)
from promptsan.keywords import ReleaseMethod
from promptsan.mechanisms import ClipBounds, LogitVector
from promptsan.pipeline import PipelineConfig, run_pipeline
from promptsan.rewriting import schedule_range

from conftest import ConstantStepOracle

# GOLDEN, GOLDEN_DP and WHITEBOX were re-pinned when the ledger stopped
# recording free post-processing: the result JSON lost its zero-cost
# post_process rows and its top-level ledger_total (the total stays as
# ledger.total) and gained exemplar_fallback. Every ledger.total held.
# REPORT was last re-pinned when BLEU began to score a hypothesis with no
# unigram match 0 and to smooth higher zero orders by NIST geometric smoothing.
GOLDEN_SHA256 = "8350d5eef29a66348371968469dde304cab6ca7b9d70c97c68be025f1621cbcd"
# The dp-certain case pins a release that is not empty.
GOLDEN_DP_SHA256 = "acb2b6bc2cd9896d9453ae85de6a070a90a884affad070840c850e6353657dff"
WHITEBOX_SHA256 = "b339bd1741e64a10338bc4e5faeb8de9eda860a5539f32cb4a0c4fc6409ef93c"
REPORT_SHA256 = "0e0f514466f2ad35bdb5bf465a373049f6d43e532352668513082b3651e7fb39"

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


def _pipeline_outputs(method: ReleaseMethod, eps2: float | None) -> list[str]:
    bounds = ClipBounds(0.0, 8.0)
    schedules = (1.0, (0.5, 0.5, 0.75, 0.75, 1.0, 1.0, 1.25, 1.25, 1.5, 1.5))
    out = []
    for prompt, schedule, retry, mock_seed in itertools.product(PROMPTS, schedules, (0, 2), (0, 3)):
        config = PipelineConfig(
            bounds=bounds, m=10, k=10, schedule=schedule, release_method=method,
            epsilon2=eps2, seed=11, retry_on_leakage=retry,
        )
        for client in (MockChatModel(seed=mock_seed), LeakyFinalClient(mock_seed)):
            result = run_pipeline(prompt, config, client)
            out.append(json.dumps(result.to_json_dict(), ensure_ascii=False))
    return out


def _cli_sanitize(tmp_path, capsys, configs) -> list[str]:
    out = []
    for name, extra in configs:
        config = {"bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": 7, "use_mock": True, **extra}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert main(["sanitize", "--config", str(path), "--prompt", PROMPTS[1]]) == 0
        out.append(capsys.readouterr().out)
    return out


def _cli_evaluate(tmp_path, capsys) -> str:
    config = tmp_path / "evaluate.json"
    config.write_text(json.dumps({"bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": 7, "use_mock": True}))
    dataset = tmp_path / "dev.jsonl"
    write_dataset(synthetic_qa_records(3, seed=5), dataset)
    csv_path = tmp_path / "cli.csv"
    assert main([
        "evaluate", "--dataset", str(dataset), "--format", "csqa_jsonl",
        "--config", str(config), "--out", str(csv_path),
        "--repeats", "2", "--methods", "group-ndp,paraphrase", "--temperatures", "0.25,1.0",
    ]) == 0
    capsys.readouterr()
    return csv_path.read_text(encoding="utf-8")


def _grid_csv(tmp_path, methods: tuple[str, ...]) -> str:
    config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=6, k=8, seed=3, epsilon2=1.0)
    rows = run_experiment(
        synthetic_qa_records(2, seed=9), config, MockChatModel(seed=1),
        methods=methods, temperatures=(0.5, 1.5), repeats=2, seed=4,
    )
    path = tmp_path / "grid.csv"
    emit_report(aggregate(rows), str(path))
    return path.read_text(encoding="utf-8")


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\x1e".join(parts).encode("utf-8")).hexdigest()


def test_seeded_outputs_are_byte_identical(tmp_path, capsys):
    parts = (
        _pipeline_outputs(ReleaseMethod.NDP, None)
        + _cli_sanitize(tmp_path, capsys, (
            ("ndp", {}),
            ("scheduled", {"schedule": "0.5:1.5:0.25", "retry_on_leakage": 2}),
        ))
        + [_cli_evaluate(tmp_path, capsys), _grid_csv(tmp_path, ("group-ndp", "paraphrase"))]
    )
    assert _digest(parts) == GOLDEN_SHA256


def test_seeded_dp_outputs_are_byte_identical(tmp_path, capsys):
    parts = (
        _pipeline_outputs(ReleaseMethod.DP, 1.0)
        + _cli_sanitize(tmp_path, capsys, (
            ("dp", {"release_method": "dp", "epsilon2": 2.0, "k": 5}),
            # Every other DP case releases no word; this one releases five.
            ("dp-certain", {"release_method": "dp", "epsilon2": 1e9}),
        ))
        + [_grid_csv(tmp_path, ("group-dp",))]
    )
    assert _digest(parts) == GOLDEN_DP_SHA256


class TableOracle:
    """White-box oracle cycling through fixed logit vectors by context length."""

    def __init__(self, tables: tuple[LogitVector, ...]) -> None:
        self.vocab = ("</s>",) + tuple(f"w{i:05d}" for i in range(1, tables[0].vocab_size))
        self.eos_index = 0
        self._tables = tables

    def step_logits(self, context) -> LogitVector:
        return self._tables[len(context) % len(self._tables)]


def _whitebox_outputs() -> list[str]:
    values = np.random.default_rng(2024).normal(4.0, 2.5, size=(3, 32_000))
    values[:, 0] = -10.0  # end-of-sequence is rare
    # One table sorted ascending, so cold draws land in the last indices.
    values[2] = np.sort(values[2])
    big = TableOracle(tuple(LogitVector(row) for row in values))
    tiny = ConstantStepOracle(vocab=("alpha", "beta", "gamma", "</s>"), logits=(1.0, 6.5, 3.0, 0.5), eos_index=3)
    schedules = (0.1, 0.5, 1.0, 3.0, schedule_range(0.5, 1.4, 0.1))
    out = []
    for schedule, (oracle, seed) in itertools.product(schedules, ((big, 5), (big, 6), (tiny, 5))):
        config = PipelineConfig(
            bounds=ClipBounds(0.0, 8.0), m=10, k=6, schedule=schedule,
            mode="whitebox", seed=seed, max_tokens=24,
        )
        result = run_pipeline(PROMPTS[0], config, MockChatModel(seed=1), oracle=oracle)
        out.append(json.dumps(result.to_json_dict(), ensure_ascii=False))
    return out


def test_seeded_whitebox_outputs_are_byte_identical():
    digest = hashlib.sha256("\x1e".join(_whitebox_outputs()).encode("utf-8")).hexdigest()
    assert digest == WHITEBOX_SHA256


class RefusingClient:
    """The mock, except that it refuses every request at one temperature."""

    def __init__(self, seed: int, refused: float) -> None:
        self.mock = MockChatModel(seed=seed)
        self.refused = refused

    def complete(self, req: ChatRequest) -> ChatResponse:
        if req.temperature == self.refused:
            raise ClientError(f"refused temperature {req.temperature}", status=400)
        return self.mock.complete(req)


def _cli_docvqa_evaluate(tmp_path, capsys) -> list[str]:
    config = tmp_path / "docvqa.json"
    config.write_text(json.dumps({"bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": 7, "use_mock": True}))
    dataset = tmp_path / "docvqa_dev.json"
    write_dataset(synthetic_qa_records(3, seed=6, dataset="docvqa"), dataset)
    csv_path, audit = tmp_path / "docvqa.csv", tmp_path / "docvqa_audit.jsonl"
    assert main([
        "evaluate", "--dataset", str(dataset), "--format", "docvqa_json",
        "--config", str(config), "--out", str(csv_path), "--audit", str(audit),
        "--repeats", "2", "--methods", "group-ndp,paraphrase", "--temperatures", "0.5,1.25",
    ]) == 0
    capsys.readouterr()
    return [csv_path.read_text(encoding="utf-8"), audit.read_text(encoding="utf-8")]


def _failed_cell_report(tmp_path) -> list[str]:
    config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=4, k=8, seed=3)
    rows = run_experiment(
        synthetic_qa_records(2, seed=9), config, RefusingClient(seed=1, refused=0.5),
        methods=("group-ndp", "paraphrase"), temperatures=(0.5, 1.0), repeats=2, seed=4,
    )
    aggregates = aggregate(rows)
    path = tmp_path / "failed.csv"
    emit_report(aggregates, str(path))
    return [path.read_text(encoding="utf-8"), json.dumps(aggregates)]


def _cli_score(capsys) -> list[str]:
    pairs = (
        ("The silver archive stores a journal.", "The silver archive stores a journal."),
        ("the cat sat on the mat", "the mat sat on the cat"),
        ("Where is the harbor festival?", "When does the festival open at the harbor?"),
        ("alpha beta", "gamma delta"),
        ("a b c d e", "a b c d"),
        ("", "something"),
    )
    out = []
    for reference, hypothesis in pairs:
        assert main(["score", "--reference", reference, "--hypothesis", hypothesis]) == 0
        out.append(capsys.readouterr().out)
    return out


def test_report_outputs_are_byte_identical(tmp_path, capsys):
    parts = _cli_docvqa_evaluate(tmp_path, capsys) + _failed_cell_report(tmp_path) + _cli_score(capsys)
    assert "nan" in parts[2] and '"failed_count": 4' in parts[3]
    assert _digest(parts) == REPORT_SHA256
