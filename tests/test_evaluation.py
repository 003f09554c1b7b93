import csv
import json
import re

import pytest

from promptsan.client import (
    CHOICES_HEADER,
    REWRITE_HEADER,
    ChatRequest,
    ChatResponse,
    MockChatModel,
    TransportError,
)
from promptsan.evaluation import (
    Choice,
    EvalRow,
    QARecord,
    SanitizedText,
    aggregate,
    csqa_answer_prompt,
    docvqa_answer_prompt,
    emit_report,
    evaluate_item,
    load_dataset,
    run_experiment,
    synthetic_qa_records,
)
from promptsan.mechanisms import ClipBounds
from promptsan.metrics import all_metrics
from promptsan.pipeline import PipelineConfig


def csqa_line(idx: str, stem: str, gold: str = "A") -> str:
    return json.dumps(
        {
            "id": idx,
            "answerKey": gold,
            "question": {
                "stem": stem,
                "choices": [
                    {"label": label, "text": f"choice {label.lower()}"}
                    for label in ("A", "B", "C", "D", "E")
                ],
            },
        }
    )


@pytest.fixture
def csqa_file(tmp_path):
    path = tmp_path / "dev.jsonl"
    lines = [
        csqa_line("q1", "where would you keep a spare lantern"),
        "{ this is not json",
        csqa_line("q2", "what fills a quiet harbor at dawn", gold="C"),
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def docvqa_file(tmp_path):
    path = tmp_path / "dev.json"
    doc = {
        "dataset_name": "synthetic",
        "data": [
            {
                "questionId": 11,
                "question": "what is the invoice total",
                "answers": ["42 pounds"],
                "ocr_tokens": ["invoice", "total", "42", "pounds"],
            },
            {"questionId": 12, "question": "missing fields"},
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadDataset:
    def test_malformed_lines_collected(self, csqa_file):
        load = load_dataset(csqa_file, "csqa_jsonl")
        assert len(load.records) == 2
        assert len(load.errors) == 1
        assert "line 2" in load.errors[0]

    def test_sampling_is_seed_deterministic(self, tmp_path):
        path = tmp_path / "many.jsonl"
        path.write_text("\n".join(csqa_line(f"q{i}", f"question number {i}") for i in range(50)))
        first = load_dataset(str(path), "csqa_jsonl", sample=(20, 7))
        second = load_dataset(str(path), "csqa_jsonl", sample=(20, 7))
        assert [r.id for r in first.records] == [r.id for r in second.records]
        different = load_dataset(str(path), "csqa_jsonl", sample=(20, 8))
        assert [r.id for r in different.records] != [r.id for r in first.records]

    def test_four_choice_record_rejected(self, tmp_path):
        doc = json.loads(csqa_line("bad", "stem"))
        doc["question"]["choices"] = doc["question"]["choices"][:4]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc))
        load = load_dataset(str(path), "csqa_jsonl")
        assert not load.records
        assert "5 choices" in load.errors[0]

    def test_gold_must_be_choice_label(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(csqa_line("bad", "stem", gold="Z"))
        load = load_dataset(str(path), "csqa_jsonl")
        assert not load.records and len(load.errors) == 1

    def test_docvqa_parsing(self, docvqa_file):
        load = load_dataset(docvqa_file, "docvqa_json")
        assert len(load.records) == 1
        record = load.records[0]
        assert record.dataset == "docvqa"
        assert record.context == ("invoice", "total", "42", "pounds")
        assert record.gold == "42 pounds"
        assert len(load.errors) == 1

    def test_a_question_that_is_not_a_string_is_a_load_error(self, tmp_path):
        doc = json.loads(csqa_line("bad", "stem"))
        doc["question"]["stem"] = 5
        path = tmp_path / "bad.jsonl"
        path.write_text(csqa_line("good", "where is the lantern") + "\n" + json.dumps(doc))
        load = load_dataset(str(path), "csqa_jsonl")
        assert [r.id for r in load.records] == ["good"]
        assert load.errors == ("line 2: record bad: question must be a string",)

    def test_ocr_tokens_that_are_not_a_list_are_a_load_error(self, tmp_path):
        entry = {"questionId": 13, "question": "what is the total", "answers": ["ten"], "ocr_tokens": "total ten"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": [entry]}))
        load = load_dataset(str(path), "docvqa_json")
        assert not load.records
        assert load.errors == ("entry 0: ocr_tokens must be a list",)

    def test_unknown_format_rejected(self, csqa_file):
        with pytest.raises(ValueError):
            load_dataset(csqa_file, "weird_format")

    def test_oversample_rejected(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(csqa_line("a", "s") + "\n" + csqa_line("b", "s"))
        with pytest.raises(ValueError):
            load_dataset(str(path), "csqa_jsonl", sample=(5, 0))


def record_for(stem: str, gold: str = "B") -> QARecord:
    return QARecord(
        id="r1",
        question=stem,
        gold=gold,
        dataset="csqa",
        choices=tuple(Choice(l, f"choice {l.lower()}") for l in ("A", "B", "C", "D", "E")),
    )


class StaticSanitizer:
    name = "static"
    temperature = 0.5

    def __init__(self, text: str, ledger_total: float = 12.0):
        self.text = text
        self.ledger_total = ledger_total

    def __call__(self, question: str) -> SanitizedText:
        return SanitizedText(text=self.text, ledger_total=self.ledger_total)


class IdentitySanitizer(StaticSanitizer):
    def __call__(self, question: str) -> SanitizedText:
        return SanitizedText(text=question, ledger_total=self.ledger_total)


class ScriptedAnswerer:
    def __init__(self, replies: list[str]):
        self.replies = list(replies)
        self.calls = 0

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.calls += 1
        text = self.replies.pop(0)
        return ChatResponse(text=text, tokens_generated=len(text.split()))


class FailingAnswerer:
    def complete(self, req: ChatRequest) -> ChatResponse:
        raise TransportError("answerer down")


class TestEvaluateItem:
    def test_upper_corner(self):
        record = record_for("where would you keep a spare lantern")
        row = evaluate_item(
            record, IdentitySanitizer(""), ScriptedAnswerer(["B"]), repeat_index=0
        )
        assert row.rouge1 == row.rougeL == row.bleu == 1.0
        assert row.utility == 1.0
        assert row.ledger_total == 12.0

    def test_lower_corner(self):
        record = record_for("where would you keep a spare lantern near the old harbor gate")
        unrelated = " ".join(f"zq{i}" for i in range(20))
        row = evaluate_item(record, StaticSanitizer(unrelated), ScriptedAnswerer(["E"]))
        assert row.rouge1 == 0.0 and row.rougeL == 0.0
        assert row.bleu < 0.05
        assert row.utility == 0.0

    def test_malformed_answer_reasked_once(self):
        record = record_for("stem words here", gold="C")
        answerer = ScriptedAnswerer(["not a label", "C"])
        row = evaluate_item(record, IdentitySanitizer(""), answerer)
        assert answerer.calls == 2
        assert row.utility == 1.0

    def test_persistent_malformed_answer_scores_zero(self):
        record = record_for("stem words here")
        answerer = ScriptedAnswerer(["nope", "still nope"])
        row = evaluate_item(record, IdentitySanitizer(""), answerer)
        assert row.utility == 0.0
        assert row.note == "malformed answer"
        assert not row.failed

    def test_answerer_failure_marks_row(self):
        record = record_for("stem words here")
        row = evaluate_item(record, IdentitySanitizer(""), FailingAnswerer())
        assert row.failed
        assert row.utility == 0.0

    def test_docvqa_utility_is_answer_rouge1(self):
        record = QARecord(
            id="d1", question="what is the total", gold="42 pounds",
            dataset="docvqa", context=("invoice", "42", "pounds"),
        )
        row = evaluate_item(record, IdentitySanitizer(""), ScriptedAnswerer(["42 pounds"]))
        assert row.utility == 1.0

    def test_one_round_consistency_against_recompute(self, mock_client):
        # Straight-line oracle: recompute privacy from the sanitizer output.
        records = synthetic_qa_records(20, seed=2)
        config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), seed=0)
        rows = run_experiment(
            records, config, mock_client, methods=("group-ndp",), temperatures=(0.5,), repeats=1
        )
        from promptsan.evaluation import SANITIZER_BUILDERS, stable_seed

        sanitizer = SANITIZER_BUILDERS["group-ndp"](
            "group-ndp", 0.5, config, mock_client, stable_seed(0, "group-ndp", 0)
        )
        for record, row in zip(records, rows):
            redo = sanitizer(record.question)
            privacy = all_metrics(record.question, redo.text)
            assert row.rouge1 == privacy["rouge1"]
            assert row.rougeL == privacy["rougeL"]
            assert row.bleu == privacy["bleu"]
            assert row.ledger_total == redo.ledger_total


class FailingItemClient:
    """The mock, except that every request containing ``marker`` fails."""

    def __init__(self, marker: str) -> None:
        self.mock = MockChatModel(seed=0)
        self.marker = marker

    def complete(self, req: ChatRequest) -> ChatResponse:
        if self.marker in req.messages[-1].content:
            raise TransportError("service down")
        return self.mock.complete(req)


class TypeErrorOnce:
    """The mock, except that the first request holding ``marker`` raises ``TypeError(message)``.

    ``message`` is formatted with the request's text as ``{request}``.
    """

    def __init__(self, marker: str, message: str) -> None:
        self.mock = MockChatModel(seed=0)
        self.marker = marker
        self.message: str | None = message

    def complete(self, req: ChatRequest) -> ChatResponse:
        content = req.messages[-1].content
        if self.message is not None and self.marker in content:
            message, self.message = self.message, None
            raise TypeError(message.format(request=content))
        return self.mock.complete(req)


class TestSanitizerFailures:
    CONFIG = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=4, seed=0, epsilon2=1.0)

    def test_failed_item_becomes_a_failed_row_and_the_grid_goes_on(self):
        records = synthetic_qa_records(3, seed=2)
        grid = dict(methods=("group-ndp", "paraphrase"), temperatures=(0.5, 1.0), repeats=2)
        rows = run_experiment(records, self.CONFIG, FailingItemClient(records[1].question), **grid)
        baseline = run_experiment(records, self.CONFIG, MockChatModel(seed=0), **grid)
        assert len(rows) == 24
        failed = [r for r in rows if r.failed]
        assert len(failed) == 8 and {r.item_id for r in failed} == {records[1].id}
        assert all(r.note.startswith("sanitizer failed in stage-1 rewriting: ") for r in failed)
        # Every rewrite of that item failed before anything was charged.
        assert all(r.ledger_total == 0.0 for r in failed)
        assert [r for r in rows if not r.failed] == [r for r in baseline if r.item_id != records[1].id]
        assert {a["failed_count"] for a in aggregate(rows)} == {2}

    def one_failed_row(self, methods, client=None, answerer=None) -> EvalRow:
        """Runs the grid plainly and with these services; every row but one must match."""
        records = synthetic_qa_records(3, seed=2)
        grid = dict(methods=methods, temperatures=(0.5, 1.0), repeats=2)
        baseline = run_experiment(records, self.CONFIG, MockChatModel(seed=0), **grid)
        rows = run_experiment(
            records, self.CONFIG, client or MockChatModel(seed=0), answerer=answerer, **grid
        )
        failed = [i for i, r in enumerate(rows) if r.failed]
        assert len(failed) == 1 and len(rows) == len(baseline)
        as_json = [json.dumps(r.to_json_dict()) for r in rows]
        assert as_json[: failed[0]] + as_json[failed[0] + 1 :] == [
            json.dumps(r.to_json_dict()) for i, r in enumerate(baseline) if i != failed[0]
        ]
        assert not [r.note for r in rows for record in records if record.question in r.note]
        return rows[failed[0]]

    def test_an_untyped_answerer_error_fails_one_row_without_its_message(self):
        # The error quotes the answer request, so the note keeps only its type's name.
        answerer = TypeErrorOnce(CHOICES_HEADER, "cannot read {request!r}")
        failed = self.one_failed_row(("group-ndp", "paraphrase"), answerer=answerer)
        assert failed.note == "answerer failed: TypeError"
        assert (failed.method, failed.utility) == ("group-ndp", 0.0)

    def test_an_untyped_error_in_the_paraphrase_rewrite_fails_one_row(self):
        question = synthetic_qa_records(3, seed=2)[1].question
        message = "unsupported operand type(s) for +: 'int' and 'NoneType'"
        failed = self.one_failed_row(("paraphrase",), client=TypeErrorOnce(question, message))
        assert (failed.method, failed.ledger_total) == ("paraphrase", 0.0)
        assert failed.note == f"sanitizer failed in stage-1 rewriting: {message}"

    @pytest.mark.parametrize("method", ["group-ndp", "paraphrase"])
    def test_a_whitebox_config_is_refused_before_any_call(self, method):
        config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=4, mode="whitebox")
        client = FailingItemClient("")  # a call would make a failed row, not an error
        with pytest.raises(ValueError, match="black-box mode only, got mode 'whitebox'"):
            run_experiment(synthetic_qa_records(1, seed=2), config, client, methods=(method,))

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"methods": ()}, "methods must be a non-empty list without repeats, got []"),
            ({"methods": ("group-ndp", "paraphrase", "group-ndp")},
             "methods must be a non-empty list without repeats, got ['group-ndp', 'paraphrase', 'group-ndp']"),
            ({"temperatures": ()}, "temperatures must be a non-empty list without repeats, got []"),
            ({"temperatures": (0.5, 1.0, 0.50)}, "temperatures must be a non-empty list without repeats"),
        ],
    )
    def test_an_empty_or_repeated_grid_axis_is_refused_before_any_call(self, grid, message):
        client = FailingItemClient("")  # a call would make a failed row, not an error
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(synthetic_qa_records(1, seed=2), self.CONFIG, client, **grid)

    def test_failed_row_carries_the_budget_already_charged(self):
        # Stage 3 fails after Stage 1 charged the rewrites and Stage 2 the DP release.
        records = synthetic_qa_records(2, seed=2)
        grid = dict(methods=("group-ndp", "group-dp"), temperatures=(0.5,), repeats=1)
        rows = run_experiment(records, self.CONFIG, FailingItemClient(REWRITE_HEADER), **grid)
        baseline = run_experiment(records, self.CONFIG, MockChatModel(seed=0), **grid)
        assert all(r.failed for r in rows)
        assert all(r.note.startswith("sanitizer failed in stage-3 generation: ") for r in rows)
        assert [r.ledger_total for r in rows] == [r.ledger_total for r in baseline]
        assert min(r.ledger_total for r in rows) > 0


def row(method="m", temperature=1.0, repeat=0, **vals) -> EvalRow:
    defaults = dict(rouge1=0.5, rougeL=0.4, bleu=0.3, utility=1.0, ledger_total=10.0)
    defaults.update(vals)
    return EvalRow(
        method=method, temperature=temperature, repeat_index=repeat, item_id="x", **defaults
    )


class TestAggregate:
    def test_identical_repeats_zero_std(self):
        rows = [row(repeat=i) for i in range(5)]
        agg = aggregate(rows)[0]
        assert agg["q_rouge1_mean"] == 0.5
        assert agg["q_rouge1_std"] == 0.0

    def test_two_repeat_hand_arithmetic(self):
        rows = [row(repeat=0, utility=0.0), row(repeat=1, utility=1.0)]
        agg = aggregate(rows)[0]
        assert agg["utility_mean"] == 0.5
        assert agg["utility_std"] == 0.5

    def test_permutation_invariant(self):
        rows = [row(repeat=i, utility=float(i % 2)) for i in range(6)]
        fwd = aggregate(rows)
        rev = aggregate(rows[::-1])
        assert fwd == rev

    def test_failed_rows_excluded_and_counted(self):
        rows = [row(repeat=0, utility=1.0), row(repeat=0, failed=True, utility=0.0)]
        agg = aggregate(rows)[0]
        assert agg["utility_mean"] == 1.0
        assert agg["failed_count"] == 1

    def test_groups_sorted_by_method_then_temperature(self):
        rows = [row(method="b", temperature=0.5), row(method="a", temperature=1.5),
                row(method="a", temperature=0.1)]
        agg = aggregate(rows)
        assert [(a["method"], a["temperature"]) for a in agg] == [
            ("a", 0.1), ("a", 1.5), ("b", 0.5)
        ]


class TestEmitReport:
    def test_single_group_two_lines(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(aggregate([row()]), str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method,temperature,q_rouge1_mean")

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "report.csv"
        aggs = aggregate([row(repeat=0, utility=1 / 3), row(repeat=1, utility=2 / 7)])
        emit_report(aggs, str(path))
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert float(parsed[0]["utility_mean"]) == aggs[0]["utility_mean"]
        assert float(parsed[0]["q_bleu_std"]) == aggs[0]["q_bleu_std"]

    def test_empty_aggregates_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], str(path))
        assert path.read_text().strip().splitlines() == [
            "method,temperature,q_rouge1_mean,q_rouge1_std,q_rougeL_mean,q_rougeL_std,"
            "q_bleu_mean,q_bleu_std,utility_mean,utility_std,ledger_total_mean"
        ]


class TestSyntheticRecords:
    def test_deterministic(self):
        first = synthetic_qa_records(10, seed=4)
        second = synthetic_qa_records(10, seed=4)
        assert first == second

    def test_valid_csqa_shape(self):
        for record in synthetic_qa_records(25, seed=1):
            assert record.dataset == "csqa"
            assert len(record.choices) == 5
            assert record.gold in {c.label for c in record.choices}

    def test_docvqa_variant(self):
        for record in synthetic_qa_records(5, seed=1, dataset="docvqa"):
            assert record.context is not None
            assert record.gold


class TestAnswerPrompts:
    def test_csqa_prompt_shape(self):
        record = record_for("where is the kettle")
        prompt = csqa_answer_prompt(record.question, record.choices)
        assert "Question: where is the kettle" in prompt
        assert "Choices:" in prompt
        assert prompt.splitlines()[-1] == "Answer:"

    def test_docvqa_prompt_shape(self):
        prompt = docvqa_answer_prompt("what total", ("invoice", "42"))
        assert "Document tokens: invoice 42" in prompt
        assert "Question: what total" in prompt
