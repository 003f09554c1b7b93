"""Integrated privacy/utility evaluation harness.

One QA round measures both sides at once: privacy as the similarity between
the original question p and its sanitized replacement p' (lower is better),
utility as the quality of the answer an LLM gives to p'. Sanitizers are
pluggable so the pipeline and plain paraphrasing baselines run behind the
same contract, and the whole loop is deterministic under the mock client.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .client import (
    CHOICES_HEADER,
    DOC_TOKENS_PREFIX,
    QUESTION_PREFIX,
    ChatClient,
    ChatRequest,
    ClientError,
    TransportError,
)
from .keywords import ReleaseMethod
from .mechanisms import PrivacyLedger
from .metrics import all_metrics, rouge1
from .normalization import tokenize
from .pipeline import PipelineConfig, PipelineStageError, run_pipeline
from .rewriting import RewriteParams, paraphrase_blackbox

CSQA_LABELS = ("A", "B", "C", "D", "E")

# The criterion-10 grid of rewrite temperatures.
TEMPERATURE_GRID = (0.1, 0.15, 0.2, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


@dataclass(frozen=True)
class Choice:
    label: str
    text: str


@dataclass(frozen=True)
class QARecord:
    id: str
    question: str
    gold: str
    dataset: str  # "csqa" | "docvqa"
    context: tuple[str, ...] | None = None
    choices: tuple[Choice, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.question, str):
            raise ValueError(f"record {self.id}: question must be a string")
        if self.dataset == "csqa":
            if self.choices is None or len(self.choices) != 5:
                raise ValueError(f"record {self.id}: csqa requires exactly 5 choices")
            if self.gold not in {c.label for c in self.choices}:
                raise ValueError(f"record {self.id}: gold {self.gold!r} is not a choice label")
        elif self.dataset == "docvqa":
            if self.context is None:
                raise ValueError(f"record {self.id}: docvqa requires OCR context tokens")
        else:
            raise ValueError(f"unknown dataset kind: {self.dataset!r}")


@dataclass(frozen=True)
class DatasetLoad:
    records: tuple[QARecord, ...]
    errors: tuple[str, ...]

    def error_fraction(self) -> float:
        total = len(self.records) + len(self.errors)
        return len(self.errors) / total if total else 0.0


def _parse_csqa_line(line: str) -> QARecord:
    doc = json.loads(line)
    q = doc["question"]
    choices = tuple(Choice(c["label"], c["text"]) for c in q["choices"])
    return QARecord(
        id=str(doc["id"]),
        question=q["stem"],
        gold=str(doc["answerKey"]),
        dataset="csqa",
        choices=choices,
    )


def _parse_docvqa_entry(doc: dict) -> QARecord:
    answers = doc["answers"]
    if not isinstance(answers, list) or not answers:
        raise ValueError("missing answers")
    tokens = doc["ocr_tokens"]
    if not isinstance(tokens, list):
        raise ValueError("ocr_tokens must be a list")
    return QARecord(
        id=str(doc["questionId"]),
        question=doc["question"],
        gold=str(answers[0]),
        dataset="docvqa",
        context=tuple(str(t) for t in tokens),
    )


def load_dataset(
    path: str,
    format: str,
    sample: tuple[int, int] | None = None,
) -> DatasetLoad:
    """Parse a public QA dataset file into records.

    ``sample`` is an optional (n, seed) pair drawing n records without
    replacement. Malformed records are collected, not raised; callers decide
    how many errors abort the run.
    """
    records: list[QARecord] = []
    errors: list[str] = []
    if format == "csqa_jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    records.append(_parse_csqa_line(line))
                except (ValueError, KeyError, TypeError) as exc:
                    errors.append(f"line {lineno}: {exc}")
    elif format == "docvqa_json":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        data = doc.get("data", []) if isinstance(doc, dict) else None
        if not isinstance(data, list):
            raise ValueError("a docvqa_json file must be an object with a data list")
        for idx, entry in enumerate(data):
            try:
                records.append(_parse_docvqa_entry(entry))
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"entry {idx}: {exc}")
    else:
        raise ValueError(f"unknown dataset format: {format!r}")

    if sample is not None:
        n, seed = sample
        if n > len(records):
            raise ValueError(f"cannot sample {n} items from {len(records)} records")
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(records), size=n, replace=False)
        records = [records[i] for i in indices]
    return DatasetLoad(records=tuple(records), errors=tuple(errors))


# --- sanitizer oracles -------------------------------------------------------


@dataclass(frozen=True)
class SanitizedText:
    text: str
    ledger_total: float


class Sanitizer(Protocol):
    """Sanitizes one question.

    A typed failure is a ``PipelineStageError`` whose ``ledger`` holds the
    budget charged before it; the grid records it as a failed row.
    """

    name: str
    temperature: float

    def __call__(self, question: str) -> SanitizedText: ...


def stable_seed(*parts: object) -> int:
    material = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class PipelineSanitizer:
    """Full three-stage sanitization behind the sanitizer contract.

    ``config`` already holds the cell's release method and temperature; a
    call only sets the question's seed.
    """

    name: str
    temperature: float
    config: PipelineConfig
    client: ChatClient
    repeat_seed: int

    def __call__(self, question: str) -> SanitizedText:
        config = replace(self.config, seed=stable_seed(self.repeat_seed, question))
        result = run_pipeline(question, config, self.client)
        return SanitizedText(text=result.sanitized, ledger_total=result.ledger.total())


@dataclass(frozen=True)
class ParaphraseSanitizer:
    """Single temperature-controlled rewrite, the document-level baseline."""

    name: str
    temperature: float
    params: RewriteParams
    client: ChatClient
    repeat_seed: int

    def __call__(self, question: str) -> SanitizedText:
        ledger = PrivacyLedger()
        try:
            rewrite = paraphrase_blackbox(
                question, self.params, self.client, ledger,
                seed=stable_seed(self.repeat_seed, question),
            )
        except Exception as exc:
            raise PipelineStageError("stage-1 rewriting", exc, ledger) from exc
        return SanitizedText(text=rewrite.text, ledger_total=ledger.total())


def _pipeline_builder(method: ReleaseMethod) -> Callable[..., Sanitizer]:
    def build(name, temperature, config, client, repeat_seed) -> Sanitizer:
        cell = replace(config, release_method=method, schedule=temperature)
        return PipelineSanitizer(name, temperature, cell, client, repeat_seed)

    return build


# Each builder takes (name, temperature, config, client, repeat_seed) and
# resolves the cell's settings, raising ValueError for one that is invalid.
SANITIZER_BUILDERS: dict[str, Callable[..., Sanitizer]] = {
    "group-ndp": _pipeline_builder(ReleaseMethod.NDP),
    "group-dp": _pipeline_builder(ReleaseMethod.DP),
    "paraphrase": lambda name, temperature, config, client, repeat_seed: ParaphraseSanitizer(
        name, temperature, replace(config.rewrite_params(), temperature=temperature),
        client, repeat_seed,
    ),
}


# --- single-item evaluation --------------------------------------------------


@dataclass(frozen=True)
class EvalRow:
    method: str
    temperature: float
    repeat_index: int
    item_id: str
    rouge1: float
    rougeL: float
    bleu: float
    utility: float
    ledger_total: float
    failed: bool = False
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "temperature": self.temperature,
            "repeat_index": self.repeat_index,
            "item_id": self.item_id,
            "privacy": {"rouge1": self.rouge1, "rougeL": self.rougeL, "bleu": self.bleu},
            "utility": self.utility,
            "ledger_total": self.ledger_total,
            "failed": self.failed,
            "note": self.note,
        }


def csqa_answer_prompt(question: str, choices: Sequence[Choice]) -> str:
    lines = [
        "Answer the following multiple-choice question. "
        "Respond with only the letter of the correct choice.",
        f"{QUESTION_PREFIX} {question}",
        CHOICES_HEADER,
    ]
    lines.extend(f"{c.label}. {c.text}" for c in choices)
    lines.append("Answer:")
    return "\n".join(lines)


def docvqa_answer_prompt(question: str, context: Sequence[str]) -> str:
    return "\n".join(
        [
            "Use the document tokens to answer the question. Respond with a short answer.",
            f"{DOC_TOKENS_PREFIX} {' '.join(context)}",
            f"{QUESTION_PREFIX} {question}",
            "Answer:",
        ]
    )


def _parse_label(text: str) -> str | None:
    cleaned = text.strip().strip(".:()").upper()
    return cleaned if cleaned in CSQA_LABELS else None


def _answer_utility(
    record: QARecord, sanitized: str, answerer: ChatClient, seed: int
) -> tuple[float, str]:
    if record.dataset == "csqa":
        assert record.choices is not None
        prompt = csqa_answer_prompt(sanitized, record.choices)
        label: str | None = None
        # One bounded re-ask when the reply is not a bare choice label.
        for attempt in range(2):
            resp = answerer.complete(
                ChatRequest.single(prompt, temperature=0.0, max_tokens=8, seed=seed + attempt)
            )
            label = _parse_label(resp.text)
            if label is not None:
                break
        if label is None:
            return 0.0, "malformed answer"
        return (1.0 if label == record.gold.upper() else 0.0), ""
    assert record.context is not None
    prompt = docvqa_answer_prompt(sanitized, record.context)
    resp = answerer.complete(
        ChatRequest.single(prompt, temperature=0.0, max_tokens=32, seed=seed)
    )
    return rouge1(tokenize(record.gold), tokenize(resp.text)), ""


def evaluate_item(
    record: QARecord,
    sanitizer: Sanitizer,
    answerer: ChatClient,
    repeat_index: int = 0,
) -> EvalRow:
    """Sanitize once, then score privacy and utility from that same output.

    A sanitizer failure becomes a failed row carrying the budget the failed
    run had already charged, and so does any error of the answerer.
    """
    cell = {
        "method": sanitizer.name,
        "temperature": sanitizer.temperature,
        "repeat_index": repeat_index,
        "item_id": record.id,
    }
    try:
        sanitized = sanitizer(record.question)
    except PipelineStageError as exc:
        return EvalRow(
            **cell, rouge1=0.0, rougeL=0.0, bleu=0.0, utility=0.0,
            ledger_total=exc.ledger.total(),
            failed=True,
            note=f"sanitizer failed in {exc.stage}: {exc.__cause__}",
        )
    privacy = all_metrics(record.question, sanitized.text)
    try:
        utility, note = _answer_utility(
            record, sanitized.text, answerer, seed=stable_seed(record.id, repeat_index)
        )
        failed = False
    except Exception as exc:
        # A client error's message is prompt-free; any other may quote the question.
        detail = exc if isinstance(exc, (ClientError, TransportError)) else type(exc).__name__
        utility, note, failed = 0.0, f"answerer failed: {detail}", True
    return EvalRow(
        **cell, **privacy, utility=utility, ledger_total=sanitized.ledger_total,
        failed=failed, note=note,
    )


def run_experiment(
    records: Sequence[QARecord],
    config: PipelineConfig,
    client: ChatClient,
    *,
    methods: Sequence[str] = ("group-ndp",),
    temperatures: Sequence[float] = TEMPERATURE_GRID,
    repeats: int = 5,
    answerer: ChatClient | None = None,
    seed: int = 0,
    audit_path: str | None = None,
) -> list[EvalRow]:
    """Full grid: every (method, temperature, repeat, item) combination.

    Every cell's sanitizer is built before the first item runs, so a bad
    method, temperature or repeat count raises ValueError before any call.
    So do an empty or repeated list of methods or temperatures, and a
    white-box config: the grid takes no step oracle.
    """
    if config.mode != "blackbox":
        raise ValueError(f"run_experiment rewrites in black-box mode only, got mode {config.mode!r}")
    for name, values in (("methods", methods), ("temperatures", temperatures)):
        if not values or len(set(values)) < len(values):
            raise ValueError(f"{name} must be a non-empty list without repeats, got {list(values)}")
    unknown = [m for m in methods if m not in SANITIZER_BUILDERS]
    if unknown:
        raise ValueError(f"unknown sanitizer methods: {unknown}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    cells = [
        (repeat, SANITIZER_BUILDERS[method](
            method, temperature, config, client, stable_seed(seed, method, repeat)
        ))
        for method in methods
        for temperature in temperatures
        for repeat in range(repeats)
    ]
    answerer = answerer or client
    rows: list[EvalRow] = []
    audit = open(audit_path, "a", encoding="utf-8") if audit_path else None
    try:
        for repeat, sanitizer in cells:
            for record in records:
                row = evaluate_item(record, sanitizer, answerer, repeat_index=repeat)
                rows.append(row)
                if audit is not None:
                    audit.write(json.dumps(row.to_json_dict()) + "\n")
    finally:
        if audit is not None:
            audit.close()
    return rows


# --- aggregation and reporting -----------------------------------------------

# Each aggregated EvalRow field and the column prefix of its mean and std.
_AGG_COLUMNS = {
    "rouge1": "q_rouge1",
    "rougeL": "q_rougeL",
    "bleu": "q_bleu",
    "utility": "utility",
    "ledger_total": "ledger_total",
}

REPORT_COLUMNS = (
    "method",
    "temperature",
    "q_rouge1_mean",
    "q_rouge1_std",
    "q_rougeL_mean",
    "q_rougeL_std",
    "q_bleu_mean",
    "q_bleu_std",
    "utility_mean",
    "utility_std",
    "ledger_total_mean",
)


def aggregate(rows: Sequence[EvalRow]) -> list[dict]:
    """Mean and population standard deviation per (method, temperature) group.

    One repetition of the experiment yields one dataset-mean per field; the
    reported mean and std are taken across those per-repeat means, so a
    deterministic single-repeat run has zero std. Failed rows are excluded
    and counted.
    """
    groups: dict[tuple[str, float], dict[int, list[EvalRow]]] = {}
    failed: Counter[tuple[str, float]] = Counter()
    for row in rows:
        key = (row.method, row.temperature)
        repeats = groups.setdefault(key, {})
        if row.failed:
            failed[key] += 1
        else:
            repeats.setdefault(row.repeat_index, []).append(row)

    out: list[dict] = []
    for (method, temperature), repeats in sorted(groups.items()):
        entry: dict = {
            "method": method,
            "temperature": temperature,
            "failed_count": failed[(method, temperature)],
        }
        for fld, column in _AGG_COLUMNS.items():
            repeat_means = np.array(
                [np.mean([getattr(r, fld) for r in rs]) for _, rs in sorted(repeats.items())],
                dtype=np.float64,
            )
            empty = repeat_means.size == 0
            entry[f"{column}_mean"] = float("nan") if empty else float(repeat_means.mean())
            entry[f"{column}_std"] = float("nan") if empty else float(repeat_means.std())
        out.append(entry)
    return out


def emit_report(aggregates: Sequence[dict], path: str) -> None:
    """Write the aggregate table as CSV with a stable column order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for entry in aggregates:
            writer.writerow([entry[col] for col in REPORT_COLUMNS])


# --- synthetic data ------------------------------------------------------------

_ADJECTIVES = (
    "ancient bright careful distant eager fearless gentle hidden icy jolly keen lively "
    "mellow noble orange patient quiet rustic silver tidy urban vivid wavy golden brisk "
    "crimson dusty elegant foggy grand humble ivory jagged kind lavish misty narrow oval "
    "polished rugged sleek tranquil uneven velvet wooden youthful zesty amber breezy"
).split()

_NOUNS = (
    "archive bakery canal dormitory engine fortress garden harbor island journal kettle "
    "lantern meadow notebook orchard pavilion quarry reservoir stadium telescope "
    "umbrella village workshop chapel bridge cottage depot estuary foundry granary "
    "hangar inlet jetty kiosk library mill monument nursery observatory pier plaza "
    "refinery sawmill terrace tower tunnel vault warehouse windmill"
).split()

_VERBS = (
    "arrange borrow collect deliver examine gather inspect measure organize paint "
    "repair sketch store transport unload weigh assemble carry display exchange"
).split()

_EVENTS = (
    "festival harvest auction rehearsal ceremony exhibition tournament migration "
    "renovation inspection parade seminar"
).split()

_ANSWER_WORDS = (
    "courtyard basement rooftop cellar attic balcony corridor lobby pantry stairwell "
    "garage greenhouse studio office workshop"
).split()


def synthetic_qa_records(n: int, seed: int = 0, dataset: str = "csqa") -> list[QARecord]:
    """Deterministic synthetic QA items for offline experiments.

    Each question carries eight distinct content words plus fixed stop words,
    which keeps consensus keyword extraction well inside its K=10 budget.
    """
    rng = np.random.default_rng(seed)
    records: list[QARecord] = []
    for i in range(n):
        a1, a2 = (_ADJECTIVES[j] for j in rng.choice(len(_ADJECTIVES), size=2, replace=False))
        n1, n2, n3 = (_NOUNS[j] for j in rng.choice(len(_NOUNS), size=3, replace=False))
        v1 = _VERBS[int(rng.integers(len(_VERBS)))]
        ev = _EVENTS[int(rng.integers(len(_EVENTS)))]
        question = (
            f"Where would the {a1} {n1} usually {v1} a {a2} {n2} during the {n3} {ev}?"
        )
        if dataset == "csqa":
            answer_idx = rng.choice(len(_ANSWER_WORDS), size=5, replace=False)
            choices = tuple(
                Choice(CSQA_LABELS[j], _ANSWER_WORDS[int(answer_idx[j])]) for j in range(5)
            )
            gold = CSQA_LABELS[int(rng.integers(5))]
            records.append(
                QARecord(
                    id=f"syn-{i:04d}", question=question, gold=gold, dataset="csqa",
                    choices=choices,
                )
            )
        elif dataset == "docvqa":
            ocr_idx = rng.choice(len(_NOUNS), size=10, replace=False)
            context = tuple(_NOUNS[int(j)] for j in ocr_idx)
            gold = " ".join(context[:2])
            records.append(
                QARecord(
                    id=f"syn-{i:04d}", question=question, gold=gold, dataset="docvqa",
                    context=context,
                )
            )
        else:
            raise ValueError(f"unknown dataset kind: {dataset!r}")
    return records
