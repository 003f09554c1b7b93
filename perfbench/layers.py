"""Layers, the names the traced run wraps, and the per-layer metrics.

A layer is a module under ``src/promptsan/``. ``cli`` is not measured: it only
parses arguments and then makes these same calls. ``stopwords`` is not
measured: it returns a precomputed frozenset.

Each wrapped name is the module-level binding a caller goes through, so
``promptsan.pipeline.build_histogram`` is wrapped rather than the function's
home module: ``run_pipeline`` looks the name up in its own module.
``normalization.tokenize`` is wrapped in every module that binds it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tracing import NO_PARENT, Tracer


@dataclass(frozen=True)
class Target:
    module: str
    path: str
    span: str
    annotate: Callable | None = None
    # Marks a call that starts one evaluation row, given its positional args.
    row_prompt: Callable | None = None


TARGETS = (
    Target("promptsan.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    Target("promptsan.evaluation", "run_pipeline", "pipeline.run_pipeline"),
    Target("promptsan.pipeline", "rewrite_group", "rewriting.rewrite_group"),
    Target("promptsan.rewriting", "paraphrase_blackbox", "rewriting.paraphrase_blackbox"),
    Target("promptsan.evaluation", "paraphrase_blackbox", "rewriting.paraphrase_blackbox"),
    Target("promptsan.rewriting", "paraphrase_whitebox", "rewriting.paraphrase_whitebox"),
    Target("promptsan.rewriting", "clip_logits", "mechanisms.clip_logits"),
    Target("promptsan.rewriting", "em_sample", "mechanisms.em_sample"),
    Target("promptsan.mechanisms", "PrivacyLedger.record", "mechanisms.ledger.record"),
    Target(
        "promptsan.pipeline", "build_histogram", "keywords.build_histogram",
        annotate=lambda hist: {"distinct": hist.distinct_words()},
    ),
    Target("promptsan.pipeline", "topk_ndp", "keywords.topk_ndp"),
    Target("promptsan.pipeline", "topk_dp", "keywords.topk_dp"),
    Target("promptsan.pipeline", "select_exemplar", "exemplar.select_exemplar"),
    Target(
        "promptsan.pipeline", "generate_sanitized", "prompting.generate_sanitized",
        annotate=lambda out: {"regenerations": out.regenerations, "leak": int(out.leakage_flag)},
    ),
    Target("promptsan.keywords", "tokenize", "normalization.tokenize"),
    Target("promptsan.exemplar", "tokenize", "normalization.tokenize"),
    Target("promptsan.metrics", "tokenize", "normalization.tokenize"),
    Target("promptsan.client", "tokenize", "normalization.tokenize"),
    Target(
        "promptsan.evaluation", "evaluate_item", "evaluation.evaluate_item",
        annotate=lambda row: {"failed": int(row.failed)},
        row_prompt=lambda args: args[0].question,
    ),
    Target("promptsan.metrics", "rouge1", "metrics.rouge1"),
    Target("promptsan.evaluation", "rouge1", "metrics.rouge1"),
    Target("promptsan.metrics", "rougeL", "metrics.rougeL"),
    Target("promptsan.metrics", "bleu", "metrics.bleu"),
)

# Sanitizers are built per grid cell from this registry; each built sanitizer
# is wrapped so that its calls are timed.
BUILDER_TARGETS = (Target("promptsan.evaluation", "SANITIZER_BUILDERS", "evaluation.sanitizer"),)

# Spans recorded by the benchmark's own client wrappers.
CLIENT_SPAN = "client.complete"
ANSWERER_SPAN = "evaluation.answerer"


class SpanTable:
    """Read-only views over a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.unit_ops = tracer.unit_ops
        names, start, end, self._parent = (
            np.array(column, dtype=np.int64) for column in (tracer.name, tracer.start, tracer.end, tracer.parent)
        )
        self._by_name: dict[str, np.ndarray] = {}
        for name_id, name in enumerate(tracer.names):
            self._by_name[name] = np.flatnonzero(names == name_id)
        self._dur = end - start
        self._start = start
        self._end = end
        self._self_ns: dict[str, np.ndarray] = {}
        wrapped = {t.span for t in TARGETS + BUILDER_TARGETS}
        missing_targets = set(tracer.missing)
        self.missing_spans = {
            span
            for span in wrapped
            if all(
                f"{t.module}.{t.path}" in missing_targets
                for t in TARGETS + BUILDER_TARGETS
                if t.span == span
            )
        }

    def ids(self, span: str) -> np.ndarray:
        return self._by_name.get(span, np.zeros(0, np.int64))

    def calls(self, span: str) -> int:
        return int(self.ids(span).size)

    def durations_ns(self, span: str) -> np.ndarray:
        return self._dur[self.ids(span)]

    def self_ns(self, span: str) -> np.ndarray:
        """Span duration minus the part of it covered by its child spans."""
        if span not in self._self_ns:
            ids = self.ids(span)
            kids = np.flatnonzero(np.isin(self._parent, ids))
            kids = kids[np.lexsort((self._start[kids], self._parent[kids]))]
            children: dict[int, list[int]] = defaultdict(list)
            for child, parent in zip(kids.tolist(), self._parent[kids].tolist()):
                children[parent].append(child)
            out = np.empty(ids.size, dtype=np.int64)
            for k, idx in enumerate(ids.tolist()):
                lo, hi = int(self._start[idx]), int(self._end[idx])
                covered, reach = 0, lo
                for c in children.get(idx, ()):
                    c_lo, c_hi = max(int(self._start[c]), reach), min(int(self._end[c]), hi)
                    if c_hi > c_lo:
                        covered += c_hi - c_lo
                        reach = c_hi
                out[k] = (hi - lo) - covered
            self._self_ns[span] = out
        return self._self_ns[span]

    def attr(self, span: str, key: str) -> list[float]:
        attrs = self.tracer.attrs
        return [attrs[i][key] for i in self.ids(span).tolist() if i in attrs and key in attrs[i]]

    def errors(self, span: str) -> int:
        errors = self.tracer.errors
        return sum(1 for i in self.ids(span).tolist() if i in errors)

    def parent_name(self, idx: int) -> str | None:
        parent = self.tracer.parent[idx]
        if parent == NO_PARENT:
            return None
        return self.tracer.names[self.tracer.name[parent]]


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wall_p50(span: str, scale: float) -> Callable[[SpanTable], float]:
    return lambda t: _p50(t.durations_ns(span)) / scale


def self_p50(span: str, scale: float) -> Callable[[SpanTable], float]:
    return lambda t: _p50(t.self_ns(span)) / scale


def calls_per_op(span: str) -> Callable[[SpanTable], float]:
    return lambda t: _ratio(t.calls(span), t.unit_ops)


def error_ratio(span: str) -> Callable[[SpanTable], float]:
    return lambda t: _ratio(t.errors(span), t.calls(span))


def _slots_failed_ratio(t: SpanTable) -> float:
    slots = [
        i
        for span in ("rewriting.paraphrase_blackbox", "rewriting.paraphrase_whitebox")
        for i in t.ids(span).tolist()
        if t.parent_name(i) == "rewriting.rewrite_group"
    ]
    return _ratio(sum(1 for i in slots if i in t.tracer.errors), len(slots))


def _client_overhead_ms(t: SpanTable) -> float:
    """Client wall time minus the service's own reported time (all of it for in-process clients)."""
    attrs = t.tracer.attrs
    spans = zip(t.ids(CLIENT_SPAN).tolist(), t.durations_ns(CLIENT_SPAN).tolist())
    return _p50([ns / 1e6 - attrs.get(i, {}).get("service_ms", 0.0) for i, ns in spans])


MS, US = 1e6, 1e3


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]
    derive: Callable[[SpanTable], float]


LAYER_METRICS = (
    LayerMetric("pipeline.run_pipeline.wall_ms_p50", "ms", "lower", ("pipeline.run_pipeline",),
                wall_p50("pipeline.run_pipeline", MS)),
    LayerMetric("pipeline.run_pipeline.self_ms_p50", "ms", "lower", ("pipeline.run_pipeline",),
                self_p50("pipeline.run_pipeline", MS)),
    LayerMetric("rewriting.rewrite_group.wall_ms_p50", "ms", "lower", ("rewriting.rewrite_group",),
                wall_p50("rewriting.rewrite_group", MS)),
    LayerMetric("rewriting.rewrite_group.self_ms_p50", "ms", "lower", ("rewriting.rewrite_group",),
                self_p50("rewriting.rewrite_group", MS)),
    LayerMetric("rewriting.slots_failed_ratio", "ratio", "lower",
                ("rewriting.rewrite_group",), _slots_failed_ratio),
    LayerMetric("rewriting.paraphrase_whitebox.wall_ms_p50", "ms", "lower", ("rewriting.paraphrase_whitebox",),
                wall_p50("rewriting.paraphrase_whitebox", MS)),
    LayerMetric("client.complete.calls_per_prompt", "count", "lower", (CLIENT_SPAN,),
                calls_per_op(CLIENT_SPAN)),
    LayerMetric("client.complete.inflight_max", "count", "higher", (CLIENT_SPAN,),
                lambda t: float(t.tracer.gauges.get(f"{CLIENT_SPAN}.inflight_max", 0))),
    LayerMetric("client.complete.wall_ms_p50", "ms", "lower", (CLIENT_SPAN,),
                wall_p50(CLIENT_SPAN, MS)),
    LayerMetric("client.complete.overhead_ms_p50", "ms", "lower", (CLIENT_SPAN,),
                _client_overhead_ms),
    LayerMetric("client.complete.attempts_per_call", "count", "lower", (CLIENT_SPAN,),
                lambda t: _mean(t.attr(CLIENT_SPAN, "attempts"))),
    LayerMetric("client.complete.failed_ratio", "ratio", "lower", (CLIENT_SPAN,),
                error_ratio(CLIENT_SPAN)),
    LayerMetric("keywords.build_histogram.wall_us_p50", "us", "lower", ("keywords.build_histogram",),
                wall_p50("keywords.build_histogram", US)),
    LayerMetric("keywords.topk_ndp.wall_us_p50", "us", "lower", ("keywords.topk_ndp",),
                wall_p50("keywords.topk_ndp", US)),
    LayerMetric("keywords.topk_dp.wall_us_p50", "us", "lower", ("keywords.topk_dp",),
                wall_p50("keywords.topk_dp", US)),
    LayerMetric("keywords.distinct_words_p50", "count", "lower", ("keywords.build_histogram",),
                lambda t: _p50(t.attr("keywords.build_histogram", "distinct"))),
    LayerMetric("exemplar.select_exemplar.wall_us_p50", "us", "lower", ("exemplar.select_exemplar",),
                wall_p50("exemplar.select_exemplar", US)),
    LayerMetric("prompting.generate_sanitized.self_us_p50", "us", "lower", ("prompting.generate_sanitized",),
                self_p50("prompting.generate_sanitized", US)),
    LayerMetric("prompting.regenerations_per_prompt", "count", "lower", ("prompting.generate_sanitized",),
                lambda t: _mean(t.attr("prompting.generate_sanitized", "regenerations"))),
    LayerMetric("prompting.leakage_ratio", "ratio", "lower", ("prompting.generate_sanitized",),
                lambda t: _mean(t.attr("prompting.generate_sanitized", "leak"))),
    LayerMetric("normalization.tokenize.calls_per_prompt", "count", "lower", ("normalization.tokenize",),
                calls_per_op("normalization.tokenize")),
    LayerMetric("normalization.tokenize.wall_us_per_prompt", "us", "lower", ("normalization.tokenize",),
                lambda t: _ratio(float(t.durations_ns("normalization.tokenize").sum()) / US, t.unit_ops)),
    LayerMetric("mechanisms.clip_logits.wall_us_p50", "us", "lower", ("mechanisms.clip_logits",),
                wall_p50("mechanisms.clip_logits", US)),
    LayerMetric("mechanisms.em_sample.wall_us_p50", "us", "lower", ("mechanisms.em_sample",),
                wall_p50("mechanisms.em_sample", US)),
    LayerMetric("mechanisms.tokens_per_prompt", "count", "lower", ("mechanisms.em_sample",),
                calls_per_op("mechanisms.em_sample")),
    LayerMetric("mechanisms.ledger.entries_per_prompt", "count", "lower", ("mechanisms.ledger.record",),
                calls_per_op("mechanisms.ledger.record")),
    LayerMetric("metrics.rouge1.wall_us_p50", "us", "lower", ("metrics.rouge1",),
                wall_p50("metrics.rouge1", US)),
    LayerMetric("metrics.rougeL.wall_us_p50", "us", "lower", ("metrics.rougeL",),
                wall_p50("metrics.rougeL", US)),
    LayerMetric("metrics.bleu.wall_us_p50", "us", "lower", ("metrics.bleu",),
                wall_p50("metrics.bleu", US)),
    LayerMetric("evaluation.evaluate_item.wall_ms_p50", "ms", "lower", ("evaluation.evaluate_item",),
                wall_p50("evaluation.evaluate_item", MS)),
    LayerMetric("evaluation.sanitizer.wall_ms_p50", "ms", "lower", ("evaluation.sanitizer",),
                wall_p50("evaluation.sanitizer", MS)),
    LayerMetric("evaluation.answerer.wall_ms_p50", "ms", "lower", (ANSWERER_SPAN,),
                wall_p50(ANSWERER_SPAN, MS)),
    LayerMetric("evaluation.failed_rows_ratio", "ratio", "lower", ("evaluation.evaluate_item",),
                lambda t: _mean(t.attr("evaluation.evaluate_item", "failed"))),
)

# The traced run's overhead: traced minus untraced value of each end-to-end
# metric that tracing can move, measured in the same process.
OVERHEAD_METRICS = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def overhead_name(metric: str) -> str:
    return f"trace.overhead.{metric}"


# Which end-to-end metric each layer's metrics should move, on which workload,
# and where the prediction is no change.
LAYER_MAP = {
    "pipeline": {
        "moves": ["latency_p50_ms"], "on": ["sanitize-mock"], "unchanged_on": ["sanitize-live"],
    },
    "rewriting": {
        "moves": ["latency_p50_ms"], "on": ["sanitize-live", "whitebox-decode"],
        "unchanged_on": ["sanitize-mock"],
        "note": "fan-out moves sanitize-live; paraphrase_whitebox moves whitebox-decode",
    },
    "client": {
        "moves": ["latency_p50_ms", "latency_p90_ms"], "on": ["sanitize-live"],
        "unchanged_on": ["sanitize-mock", "whitebox-decode"],
    },
    "keywords": {
        "moves": ["latency_p50_ms", "items_per_s"], "on": ["sanitize-mock"],
        "unchanged_on": ["sanitize-live", "whitebox-decode"],
        "note": "topk_dp runs only on the DP half of sanitize-mock; eval-grid bypasses it",
    },
    "exemplar": {
        "moves": ["latency_p50_ms", "items_per_s"], "on": ["sanitize-mock", "eval-grid"],
        "unchanged_on": ["sanitize-live"],
    },
    "prompting": {
        "moves": ["latency_p50_ms"], "on": ["sanitize-mock"], "unchanged_on": ["whitebox-decode"],
    },
    "normalization": {
        "moves": ["latency_p50_ms", "items_per_s"], "on": ["sanitize-mock", "eval-grid"],
        "unchanged_on": ["sanitize-live"],
    },
    "mechanisms": {
        "moves": ["latency_p50_ms", "items_per_s"], "on": ["whitebox-decode"],
        "unchanged_on": ["sanitize-mock", "sanitize-live", "eval-grid"],
    },
    "metrics": {
        "moves": ["items_per_s"], "on": ["eval-grid"],
        "unchanged_on": ["sanitize-mock", "sanitize-live", "whitebox-decode"],
    },
    "evaluation": {
        "moves": ["items_per_s"], "on": ["eval-grid"],
        "unchanged_on": ["sanitize-mock", "sanitize-live", "whitebox-decode"],
    },
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(m.name, m.unit, m.better) for m in LAYER_METRICS] + [
        (overhead_name(name), unit, better) for name, unit, better in OVERHEAD_METRICS
    ]


def derive(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metric values; None for a metric whose wrapped names are all missing."""
    table = SpanTable(tracer)
    out: dict[str, float | None] = {}
    for metric in LAYER_METRICS:
        if any(span in table.missing_spans for span in metric.spans):
            out[metric.name] = None
            continue
        value = metric.derive(table)
        out[metric.name] = value if math.isfinite(value) else None
    return out
