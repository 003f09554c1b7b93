"""Tests of the benchmark's own machinery. None of them asserts a timing."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from promptsan import evaluation, pipeline
from promptsan.client import ChatRequest, EndpointConfig, HttpChatClient, MockChatModel
from promptsan.keywords import ReleaseMethod
from promptsan.mechanisms import Stage

import layers
import run
import stats
import workloads
from stub import StubService, stop_resource_tracker
from tracing import TracedClient, Tracer, _resolve, check_trace

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: _take(workloads.prompt_ops(seed, workloads.GRID, dp_share=0.5), 8),
        lambda seed: _take(workloads.prompt_ops(seed, (1.0,), dp_share=0.0), 8),
        lambda seed: [(op.seed, [r.id for r in op.records]) for op in _take(workloads.grid_ops(seed), 4)],
    ],
    ids=["sanitize-mock", "sanitize-live-and-whitebox", "eval-grid"],
)
def test_inputs_follow_the_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_logit_tables_follow_the_seed():
    first, again, other = (workloads.logit_tables(s) for s in (3, 3, 4))
    assert all(np.array_equal(a.values, b.values) for a, b in zip(first, again))
    assert not np.array_equal(first[0].values, other[0].values)
    assert len(first) == workloads.LOGIT_TABLES and first[0].vocab_size == workloads.VOCAB_SIZE


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_calibration_scales_cpu_time_and_keeps_waiting_time():
    reference = stats.PROBE_REFERENCE_NS
    probes = [(0, 2 * reference), (20_000_000, 2 * reference)]
    ops = [stats.OpRecord(1_000_000, 11_000_000, 6_000_000, True, 1)]
    assert stats.calibrated_ms(ops, probes) == [7.0]
    assert stats.calibrated_ns(5, 9, 0.5) == 2.5


def test_stub_reply_equals_in_process_mock():
    requests_ = [
        ChatRequest.single(
            "Paraphrase the following question. Output only the paraphrase:\n"
            "Where would the quiet archive usually store a silver lantern?",
            temperature=1.25, max_tokens=64, seed=2**62 + 3,
        ),
        ChatRequest.single(
            "Refer to the following question to generate a new question:\n"
            "Where would the archive store a lantern?\nAvoid using the following tokens:\narchive",
            max_tokens=64, seed=0,
        ),
    ]
    mock = MockChatModel(seed=0)
    try:
        with StubService() as stub:
            client = HttpChatClient(EndpointConfig(base_url=stub.base_url, model="mock", timeout_s=10.0))
            for req in requests_:
                remote, local = client.complete(req), mock.complete(req)
                assert (remote.text, remote.tokens_generated) == (local.text, local.tokens_generated)
    finally:
        stop_resource_tracker()


def _wrapped_values():
    values = {}
    for target in layers.TARGETS + layers.BUILDER_TARGETS:
        owner, attr, value = _resolve(target.module, target.path)
        values[(target.module, target.path)] = value
    values["builders"] = dict(evaluation.SANITIZER_BUILDERS)
    return values


def test_trace_wrappers_restore_the_original_names():
    before = _wrapped_values()
    tracer = Tracer()
    mock = MockChatModel(seed=0)
    op = workloads.PromptOp("Where would the quiet archive store a silver lantern?", 1.0, ReleaseMethod.NDP, 5)
    records = tuple(evaluation.synthetic_qa_records(1, seed=1))
    with tracer.installed(layers.TARGETS, layers.BUILDER_TARGETS):
        assert pipeline.build_histogram is not before[("promptsan.pipeline", "build_histogram")]
        previous = tracer.begin_op(op.prompt, unit=True)
        pipeline.run_pipeline(op.prompt, op.config(), TracedClient(mock, tracer, layers.CLIENT_SPAN))
        tracer.end_op(previous, "ok")
        evaluation.run_experiment(
            records, op.config(), TracedClient(mock, tracer, layers.CLIENT_SPAN),
            methods=workloads.GRID_METHODS, temperatures=(0.5,), repeats=1,
            answerer=TracedClient(mock, tracer, layers.ANSWERER_SPAN),
        )
    assert _wrapped_values() == before
    assert tracer.missing == []
    values = layers.derive(tracer)
    assert set(values) == {m.name for m in layers.LAYER_METRICS}
    assert all(v is not None for v in values.values())
    assert values["client.complete.inflight_max"] == 1.0
    assert values["client.complete.calls_per_prompt"] > 0
    assert values["normalization.tokenize.calls_per_prompt"] > 0


def test_a_wrapped_name_that_is_gone_is_reported_missing(monkeypatch):
    monkeypatch.delattr(pipeline, "build_histogram")
    tracer = Tracer()
    with tracer.installed(layers.TARGETS, layers.BUILDER_TARGETS):
        pass
    assert tracer.missing == ["promptsan.pipeline.build_histogram"]
    values = layers.derive(tracer)
    assert values["keywords.build_histogram.wall_us_p50"] is None
    assert values["keywords.distinct_words_p50"] is None
    assert values["keywords.topk_ndp.wall_us_p50"] == 0.0


def test_trace_check_accepts_hashes_and_rejects_prompt_text(tmp_path):
    prompt = "Where would the quiet archive store a silver lantern?"
    tracer = Tracer()
    previous = tracer.begin_op(prompt, unit=True)
    tracer.close(tracer.open(tracer.name_id("pipeline.run_pipeline")), error="ValueError")
    tracer.close(tracer.open(tracer.name_id("client.complete")), attrs={"attempts": 1, "service_ms": 20.5})
    tracer.end_op(previous, "raised")
    names = set(tracer.names)
    clean = tmp_path / "clean.jsonl.gz"
    tracer.write(str(clean), {"counts": {"attempted": 1}, "workload": "sanitize-mock"})
    assert check_trace(str(clean), names, [prompt]) == []

    leaky = tmp_path / "leaky.jsonl.gz"
    tracer.write(str(leaky), {"note": prompt})
    assert check_trace(str(leaky), names, [prompt]) == ["trace contains prompt text"]

    free_text = tmp_path / "free.jsonl.gz"
    tracer.errors[0] = "bad value: x y"
    tracer.write(str(free_text), {})
    assert check_trace(str(free_text), names, [prompt]) == ["span line carries free text"]


def test_output_checks_accept_real_results_and_reject_a_wrong_ledger():
    op = workloads.PromptOp(
        "Where would the quiet archive usually store a silver lantern during the harbor parade?",
        0.5, ReleaseMethod.DP, 11,
    )
    result = pipeline.run_pipeline(op.prompt, op.config(), MockChatModel(seed=0))
    workloads.check_sanitized(op.config(), result)
    result.ledger.record(Stage.REWRITE, 1.0, 1, "unaccounted")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_sanitized(op.config(), result)


def test_dp_prompts_have_enough_distinct_words_for_k_keywords():
    # One question rewritten at the lowest temperature has fewer than K distinct words.
    op = workloads.PromptOp("Where is the red barn?", 0.1, ReleaseMethod.DP, 3)
    with pytest.raises(pipeline.PipelineStageError):
        pipeline.run_pipeline(op.prompt, op.config(), MockChatModel(seed=0))
    ops = itertools.islice(workloads.prompt_ops(5, workloads.GRID, dp_share=0.5), 400)
    counts = {(op.release, op.prompt.count("?")) for op in ops}
    assert {n for release, n in counts if release is ReleaseMethod.DP} == {2, 3, 4}
    assert {n for release, n in counts if release is ReleaseMethod.NDP} == {1, 2, 3, 4}


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_specs()
    assert set(layers.LAYER_MAP) == {m.name.split(".")[0] for m in layers.LAYER_METRICS}
