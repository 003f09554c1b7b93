import json
import math
import sys
from dataclasses import dataclass, field, replace

import pytest

from promptsan import normalization
from promptsan.client import ChatRequest, ChatResponse, MockChatModel, TransportError
from promptsan.exemplar import ScoredParaphrase
from promptsan.keywords import (
    STOP_OFFSET,
    ReleaseMethod,
    build_histogram,
    presence_counts,
    tokenize_group,
    tokenize_normalize,
    topk_ndp,
)
from promptsan.mechanisms import ClipBounds, PrivacyLedger, Stage
from promptsan.pipeline import (
    PipelineConfig,
    PipelineStageError,
    SanitizedResult,
    budget_report,
    run_pipeline,
)
from promptsan.prompting import contains_forbidden
from promptsan.rewriting import (
    ConstantStepOracle,
    ParaphraseGroup,
    Rewrite,
    RewriteParams,
    RewriteSchedule,
)

from conftest import FailingClient, histogram_of, make_group

PROMPT = "Where would the silver archive usually store a hidden journal during the harbor festival?"


@dataclass
class CutOffClient:
    """Serves the mock's replies and records them; every call after ``serve`` calls fails."""

    serve: int
    texts: list[str] = field(default_factory=list)
    inner: MockChatModel = field(default_factory=MockChatModel)

    def complete(self, req: ChatRequest) -> ChatResponse:
        if len(self.texts) >= self.serve:
            raise TransportError("stub outage", attempts=1)
        resp = self.inner.complete(req)
        self.texts.append(resp.text)
        return resp


def config(**overrides) -> PipelineConfig:
    defaults = dict(bounds=ClipBounds(0.0, 8.0), m=10, k=10, schedule=1.0, seed=7)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunPipeline:
    def test_structural_contract_ndp(self, mock_client):
        result = run_pipeline(PROMPT, config(), mock_client)
        assert result.group.size == 10
        assert len(result.released.words) <= 10
        assert result.released.method is ReleaseMethod.NDP
        assert result.ledger.total() == result.ledger.rewrite_total()
        assert result.exemplar.text in result.group.texts()

    def test_each_rewrite_tokenized_once_per_prompt(self, mock_client, monkeypatch):
        # m shared by the histogram and the exemplar, 1 for the leakage check.
        calls = 0
        original = normalization.tokenize

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("promptsan") and getattr(module, "tokenize", None) is original:
                monkeypatch.setattr(module, "tokenize", counting)
        result = run_pipeline(PROMPT, config(m=10, retry_on_leakage=0), mock_client)
        assert result.group.size == 10
        assert calls == 10 + 1

    def test_dp_release_adds_epsilon2(self, mock_client):
        result = run_pipeline(PROMPT, config(release_method=ReleaseMethod.DP, epsilon2=1.0), mock_client)
        assert result.ledger.total() == pytest.approx(
            result.ledger.rewrite_total() + 1.0, rel=1e-12
        )
        assert result.released.method is ReleaseMethod.DP

    def test_certain_dp_release_reaches_stage3(self, mock_client):
        # At a huge epsilon2 the release is the domain words whose presence
        # count clears the stop candidate's c_+ + STOP_OFFSET, by count.
        cfg = config(release_method=ReleaseMethod.DP, epsilon2=1e9)
        result = run_pipeline(PROMPT, cfg, mock_client)
        counts = result.histogram.counts
        token_lists, _ = tokenize_group(result.group.texts())
        assert result.histogram == build_histogram(presence_counts(token_lists))
        ranked = sorted(counts, key=lambda word: (-counts[word], word))
        c_plus = counts[ranked[cfg.k]]
        words = result.released.words
        assert words
        assert set(words) == {w for w in ranked[: cfg.k] if counts[w] > c_plus + STOP_OFFSET}
        assert [counts[w] for w in words] == sorted((counts[w] for w in words), reverse=True)
        assert result.final_prompt.splitlines()[-1] == ", ".join(words)
        assert result.leakage_flag == contains_forbidden(result.sanitized, words)

    def test_uniform_closed_form(self, mock_client):
        result = run_pipeline(PROMPT, config(), mock_client)
        rewrite_entries = [e for e in result.ledger.entries if e.stage is Stage.REWRITE]
        expected = math.fsum(e.epsilon_per_unit * e.units for e in rewrite_entries)
        assert result.ledger.total() == expected

    def test_identity_rewriter_plug_in(self, mock_client):
        def identity_rewriter(prompt: str, rng, ledger) -> ParaphraseGroup:
            params = RewriteParams(
                mode="blackbox", temperature=1.0, max_tokens=64, bounds=ClipBounds(0.0, 8.0)
            )
            rewrites = tuple(
                Rewrite(text=prompt, params=params, tokens_generated=len(prompt.split()))
                for _ in range(10)
            )
            return ParaphraseGroup(source=prompt, rewrites=rewrites)

        result = run_pipeline(PROMPT, config(), mock_client, stage1_rewriter=identity_rewriter)
        oracle = topk_ndp(histogram_of([PROMPT] * 10), 10)
        assert result.released.words == oracle.words
        assert set(result.released.words) <= set(tokenize_normalize(PROMPT))

    def test_deterministic_given_seed(self):
        first = run_pipeline(PROMPT, config(), MockChatModel(seed=0))
        second = run_pipeline(PROMPT, config(), MockChatModel(seed=0))
        assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())

    def test_seed_changes_samples(self):
        first = run_pipeline(PROMPT, config(seed=1), MockChatModel(seed=0))
        second = run_pipeline(PROMPT, config(seed=2), MockChatModel(seed=0))
        assert first.sanitized != second.sanitized

    def test_original_withheld_from_final_prompt(self, mock_client):
        result = run_pipeline(PROMPT, config(schedule=1.5), mock_client)
        assert PROMPT not in result.final_prompt
        assert result.final_prompt.split("\n")[1] == result.exemplar.text

    def test_leakage_flag_consistency(self, mock_client):
        result = run_pipeline(PROMPT, config(), mock_client)
        sanitized_tokens = set(tokenize_normalize(result.sanitized))
        assert result.leakage_flag == bool(sanitized_tokens & set(result.released.words))

    def test_stage1_failure_carries_partial_trail(self):
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(PROMPT, config(), FailingClient(failures=99))
        assert exc_info.value.stage == "stage-1 rewriting"
        assert exc_info.value.completed == ()
        assert exc_info.value.ledger.entries == []  # a failed call charges nothing

    def test_stage2_failure_carries_group(self, mock_client):
        # DP release with k far above the distinct-word count fails in stage 2.
        bad = config(release_method=ReleaseMethod.DP, epsilon2=1.0, k=5000)
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(PROMPT, bad, mock_client)
        exc = exc_info.value
        assert exc.stage == "stage-2 control"
        assert exc.completed == ("group", "histogram")
        rewrite_total = run_pipeline(PROMPT, config(), mock_client).ledger.rewrite_total()
        assert exc.ledger.total() == exc.ledger.rewrite_total() == rewrite_total > 0

    @pytest.mark.parametrize(
        "stage, serve, overrides, completed",
        [
            ("stage-1 rewriting", 0, {}, ()),
            ("stage-2 control", 99, {"release_method": ReleaseMethod.DP, "epsilon2": 1.0, "k": 5000},
             ("group", "histogram")),
            ("stage-3 generation", 10, {}, ("group", "histogram", "released", "exemplar")),
        ],
    )
    def test_stage_failure_holds_no_prompt_text(self, stage, serve, overrides, completed):
        client = CutOffClient(serve=serve)
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(PROMPT, config(**overrides), client)
        exc = exc_info.value
        assert (exc.stage, exc.completed) == (stage, completed)
        assert len(client.texts) == min(serve, 10)
        held = repr(vars(exc))
        assert PROMPT not in held
        assert not [text for text in client.texts if text in held]

    def test_whitebox_mode_end_to_end(self, mock_client):
        oracle = ConstantStepOracle(
            vocab=("harbor", "lantern", "meadow", "kettle", "</s>"),
            logits=(1.0, 0.9, 0.8, 0.7, -100.0),
            eos_index=4,
        )
        cfg = config(mode="whitebox", max_tokens=12, bounds=ClipBounds(-4.0, 4.0))
        result = run_pipeline(PROMPT, cfg, mock_client, oracle=oracle)
        assert result.group.size == 10
        assert result.ledger.rewrite_total() == pytest.approx(
            sum(r.tokens_generated for r in result.group.rewrites) * 2 * 8.0, rel=1e-12
        )

    def test_a_single_temperature_covers_every_slot(self):
        cfg = config(schedule=0.5, m=4)
        assert cfg.rewrite_schedule() == RewriteSchedule.uniform(0.5, 4)
        assert cfg.rewrite_params().temperature == 0.5
        # The temperature follows m rather than being fixed at construction.
        assert replace(cfg, m=6).rewrite_schedule() == RewriteSchedule.uniform(0.5, 6)

    @pytest.mark.parametrize("template", ["no placeholder", "{"])
    def test_template_without_the_prompt_placeholder_rejected(self, template):
        with pytest.raises(ValueError, match="prompt_template must contain {prompt}"):
            config(prompt_template=template)

    def test_dp_requires_epsilon2(self):
        with pytest.raises(ValueError):
            config(release_method=ReleaseMethod.DP)


class TestBudgetReport:
    def test_uniform_closed_form_line(self, mock_client):
        result = run_pipeline(PROMPT, config(), mock_client)
        report = budget_report(result)
        assert "m·n·ε₁" in report
        assert "total:" in report
        m = result.group.size
        n = result.group.rewrites[0].tokens_generated
        assert f"{m}·{n}·16" in report

    def test_non_uniform_subtotals_per_temperature(self, mock_client):
        schedule = RewriteSchedule.from_range(0.5, 1.5, 0.1)
        result = run_pipeline(PROMPT, config(m=11, schedule=schedule), mock_client)
        report = budget_report(result)
        subtotal_lines = [l for l in report.splitlines() if l.strip().startswith("eps/unit")]
        assert len(subtotal_lines) == 11

    def test_empty_ledger_reports_zero(self):
        group = make_group(["only text"])
        result = SanitizedResult(
            original="x",
            group=group,
            histogram=histogram_of(group.texts()),
            released=topk_ndp(histogram_of(group.texts()), 1),
            exemplar=ScoredParaphrase(0, "only text", 1.0),
            final_prompt="p",
            sanitized="s",
            ledger=PrivacyLedger(),
            leakage_flag=False,
        )
        assert "total: 0.000000" in budget_report(result)
