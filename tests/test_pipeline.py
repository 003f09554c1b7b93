import json
import math
import re
import sys
from dataclasses import dataclass, field, replace

import pytest

from promptsan import normalization, pipeline
from promptsan.client import ChatRequest, ChatResponse, MockChatModel, TransportError
from promptsan.exemplar import ScoredParaphrase
from promptsan.keywords import (
    DELTA2,
    STOP_OFFSET,
    ReleaseMethod,
    build_histogram,
    presence_counts,
    tokenize_group,
    tokenize_normalize,
    topk_ndp,
)
from promptsan.mechanisms import ClipBounds, PrivacyLedger, Stage, schedule_total
from promptsan.pipeline import (
    PipelineConfig,
    PipelineStageError,
    SanitizedResult,
    budget_report,
    finish,
    run_pipeline,
)
from promptsan.prompting import contains_forbidden
from promptsan.rewriting import (
    ParaphraseGroup,
    Rewrite,
    RewriteParams,
    check_temperature,
    schedule_range,
)

from conftest import ConstantStepOracle, FailingClient, ReportingClient, histogram_of, make_group

PROMPT = "Where would the silver archive usually store a hidden journal during the harbor festival?"


@dataclass
class CutOffClient:
    """Serves the mock's replies and records them; every call after ``serve`` calls fails."""

    serve: int
    texts: list[str] = field(default_factory=list)
    inner: MockChatModel = field(default_factory=MockChatModel)

    def complete(self, req: ChatRequest) -> ChatResponse:
        if len(self.texts) >= self.serve:
            raise TransportError("stub outage")
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
        assert len(result.group.rewrites) == 10
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
        assert len(result.group.rewrites) == 10
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
        # A plug-in Stage 1 builds its group and charges its ledger; this one charges nothing.
        params = RewriteParams(
            mode="blackbox", temperature=1.0, max_tokens=64, bounds=ClipBounds(0.0, 8.0)
        )
        rewrites = tuple(
            Rewrite(text=PROMPT, params=params, tokens_generated=len(PROMPT.split()))
            for _ in range(10)
        )
        group = ParaphraseGroup(source=PROMPT, rewrites=rewrites)
        result = finish(group, PrivacyLedger(), config(), mock_client)
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
        assert len(result.group.rewrites) == 10
        assert result.ledger.rewrite_total() == pytest.approx(
            sum(r.tokens_generated for r in result.group.rewrites) * 2 * 8.0, rel=1e-12
        )

    @pytest.mark.parametrize("mode", ["blackbox", "whitebox"])
    @pytest.mark.parametrize("method", [ReleaseMethod.NDP, ReleaseMethod.DP])
    def test_the_ledger_holds_only_charges(self, mock_client, mode, method):
        # Stages 2-3 past a DP release are post-processing and leave no entry.
        oracle = ConstantStepOracle(
            vocab=("harbor", "lantern", "meadow", "kettle", "</s>"),
            logits=(1.0, 0.9, 0.8, 0.7, 0.5),
            eos_index=4,
        )
        epsilon2 = 2.0 if method is ReleaseMethod.DP else None
        cfg = config(
            mode=mode, max_tokens=12, release_method=method, epsilon2=epsilon2, k=3,
            schedule=(0.5, 0.5, 0.75, 0.75, 1.0, 1.0, 1.25, 1.25, 1.5, 1.5),
        )
        result = run_pipeline(PROMPT, cfg, mock_client, oracle=oracle)
        stages = [e.stage for e in result.ledger.entries]
        expected = [Stage.REWRITE] * 10 + ([Stage.KEYWORD_RELEASE] if epsilon2 else [])
        assert stages == expected
        rewrites = result.group.rewrites
        spent = schedule_total(
            [r.tokens_generated for r in rewrites], [r.params.temperature for r in rewrites], cfg.bounds
        )
        assert result.ledger.total() == pytest.approx(spent + (epsilon2 or 0.0), rel=1e-12)
        assert result.to_json_dict()["ledger"]["total"] == result.ledger.total()

    def test_a_failed_final_generation_falls_back_to_the_exemplar(self):
        result = run_pipeline(PROMPT, config(fallback_to_exemplar=True), CutOffClient(serve=10))
        assert result.exemplar_fallback is True
        assert result.sanitized == result.exemplar.text
        doc = result.to_json_dict()
        assert doc["exemplar_fallback"] is True and "ledger_total" not in doc
        assert {e.stage for e in result.ledger.entries} == {Stage.REWRITE}
        assert run_pipeline(PROMPT, config(), MockChatModel()).exemplar_fallback is False

    def test_a_single_temperature_covers_every_slot(self):
        cfg = config(schedule=0.5, m=4)
        assert cfg.slots == (cfg.slots[0],) * 4
        assert cfg.slots[0].temperature == 0.5
        # The temperature follows m rather than being fixed at construction.
        assert [s.temperature for s in replace(cfg, m=6).slots] == [0.5] * 6

    @pytest.mark.parametrize("template", ["no placeholder", "{"])
    def test_template_without_the_prompt_placeholder_rejected(self, template):
        with pytest.raises(ValueError, match="prompt_template must contain {prompt}"):
            config(prompt_template=template)

    def test_dp_requires_epsilon2(self):
        with pytest.raises(ValueError):
            config(release_method=ReleaseMethod.DP)

    def test_an_unknown_template_id_is_rejected_with_the_config(self):
        with pytest.raises(ValueError, match="unknown template id: 'nope'"):
            config(template_id="nope")

    @pytest.mark.parametrize(
        "overrides",
        [
            # 10 slots of 64 tokens at 2e306 each overflow the sum, not a slot.
            {"bounds": ClipBounds(0.0, 1e306)},
            {"bounds": ClipBounds(0.0, 1e306), "schedule": schedule_range(1.0, 1.9, 0.1)},
            # The slots sum to 1.28e308, and epsilon2 takes the total past the largest float.
            {"bounds": ClipBounds(0.0, 1e305), "release_method": ReleaseMethod.DP, "epsilon2": 1e308},
        ],
    )
    def test_an_ex_ante_budget_that_is_not_finite_is_rejected(self, overrides):
        with pytest.raises(ValueError, match="ex-ante budget m·max_tokens·ε₁"):
            config(**overrides)


# Each field's wrong values and the refusal that names it: a bool, a string
# and, for a count, 2.5. The tests above give prompt_template and template_id
# their wrong strings.
PIPELINE_REFUSALS = {
    "bounds": ((True, "0:8"), "bounds must be a ClipBounds"),
    "m": ((True, "10", 2.5), "m must be an integer"),
    "k": ((True, "10", 2.5), "k must be an integer"),
    "schedule": ((True, "1.0", [1.0, 1.0], "0.5:1.5:0.5", None), "rewrite temperature must be a number"),
    "release_method": ((True, "DP"), "release_method must be a ReleaseMethod"),
    "epsilon2": ((True, "1.0"), "epsilon2 must be a number"),
    "mode": ((True, "greybox"), "unknown rewrite mode"),
    "seed": ((True, "7", 2.5), "seed must be an integer"),
    "max_tokens": ((True, "64", 2.5), "max_tokens must be an integer"),
    "prompt_template": ((True, 5), "prompt_template must be a string"),
    "template_id": ((True,), "unknown template id"),
    "retry_on_leakage": ((True, "1", 1.5), "retry_on_leakage must be an integer"),
    "fallback_to_exemplar": ((1, "false"), "fallback_to_exemplar must be a bool"),
}


class TestConfigRefusals:
    @pytest.mark.parametrize(
        "name, value, message",
        [(name, value, message) for name, (values, message) in PIPELINE_REFUSALS.items() for value in values],
    )
    def test_a_wrong_value_is_refused(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            config(**{name: value})

    @pytest.mark.parametrize("overrides", [{"k": 2.5}, {"retry_on_leakage": 1.5}])
    def test_a_refused_config_charges_nothing(self, overrides):
        # The refusal comes with the config, before Stage 1 calls or charges anything.
        client = ReportingClient(reported=())
        with pytest.raises(ValueError, match="must be an integer, got"):
            run_pipeline(PROMPT, config(**overrides), client)
        assert client.requests == []

    def test_a_tuple_of_the_wrong_length_is_refused_before_any_temperature_is_checked(self, monkeypatch):
        checked = []

        def counting(temperature):
            checked.append(temperature)
            return check_temperature(temperature)

        monkeypatch.setattr(pipeline, "check_temperature", counting)
        with pytest.raises(ValueError, match="schedule must cover exactly m rewrites"):
            config(m=10, schedule=(1.0,) * 10**6)
        assert checked == []
        assert config(m=2, schedule=(1, 2)).schedule == (1.0, 2.0)
        assert checked == [1, 2]


class TestSlots:
    """``PipelineConfig.slots``: each slot's checked params, built once with the config."""

    def test_slots_of_one_temperature_share_one_object(self):
        cfg = config(m=3, schedule=(0.5, 0.5, 1.5))
        assert cfg.slots[0] is cfg.slots[1]
        assert cfg.slots[2].temperature == 1.5
        assert all(s.max_tokens == cfg.max_tokens and s.bounds == cfg.bounds for s in cfg.slots)

    def test_slots_cannot_be_set(self):
        cfg = config()
        with pytest.raises(ValueError, match="init=False"):
            replace(cfg, slots=cfg.slots)
        with pytest.raises(TypeError):
            PipelineConfig(bounds=ClipBounds(0.0, 8.0), slots=cfg.slots)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"schedule": schedule_range(0.5, 1.4, 0.1)}, {"mode": "whitebox", "max_tokens": 4}],
        ids=["scalar", "schedule", "whitebox"],
    )
    def test_a_run_on_a_built_config_builds_no_schedule_or_params(self, monkeypatch, overrides):
        cfg = config(**overrides)
        builds = []
        for cls in (PipelineConfig, RewriteParams):
            def counting(self, _original=cls.__post_init__):
                builds.append(type(self).__name__)
                _original(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        oracle = ConstantStepOracle(vocab=("a", "b", "c"), logits=(1.0, 2.0, 3.0))
        result = run_pipeline(PROMPT, cfg, MockChatModel(), oracle=oracle if cfg.mode == "whitebox" else None)
        assert len(result.group.rewrites) == cfg.m
        assert builds == []

    def test_an_int_schedule_writes_float_temperatures(self):
        schedule = schedule_range(1, 2, 0.5)
        assert [(type(t), t) for t in schedule] == [(float, 1.0), (float, 1.5), (float, 2.0)]
        doc = json.dumps(run_pipeline(PROMPT, config(m=3, schedule=schedule), MockChatModel()).to_json_dict())
        assert re.findall(r'"temperature": ([^,]+),', doc) == ["1.0", "1.5", "2.0"]


class TestFinish:
    """``finish`` runs Stages 2-3 on any group whose Stage-1 charges its ledger holds."""

    @pytest.mark.parametrize(
        "overrides", [{}, {"release_method": ReleaseMethod.DP, "epsilon2": 1e9}], ids=["ndp", "dp"]
    )
    def test_finish_on_the_group_reproduces_run_pipeline(self, overrides):
        cfg = config(**overrides)
        result = run_pipeline(PROMPT, cfg, MockChatModel(seed=0))
        assert result.released.words
        ledger = PrivacyLedger()
        for entry in result.ledger.entries:
            if entry.stage is Stage.REWRITE:
                ledger.append(entry)
        stage1_rows = ledger.to_rows()
        finished = finish(result.group, ledger, cfg, MockChatModel(seed=0))
        assert json.dumps(finished.to_json_dict(), ensure_ascii=False) == json.dumps(
            result.to_json_dict(), ensure_ascii=False
        )
        assert finished.ledger is ledger
        assert ledger.to_rows()[: len(stage1_rows)] == stage1_rows

    def test_a_dp_finish_short_of_k_words_keeps_the_callers_ledger(self, mock_client):
        cfg = config(release_method=ReleaseMethod.DP, epsilon2=1.0, k=10)
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 16.0, 3, "plug-in T=1")
        stage1_rows = ledger.to_rows()
        with pytest.raises(PipelineStageError) as exc_info:
            finish(make_group(["silver archive", "hidden silver journal"]), ledger, cfg, mock_client)
        exc = exc_info.value
        assert (exc.stage, exc.completed) == ("stage-2 control", ("group", "histogram"))
        assert exc.ledger is ledger
        assert ledger.to_rows() == stage1_rows


class TestOneTokenCount:
    """A kept rewrite's tokens are its ledger units, and a reply over the cap is dropped."""

    CAP = "the reply broke the cap of max_tokens = 64"

    def test_replies_over_the_cap_are_dropped_within_the_ex_ante_bound(self):
        cfg = config(m=3, max_tokens=64)
        client = ReportingClient([100] * 3)
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(PROMPT, cfg, client)
        exc = exc_info.value
        assert exc.stage == "stage-1 rewriting" and len(client.requests) == 3
        message = str(exc)
        assert all(f"slot {slot} (T=1) failed: {self.CAP}" in message for slot in range(3))
        assert "100" not in message
        bound = schedule_total([64] * 3, [1.0] * 3, cfg.bounds)
        assert bound == 3072
        assert exc.ledger.total() <= bound

    def test_kept_rewrites_pair_with_ledger_rows_of_equal_units(self):
        cfg = config(m=4, max_tokens=64)
        result = run_pipeline(PROMPT, cfg, ReportingClient([5, 100, None, 7]))
        doc = result.to_json_dict()
        units = [row["units"] for row in doc["ledger"]["entries"] if row["stage"] == "rewrite"]
        assert units == [5, 64, 64, 7]
        assert doc["group"]["warnings"] == [f"slot 1 (T=1) failed: {self.CAP}"]
        kept = [u for slot, u in enumerate(units) if slot != 1]
        assert [r["tokens"] for r in doc["group"]["rewrites"]] == kept == [5, 64, 7]
        assert result.ledger.total() <= schedule_total([64] * 4, [1.0] * 4, cfg.bounds)


class TestBudgetReport:
    def test_uniform_closed_form_line(self, mock_client):
        result = run_pipeline(PROMPT, config(), mock_client)
        report = budget_report(result)
        assert "m·n·ε₁" in report
        assert "total:" in report
        m = len(result.group.rewrites)
        n = result.group.rewrites[0].tokens_generated
        assert f"{m}·{n}·16" in report

    def test_non_uniform_subtotals_per_temperature(self, mock_client):
        schedule = schedule_range(0.5, 1.5, 0.1)
        result = run_pipeline(PROMPT, config(m=11, schedule=schedule), mock_client)
        report = budget_report(result)
        subtotal_lines = [l for l in report.splitlines() if l.strip().startswith("eps/unit")]
        assert len(subtotal_lines) == 11

    @pytest.mark.parametrize("schedule", [1.0, schedule_range(0.5, 1.5, 0.1)])
    def test_a_dp_release_adds_one_epsilon2_line_to_either_summary(self, mock_client, schedule):
        cfg = config(m=11, schedule=schedule, release_method=ReleaseMethod.DP, epsilon2=200.0)
        lines = budget_report(run_pipeline(PROMPT, cfg, mock_client)).splitlines()
        assert [line for line in lines if "ε₂" in line] == [f"+ ε₂ = 200.000000 at δ₂ = {DELTA2:g}"]
        assert lines[-2].startswith("+ ε₂") and lines[-1].startswith("total:")

    @staticmethod
    def result_with(ledger: PrivacyLedger) -> SanitizedResult:
        group = make_group(["only text"])
        return SanitizedResult(
            group=group,
            histogram=histogram_of(group.texts()),
            released=topk_ndp(histogram_of(group.texts()), 1),
            exemplar=ScoredParaphrase(0, "only text", 1.0),
            final_prompt="p",
            sanitized="s",
            ledger=ledger,
            leakage_flag=False,
        )

    def test_empty_ledger_reports_zero(self):
        assert "total: 0.000000" in budget_report(self.result_with(PrivacyLedger()))

    def test_infinite_epsilon_reports_inf(self):
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 2.0, 3)
        ledger.record(Stage.KEYWORD_RELEASE, math.inf, 1, "keyword release")
        report = budget_report(self.result_with(ledger))
        assert "total: inf" in report
        row = next(line for line in report.splitlines() if line.startswith("keyword_release"))
        assert row.split()[-3:] == ["inf", "1", "inf"]
