import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsan.client import ChatRequest, ChatResponse, MockChatModel, TransportError
from promptsan.evaluation import synthetic_qa_records
from promptsan.keywords import ReleaseMethod
from promptsan.mechanisms import ClipBounds, LogitVector, PrivacyLedger, Stage, schedule_total
from promptsan.pipeline import PipelineConfig, run_pipeline
from promptsan.rewriting import (
    MAX_SLOTS,
    DegenerateBoundsError,
    GroupRewriteError,
    ParaphraseGroup,
    Rewrite,
    RewriteError,
    RewriteParams,
    RewriteSchedule,
    calibrate_bounds,
    paraphrase_blackbox,
    paraphrase_whitebox,
    rewrite_group,
)

from conftest import ConstantStepOracle, EchoClient, FailingClient, FixedClient, ReportingClient


def whitebox_params(bounds: ClipBounds, temperature: float = 1.0, max_tokens: int = 15):
    return RewriteParams(
        mode="whitebox", temperature=temperature, max_tokens=max_tokens, bounds=bounds
    )


class TestParams:
    def test_whitebox_requires_bounds(self):
        with pytest.raises(TypeError, match="bounds"):
            RewriteParams(mode="whitebox", temperature=1.0, max_tokens=10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RewriteParams(mode="graybox", temperature=1.0, max_tokens=10, bounds=ClipBounds(0.0, 8.0))

    @pytest.mark.parametrize("template", ["no placeholder", "{", "{prompt"])
    def test_template_without_the_prompt_placeholder_rejected(self, template):
        with pytest.raises(ValueError, match="prompt_template must contain {prompt}"):
            RewriteParams(
                mode="blackbox", temperature=1.0, max_tokens=10, bounds=ClipBounds(0.0, 8.0),
                prompt_template=template,
            )

    @pytest.mark.parametrize(
        "low, high, step",
        [(0.5, math.inf, 0.1), (0.5, 1.5, math.nan), (math.nan, 1.5, 0.1), (-math.inf, 1.5, 0.1),
         (0.5, 1.5, math.inf), (0.5, math.nan, 0.1)],
    )
    def test_non_finite_schedule_range_rejected(self, low, high, step):
        with pytest.raises(ValueError, match="schedule range must be finite"):
            RewriteSchedule.from_range(low, high, step)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_must_be_positive_and_finite(self, temperature):
        bounds = ClipBounds(0.0, 8.0)
        with pytest.raises(ValueError, match="rewrite temperature must be positive and finite"):
            RewriteParams(mode="blackbox", temperature=temperature, max_tokens=10, bounds=bounds)
        with pytest.raises(ValueError, match="rewrite temperature must be positive and finite"):
            RewriteSchedule((1.0, 1.0, temperature))
        with pytest.raises(ValueError, match="rewrite temperature must be positive and finite"):
            PipelineConfig(bounds=bounds, schedule=temperature)

    # Each of the first three steps is too small to move t, so only the slot limit ends the loop.
    @pytest.mark.parametrize(
        "low, high, step", [(0.5, 1.5, 1e-300), (0.5, 0.5, 1e-300), (1e6, 1e6, 1e-11), (0.5, 1.5, 0.0005)]
    )
    def test_schedule_range_over_max_slots_rejected(self, low, high, step):
        with pytest.raises(ValueError, match=f"more than {MAX_SLOTS} rewrite slots"):
            RewriteSchedule.from_range(low, high, step)

    def test_schedule_holds_at_most_max_slots(self):
        assert RewriteSchedule.uniform(1.0, MAX_SLOTS).total == MAX_SLOTS
        assert RewriteSchedule.from_range(0.001, 1.0, 0.001).total == MAX_SLOTS
        with pytest.raises(ValueError, match=f"at most {MAX_SLOTS} rewrite slots"):
            RewriteSchedule.uniform(1.0, MAX_SLOTS + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_SLOTS} rewrite slots"):
            RewriteSchedule((1.0,) * (MAX_SLOTS + 1))
        with pytest.raises(ValueError, match=f"at most {MAX_SLOTS} rewrite slots"):
            PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=MAX_SLOTS + 1)


class TestParaphraseWhitebox:
    def test_suppressed_eos_runs_to_max_tokens(self, rng):
        oracle = ConstantStepOracle(vocab=("A", "B", "</s>"), logits=(0.0, 0.0, -1e6), eos_index=2)
        bounds = ClipBounds(-2e6, 1.0)
        ledger = PrivacyLedger()
        rewrite = paraphrase_whitebox("seed prompt", whitebox_params(bounds), oracle, rng, ledger)
        tokens = rewrite.text.split()
        assert len(tokens) == 15
        assert set(tokens) <= {"A", "B"}
        assert ledger.entries[-1].units == 15

    def test_sharp_distribution_forces_first_token(self, rng):
        # Clipped to [0, 1] the logits become (1, 0, 0); at T=0.01 the first
        # token wins with probability ~1 - 2e-44 per step.
        oracle = ConstantStepOracle(vocab=("A", "B", "C"), logits=(10.0, -10.0, -10.0))
        params = whitebox_params(ClipBounds(0.0, 1.0), temperature=0.01, max_tokens=50)
        rewrite = paraphrase_whitebox("p", params, oracle, rng, PrivacyLedger())
        assert rewrite.text.split() == ["A"] * 50

    def test_ledger_charge_for_twenty_tokens(self, rng):
        oracle = ConstantStepOracle(vocab=("A", "B"), logits=(0.0, 0.0))
        bounds = ClipBounds.from_unit_epsilon(19.4)
        params = whitebox_params(bounds, temperature=1.0, max_tokens=20)
        ledger = PrivacyLedger()
        paraphrase_whitebox("p", params, oracle, rng, ledger)
        assert ledger.total() == pytest.approx(20 * 19.4, rel=1e-12)

    def test_eos_stops_generation_and_counts_one_draw(self, rng):
        oracle = ConstantStepOracle(vocab=("A", "</s>"), logits=(-1e6, 1e6), eos_index=1)
        bounds = ClipBounds(-1e7, 1e7)
        ledger = PrivacyLedger()
        rewrite = paraphrase_whitebox("p", whitebox_params(bounds), oracle, rng, ledger)
        assert rewrite.text == ""
        assert rewrite.tokens_generated == 1
        assert ledger.entries[-1].units == 1

    def test_provider_failure_keeps_partial_charge(self, rng, bounds):
        class FlakyOracle:
            vocab = ("A", "B")
            eos_index = None
            steps = 0

            def step_logits(self, context):
                if self.steps >= 3:
                    raise RuntimeError("oracle exploded")
                self.steps += 1
                return LogitVector([0.0, 0.0])

        ledger = PrivacyLedger()
        with pytest.raises(RewriteError) as exc_info:
            paraphrase_whitebox("p", whitebox_params(bounds), FlakyOracle(), rng, ledger)
        assert "after 3 tokens" in str(exc_info.value)
        assert ledger.entries[-1].units == 3

    def test_an_oracle_reusing_one_logits_buffer_decodes_every_step(self, rng, bounds):
        class BufferOracle:
            """Writes each step's logits into one preallocated buffer."""

            vocab = ("A", "B", "C")
            eos_index = None
            buffer = np.zeros(3)

            def step_logits(self, context):
                self.buffer[:] = 0.0
                self.buffer[len(context) % 3] = 8.0
                return LogitVector(self.buffer)

        ledger = PrivacyLedger()
        rewrite = paraphrase_whitebox("p", whitebox_params(bounds, max_tokens=6), BufferOracle(), rng, ledger)
        assert rewrite.tokens_generated == len(rewrite.text.split()) == 6
        assert ledger.entries[-1].units == 6

    def test_seeded_determinism(self, bounds):
        oracle = ConstantStepOracle(vocab=("A", "B"), logits=(0.3, 0.7))
        params = whitebox_params(bounds, max_tokens=25)
        first = paraphrase_whitebox("p", params, oracle, np.random.default_rng(3), PrivacyLedger())
        second = paraphrase_whitebox("p", params, oracle, np.random.default_rng(3), PrivacyLedger())
        assert first.text == second.text


class TestParaphraseBlackbox:
    def params(self, temperature=1.0, max_tokens=64):
        return RewriteParams(
            mode="blackbox", temperature=temperature, max_tokens=max_tokens,
            bounds=ClipBounds.from_unit_epsilon(19.4),
        )

    def test_upper_echo_mock_contract(self):
        ledger = PrivacyLedger()
        rewrite = paraphrase_blackbox("visit the harbor", self.params(), EchoClient("upper"), ledger)
        assert rewrite.text == "VISIT THE HARBOR"
        assert len(ledger.entries) == 1
        assert "nominal" in ledger.entries[0].note

    def test_nominal_epsilon_charge_at_low_temperature(self):
        ledger = PrivacyLedger()
        client = FixedClient(text=" ".join(["tok"] * 15))
        paraphrase_blackbox("prompt", self.params(temperature=0.1), client, ledger)
        assert ledger.total() == pytest.approx(15 * 194.0, rel=1e-12)

    def test_a_reply_after_retries_is_charged_once(self):
        ledger = PrivacyLedger()
        rewrite = paraphrase_blackbox("p", self.params(), FixedClient(text="ok fine", attempts=3), ledger)
        assert rewrite.tokens_generated == 2
        assert [(e.stage, e.units) for e in ledger.entries] == [(Stage.REWRITE, 2)]

    def test_a_reply_over_the_cap_is_dropped_and_charged_the_cap(self):
        ledger = PrivacyLedger()
        with pytest.raises(RewriteError, match="the reply broke the cap of max_tokens = 64") as exc_info:
            paraphrase_blackbox("p q", self.params(), ReportingClient([100]), ledger)
        assert "100" not in str(exc_info.value)
        assert [(e.stage, e.units) for e in ledger.entries] == [(Stage.REWRITE, 64)]

    @pytest.mark.parametrize("bounds, temperature", [(ClipBounds(0.0, 1e308), 0.5), (ClipBounds(0.0, 1e306), 0.01)])
    def test_a_rewrite_whose_ex_ante_budget_is_not_finite_is_rejected(self, bounds, temperature):
        with pytest.raises(ValueError, match=r"ex-ante budget m·max_tokens·ε₁ \(\+ε₂\) is not a finite number"):
            RewriteParams(mode="blackbox", temperature=temperature, max_tokens=64, bounds=bounds)

    def test_missing_bounds_rejected(self):
        with pytest.raises(TypeError, match="bounds"):
            RewriteParams(mode="blackbox", temperature=1.0, max_tokens=8)

    def test_client_failure_becomes_rewrite_error(self):
        with pytest.raises(RewriteError):
            paraphrase_blackbox("p", self.params(), FailingClient(failures=99), PrivacyLedger())


class TestRewriteGroup:
    def params(self):
        return RewriteParams(
            mode="blackbox", temperature=1.0, max_tokens=64,
            bounds=ClipBounds.from_unit_epsilon(19.4),
        )

    def test_uniform_echo_group(self, rng):
        ledger = PrivacyLedger()
        group = rewrite_group(
            "sail the quiet canal", RewriteSchedule.uniform(1.0, 10), self.params(), rng, ledger,
            client=EchoClient(),
        )
        assert len(group.rewrites) == 10
        assert set(group.texts()) == {"sail the quiet canal"}
        assert sum(1 for e in ledger.entries if e.stage is Stage.REWRITE) == 10

    def test_schedule_total_cross_check(self, rng):
        schedule = RewriteSchedule.from_range(0.5, 1.5, 0.1)
        assert schedule.total == 11
        ledger = PrivacyLedger()
        group = rewrite_group(
            "prompt words here", schedule, self.params(), rng, ledger, client=EchoClient()
        )
        assert len(group.rewrites) == 11
        counts = [r.tokens_generated for r in group.rewrites]
        temps = [r.params.temperature for r in group.rewrites]
        expected = schedule_total(counts, temps, ClipBounds.from_unit_epsilon(19.4))
        assert ledger.total() == pytest.approx(expected, rel=1e-12)

    def test_single_rewrite_degenerates(self, rng):
        group = rewrite_group(
            "p q r", RewriteSchedule.uniform(1.0, 1), self.params(), rng, PrivacyLedger(), client=EchoClient()
        )
        assert len(group.rewrites) == 1

    def test_partial_failure_keeps_successes(self, rng):
        client = FailingClient(failures=2)
        group = rewrite_group(
            "p q", RewriteSchedule.uniform(1.0, 5), self.params(), rng, PrivacyLedger(), client=client
        )
        assert len(group.rewrites) == 3
        assert len(group.warnings) == 2

    def test_all_failed_raises(self, rng):
        with pytest.raises(GroupRewriteError):
            rewrite_group(
                "p", RewriteSchedule.uniform(1.0, 3), self.params(), rng, PrivacyLedger(),
                client=FailingClient(failures=99),
            )

    def test_never_substitutes_original_on_failure(self, rng):
        client = FailingClient(failures=1, inner=EchoClient("upper"))
        group = rewrite_group(
            "secret prompt", RewriteSchedule.uniform(1.0, 3), self.params(), rng, PrivacyLedger(),
            client=client,
        )
        assert all(t == "SECRET PROMPT" for t in group.texts())

    def test_schedule_permutation_preserves_total(self, mock_client):
        fwd = RewriteSchedule((0.5, 0.5, 1.5, 1.5))
        bwd = RewriteSchedule((1.5, 1.5, 0.5, 0.5))
        ledger_fwd, ledger_bwd = PrivacyLedger(), PrivacyLedger()
        group_fwd = rewrite_group(
            "quiet harbor lantern", fwd, self.params(),
            np.random.default_rng(0), ledger_fwd, client=mock_client,
        )
        group_bwd = rewrite_group(
            "quiet harbor lantern", bwd, self.params(),
            np.random.default_rng(0), ledger_bwd, client=mock_client,
        )
        assert [r.params.temperature for r in group_fwd.rewrites] == [0.5, 0.5, 1.5, 1.5]
        assert [r.params.temperature for r in group_bwd.rewrites] == [1.5, 1.5, 0.5, 0.5]
        assert ledger_fwd.total() == pytest.approx(ledger_bwd.total(), rel=1e-12)

    def test_a_slot_sends_the_same_seed_at_any_m_and_temperature(self):
        class RecordingClient:
            def __init__(self) -> None:
                self.seeds: list[int | None] = []

            def complete(self, req: ChatRequest) -> ChatResponse:
                self.seeds.append(req.seed)
                return ChatResponse(text="p q", tokens_generated=2)

        def slot_seeds(m: int, temperature: float) -> list[int]:
            client = RecordingClient()
            rewrite_group(
                "p q", RewriteSchedule.uniform(temperature, m), self.params(),
                np.random.default_rng(42), PrivacyLedger(), client=client,
            )
            return client.seeds

        seeds = slot_seeds(10, 0.5)
        assert len(set(seeds)) == 10
        assert slot_seeds(4, 0.5) == seeds[:4]
        assert slot_seeds(10, 1.5) == seeds
        assert slot_seeds(4, 1.5) == seeds[:4]

    def test_group_invariants(self):
        params = RewriteParams(mode="blackbox", temperature=1.0, max_tokens=2, bounds=ClipBounds(0.0, 8.0))
        with pytest.raises(ValueError):
            ParaphraseGroup(source="s", rewrites=())
        with pytest.raises(ValueError):
            ParaphraseGroup(
                source="s",
                rewrites=(Rewrite(text="a b c", params=params, tokens_generated=3),),
            )


class InflightMock:
    """A client (the mock by default) behind a ``max_inflight`` attribute, so rewrite_group fans out."""

    def __init__(self, max_inflight: int, inner=None) -> None:
        self.max_inflight = max_inflight
        self.inner = inner or MockChatModel()

    def complete(self, req: ChatRequest) -> ChatResponse:
        return self.inner.complete(req)


class BarrierClient:
    """Returns only once four calls are waiting together."""

    max_inflight = 4

    def __init__(self) -> None:
        self.barrier = threading.Barrier(4, timeout=5)

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.barrier.wait()
        return ChatResponse(text="kept text", tokens_generated=2)


class FailAtTemperature:
    """Raises ``error`` for the slot at ``temperature``; answers the rest.

    Declares no ``max_inflight``, so rewrite_group runs its slots inline.
    """

    def __init__(self, temperature: float, error: Exception) -> None:
        self.temperature = temperature
        self.error = error
        self.temperatures: list[float] = []

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.temperatures.append(req.temperature)
        if req.temperature == self.temperature:
            raise self.error
        return ChatResponse(text="kept text", tokens_generated=2)


class TestFanOut:
    # Six slots at T = 0.5, 0.6, ..., 1.0, so a slot is known by its temperature.
    schedule = RewriteSchedule.from_range(0.5, 1.0, 0.1)

    def params(self):
        return RewriteParams(
            mode="blackbox", temperature=1.0, max_tokens=64, bounds=ClipBounds(0.0, 8.0)
        )

    def test_four_slots_are_in_flight_at_once(self, rng):
        # Sequential slots would leave the first caller alone at the barrier
        # until it times out and breaks.
        ledger = PrivacyLedger()
        group = rewrite_group(
            "p q", RewriteSchedule.uniform(1.0, 8), self.params(), rng, ledger, client=BarrierClient()
        )
        assert len(group.rewrites) == 8
        assert len(ledger.entries) == 8

    @pytest.mark.parametrize(
        "schedule",
        [
            RewriteSchedule.from_range(0.5, 1.5, 0.1),
            RewriteSchedule((0.5, 0.5, 0.75, 0.75, 1.0, 1.0, 1.25, 1.25, 1.5, 1.5)),
        ],
    )
    def test_pipeline_output_is_identical_at_any_max_inflight(self, schedule):
        config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=schedule.total, schedule=schedule, seed=5)
        prompt = "Where would the silver archive usually store a hidden journal during the harbor festival?"
        outputs = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for client in (MockChatModel(), InflightMock(1), InflightMock(4), InflightMock(8)):
                result = run_pipeline(prompt, config, client)
                outputs.add(
                    json.dumps(result.to_json_dict(), ensure_ascii=False)
                    + json.dumps(result.ledger.to_rows())
                )
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs) == 1

    @pytest.mark.parametrize("max_inflight", [None, 1, 4], ids=["inline", "inflight1", "inflight4"])
    def test_untyped_error_raises_after_every_other_slot_is_charged(self, rng, max_inflight):
        ledger = PrivacyLedger()
        failing = FailAtTemperature(0.8, KeyError("boom"))
        client = failing if max_inflight is None else InflightMock(max_inflight, failing)
        with pytest.raises(KeyError) as exc_info:
            rewrite_group("p q", self.schedule, self.params(), rng, ledger, client=client)
        assert exc_info.value is failing.error
        assert sorted(failing.temperatures) == list(self.schedule.temperatures)
        assert [(e.note, e.units) for e in ledger.entries] == [
            (f"blackbox T={t:g} (nominal bounds)", 2) for t in (0.5, 0.6, 0.7, 0.9, 1.0)
        ]

    def test_failed_slot_is_dropped_in_slot_order(self, rng):
        ledger = PrivacyLedger()
        client = InflightMock(4, FailAtTemperature(0.6, TransportError("stub outage")))
        group = rewrite_group("p q", self.schedule, self.params(), rng, ledger, client=client)
        assert [r.params.temperature for r in group.rewrites] == [0.5, 0.7, 0.8, 0.9, 1.0]
        assert len(group.warnings) == 1
        assert group.warnings[0].startswith("slot 1 (T=0.6) failed:")
        assert len(ledger.entries) == 5


class DropFirstSlot:
    """The mock, except that the first call fails with a ``TransportError``."""

    def __init__(self) -> None:
        self.mock = MockChatModel()
        self.lock = threading.Lock()
        self.failed = False

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self.lock:
            fail, self.failed = not self.failed, True
        if fail:
            raise TransportError("stub outage")
        return self.mock.complete(req)


QUESTIONS = [r.question for r in synthetic_qa_records(40, seed=11)]
TEMPERATURES = (0.1, 0.25, 0.5, 1.0, 1.5)

# Every schedule covers at least two slots, so dropping one leaves a group.
schedules = st.one_of(
    st.builds(RewriteSchedule.uniform, st.sampled_from(TEMPERATURES), st.integers(2, 10)),
    st.builds(
        lambda low, step, n, each: RewriteSchedule(tuple(
            t for t in RewriteSchedule.from_range(low, low + step * (n - 1), step).temperatures
            for _ in range(each)
        )),
        st.sampled_from(TEMPERATURES),
        st.sampled_from((0.05, 0.1, 0.25)),
        st.integers(2, 6),
        st.integers(1, 2),
    ),
)


@st.composite
def pipeline_runs(draw):
    """A prompt of 1-4 joined questions (at least 2 for DP) and its config."""
    dp = draw(st.booleans())
    count = draw(st.integers(2 if dp else 1, 4))
    picks = draw(st.lists(st.integers(0, len(QUESTIONS) - 1), min_size=count, max_size=count, unique=True))
    schedule = draw(schedules)
    config = PipelineConfig(
        bounds=ClipBounds(0.0, 8.0),
        m=schedule.total,
        schedule=schedule,
        release_method=ReleaseMethod.DP if dp else ReleaseMethod.NDP,
        epsilon2=draw(st.sampled_from((0.5, 1.0, 3.0))) if dp else None,
        seed=draw(st.integers(0, 2**32)),
    )
    return " ".join(QUESTIONS[i] for i in picks), config


class TestLedgerProperty:
    @settings(max_examples=150, deadline=None)
    @given(pipeline_runs(), st.sampled_from(("mock", "inflight", "drop")))
    def test_ledger_total_is_the_composed_budget_of_the_recorded_rewrites(self, run, client_kind):
        prompt, config = run
        clients = {"mock": MockChatModel, "inflight": lambda: InflightMock(4), "drop": DropFirstSlot}
        client = clients[client_kind]()
        result = run_pipeline(prompt, config, client)
        rewrites = result.group.rewrites
        assert len(rewrites) == config.m - (client_kind == "drop")
        expected = schedule_total(
            [r.tokens_generated for r in rewrites], [r.params.temperature for r in rewrites], config.bounds
        )
        assert result.ledger.rewrite_total() == expected
        epsilon2 = config.epsilon2 if config.release_method is ReleaseMethod.DP else 0.0
        assert result.ledger.total() == pytest.approx(expected + epsilon2, rel=1e-12, abs=0.0)


class TestCalibration:
    def test_degenerate_samples_rejected(self):
        with pytest.raises(DegenerateBoundsError):
            calibrate_bounds([5.0, 5.0, 5.0])

    def test_two_point_sample(self):
        bounds = calibrate_bounds([0.0, 2.0])
        assert bounds.b_min == pytest.approx(1.0, abs=1e-12)
        assert bounds.b_max == pytest.approx(5.0, abs=1e-12)

    def test_standard_normal_recovers_zero_four(self):
        draws = np.random.default_rng(123).standard_normal(100_000)
        bounds = calibrate_bounds(draws)
        assert bounds.b_min == pytest.approx(0.0, abs=0.05)
        assert bounds.b_max == pytest.approx(4.0, abs=0.05)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            calibrate_bounds([1.0])
