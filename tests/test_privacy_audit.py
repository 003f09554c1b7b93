"""The white-box audit of ``privacy_audit``: no output loses more than its run's charge.

Criterion 1 pins epsilon_per_token's values and the EOS test in
``test_rewriting`` pins the draw count; these tests check that the charge a
run records bounds the exact privacy loss of the output it gave.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsan.mechanisms import ClipBounds, epsilon_per_token, schedule_total
from promptsan.pipeline import PipelineConfig

from privacy_audit import AUDIT_TEMPLATE, TableOracle, audit, extreme_rows, log_probability, outputs

BOUNDS = ClipBounds(-1.0, 1.0)
TEMPERATURES = (0.5, 2.0)


def whitebox_slots(schedule, m: int, max_tokens: int, bounds: ClipBounds = BOUNDS):
    config = PipelineConfig(
        bounds=bounds, m=m, schedule=schedule, mode="whitebox", max_tokens=max_tokens,
        prompt_template=AUDIT_TEMPLATE,
    )
    return config.slots


def table_oracle(vocab_size: int, eos: bool, rows) -> TableOracle:
    """An oracle over the first ``vocab_size`` of a, b, c, d, the last of them EOS if ``eos``."""
    vocab = ("a", "b", "c", "d")[:vocab_size - eos] + ("</s>",) * eos
    return TableOracle(vocab, rows, vocab_size - 1 if eos else None)


def audit_oracle(vocab_size: int, eos: bool, steps: int, bounds: ClipBounds = BOUNDS) -> TableOracle:
    """The extreme prompt pair, one prompt inside the bounds and one partly past them."""
    rng = np.random.default_rng(10 * vocab_size + steps)
    width = bounds.range()
    return table_oracle(vocab_size, eos, {
        "top": extreme_rows(vocab_size, steps, bounds, top=True),
        "bottom": extreme_rows(vocab_size, steps, bounds, top=False),
        "inside": rng.uniform(bounds.b_min, bounds.b_max, (steps, vocab_size)).tolist(),
        "past": rng.uniform(bounds.b_min - width, bounds.b_max + width, (steps, vocab_size)).tolist(),
    })


CASES = pytest.mark.parametrize(
    "vocab_size, eos, max_tokens, temperature",
    [(v, eos, n, t) for v in (2, 3, 4) for eos in (False, True) for n in (1, 2, 3) for t in TEMPERATURES],
)


class TestRewrite:
    @CASES
    def test_every_output_loses_at_most_its_charge(self, vocab_size, eos, max_tokens, temperature):
        oracle = audit_oracle(vocab_size, eos, max_tokens)
        found = audit(oracle, whitebox_slots(temperature, 1, max_tokens))
        assert found
        assert [loss for loss in found if not loss.within_charge()] == []
        # The worst case is at most the ex-ante bound.
        worst = max(loss.loss for loss in found)
        assert worst <= max_tokens * epsilon_per_token(temperature, BOUNDS) * (1 + 1e-12)

    @CASES
    def test_the_outputs_are_every_outcome(self, vocab_size, eos, max_tokens, temperature):
        oracle = audit_oracle(vocab_size, eos, max_tokens)
        for prompt in oracle.rows:
            total = math.fsum(
                math.exp(log_probability(oracle, prompt, output, temperature, BOUNDS))
                for output in outputs(vocab_size, oracle.eos_index, max_tokens)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("vocab_size", [2, 3, 4])
    @pytest.mark.parametrize("eos", [False, True], ids=["no-eos", "eos"])
    def test_some_output_loses_more_than_half_the_charge_once_v_is_3(self, vocab_size, eos):
        # So a per-token cost of (b_max - b_min)/T, half the true one, fails the audit.
        oracle = audit_oracle(vocab_size, eos, 2)
        half = BOUNDS.range()  # (b_max - b_min)/T at T = 1
        excess = max(loss.loss - loss.draws * half for loss in audit(oracle, whitebox_slots(1.0, 1, 2)))
        if vocab_size == 2:
            assert excess <= 1e-12
        else:
            assert excess > 0.1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_two_prompts_lose_at_most_the_charge(self, data):
        vocab_size = data.draw(st.integers(2, 4), label="V")
        max_tokens = data.draw(st.integers(1, 3), label="max_tokens")
        eos = data.draw(st.booleans(), label="eos")
        temperature = data.draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)), label="T")
        bounds = ClipBounds(0.0, data.draw(st.sampled_from((0.5, 2.0, 4.0)), label="b_max"))
        logit = st.floats(bounds.b_min - 2.0, bounds.b_max + 2.0)
        row = st.lists(logit, min_size=vocab_size, max_size=vocab_size)
        rows = st.lists(row, min_size=max_tokens, max_size=max_tokens)
        oracle = table_oracle(vocab_size, eos, {"p": data.draw(rows, label="p"), "q": data.draw(rows, label="q")})
        found = audit(oracle, whitebox_slots(temperature, 1, max_tokens, bounds))
        assert [loss for loss in found if not loss.within_charge()] == []


class TestGroup:
    @pytest.mark.parametrize("schedule", [1.0, (0.5, 2.0)], ids=["uniform", "per-slot"])
    def test_a_group_loses_at_most_its_ledger_total(self, schedule):
        oracle = audit_oracle(3, True, 2)
        slots = whitebox_slots(schedule, 2, 2)
        found = audit(oracle, slots)
        assert [loss for loss in found if not loss.within_charge()] == []
        ex_ante = schedule_total([2, 2], [s.temperature for s in slots], BOUNDS)
        assert max(loss.loss for loss in found) <= ex_ante * (1 + 1e-12)
