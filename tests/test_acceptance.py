"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import csv
import itertools
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from promptsan.client import MockChatModel
from promptsan.evaluation import (
    REPORT_COLUMNS,
    aggregate,
    emit_report,
    run_experiment,
    synthetic_qa_records,
)
from promptsan.keywords import ReleaseMethod, topk_ndp
from promptsan.mechanisms import (
    ClipBounds,
    LogitVector,
    clip_logits,
    epsilon_per_token,
)
from promptsan.metrics import bleu, rouge1, rougeL
from promptsan.normalization import tokenize
from promptsan.pipeline import PipelineConfig, run_pipeline
from promptsan.prompting import FinalPromptRequest, render_template
from promptsan.rewriting import rewrite_group, RewriteParams, schedule_range
from promptsan.mechanisms import PrivacyLedger

from conftest import ConstantStepOracle, argmin_under, histogram_of, select_from, slots_of, unigram_of
from em_reference import em_sample_distribution, reference_probabilities
from topk_reference import release_distribution, worst_neighbour_divergence


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


NINE_TEMPERATURES = (0.1, 0.15, 0.2, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)

# Published per-token epsilon tables: per-token cost constant at T=1 -> nine
# rounded values over the temperature grid.
EPSILON_TABLE = {
    39.0: (390.0, 260.0, 195.0, 156.0, 78.0, 52.0, 39.0, 31.2, 26.0),  # ROBERTA
    176.0: (1760.0, 1173.3, 880.0, 704.0, 352.0, 234.7, 176.0, 140.8, 117.3),  # GPT-2
    53.42: (534.2, 356.1, 267.1, 213.7, 106.8, 71.2, 53.4, 42.7, 35.6),  # T5
    19.4: (194.0, 129.3, 97.0, 77.6, 38.8, 25.9, 19.4, 15.5, 12.9),  # llama
}


def test_criterion_1_epsilon_table():
    with criterion(1, "per-token epsilon table reproduced, 36 cells exact after rounding"):
        started = time.monotonic()
        checked = 0
        for unit_epsilon, expected_row in EPSILON_TABLE.items():
            bounds = ClipBounds.from_unit_epsilon(unit_epsilon)
            for temperature, expected in zip(NINE_TEMPERATURES, expected_row):
                assert round(epsilon_per_token(temperature, bounds), 1) == expected
                checked += 1
        assert checked == 36
        assert time.monotonic() - started < 1.0


def test_criterion_2_em_softmax_equivalence():
    with criterion(2, "em_sample exact distribution within TV 0.005 of exact softmax"):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        bounds = ClipBounds(-4.0, 4.0)
        for _ in range(100):
            vocab = int(rng.integers(2, 11))
            raw = LogitVector(rng.uniform(-6.0, 6.0, size=vocab))
            clipped = clip_logits(raw, bounds)
            temperature = float(rng.uniform(0.2, 2.0))
            exact = reference_probabilities(clipped.values, temperature)
            tv = 0.5 * np.abs(em_sample_distribution(clipped, temperature) - exact).sum()
            assert tv < 0.005
            # Each case skips the 10**6 uniforms that sampling it would draw,
            # which keeps the 100 cases the ones a sampled check of them used.
            rng.random(1_000_000)
        assert time.monotonic() - started < 60.0


def test_criterion_3_per_token_ratio_grid():
    with criterion(3, "grid search confirms per-token ratio <= exp(2/T) for T in {0.1, 1.0}"):
        started = time.monotonic()
        axis = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 10)
        grid = np.array(list(itertools.product(axis, repeat=3)))
        assert grid.shape == (21**3, 3)
        for temperature in (0.1, 1.0):
            scaled = grid / temperature
            scaled -= scaled.max(axis=1, keepdims=True)
            exp = np.exp(scaled)
            probs = exp / exp.sum(axis=1, keepdims=True)
            ratio = (probs.max(axis=0) / probs.min(axis=0)).max()
            assert ratio <= math.exp(2.0 / temperature) + 1e-9
        assert time.monotonic() - started < 60.0


WHITEBOX_ORACLE = ConstantStepOracle(
    vocab=("harbor", "lantern", "meadow", "kettle"),
    logits=(0.5, 0.4, 0.3, 0.2),
    eos_index=None,  # every rewrite runs to max_tokens, fixing n exactly
)


def _whitebox_config(**overrides) -> PipelineConfig:
    defaults = dict(
        bounds=ClipBounds(0.0, 4.0),  # dyadic width so epsilon sums are float-exact
        m=10,
        k=10,
        schedule=1.0,
        mode="whitebox",
        max_tokens=20,
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_criterion_4_composition_closed_forms():
    with criterion(4, "ledger totals match m*n*eps1 (NDP), m*n*eps1+eps2 (DP), sum n_i*2du/T_i"):
        client = MockChatModel(seed=0)
        eps1 = epsilon_per_token(1.0, ClipBounds(0.0, 4.0))

        ndp = run_pipeline("prompt under test", _whitebox_config(), client, oracle=WHITEBOX_ORACLE)
        assert ndp.ledger.total() == 10 * 20 * eps1

        dp = run_pipeline(
            "prompt under test",
            _whitebox_config(release_method=ReleaseMethod.DP, epsilon2=1.0, k=2),
            client,
            oracle=WHITEBOX_ORACLE,
        )
        assert dp.ledger.total() == 10 * 20 * eps1 + 1.0

        schedule = schedule_range(0.5, 1.5, 0.1)
        non_uniform = run_pipeline(
            "prompt under test",
            _whitebox_config(m=11, schedule=schedule),
            client,
            oracle=WHITEBOX_ORACLE,
        )
        width = 4.0
        expected = math.fsum(20 * 2 * width / t for t in schedule)
        assert non_uniform.ledger.total() == pytest.approx(expected, rel=1e-9)


def _oracle_release_dist(counts: dict[str, int], k: int, epsilon: float, delta: float) -> dict:
    """Literal one/two-word closed form of the limited-domain release.

    Domain: the top K words by (-count, word); stop score c_+ + 2 +
    b ln(K/delta) with b = 2K/epsilon; one exponential mechanism per draw.
    """
    ranked = sorted(counts, key=lambda w: (-counts[w], w))
    c_plus = counts[ranked[k]] if len(ranked) > k else 0
    b = 2 * k / epsilon
    weight = {w: math.exp(counts[w] / b) for w in ranked[:k]}
    stop = math.exp((c_plus + 2) / b + math.log(k / delta))
    z = sum(weight.values()) + stop
    dist = {(): stop / z}
    for first, w1 in weight.items():
        if k == 1:
            dist[(first,)] = w1 / z
            continue
        z2 = z - w1
        dist[(first,)] = w1 / z * stop / z2
        for second, w2 in weight.items():
            if second != first:
                dist[(first, second)] = w1 / z * w2 / z2
    return dist


def test_criterion_5_peel_release_dp_bound():
    with criterion(5, "DP top-K: hockey-stick <= delta2 at e^eps2 over replace-one neighbours"):
        # Presence counts over 3-4 words, absent words included, so words
        # enter and leave the support and the domain changes.
        for words, m, ks in (
            (("ant", "bat", "cow"), 3, (1, 2, 3)),
            (("ant", "bat", "cow", "dog"), 2, (1, 2)),
            (("ant", "bat", "cow", "dog"), 3, (3,)),
        ):
            for k, epsilon, delta in itertools.product(ks, (0.5, 2.0, 8.0), (1e-3, 0.1)):
                worst, h, neighbour = worst_neighbour_divergence(words, m, k, epsilon, delta)
                assert worst <= delta, (k, epsilon, delta, h, neighbour)
        # The exact distribution against a literal closed form.
        for counts in ({"ant": 5, "bat": 3, "cow": 3}, {"ant": 2, "bat": 2}, {"ant": 9, "bat": 1, "cow": 8}):
            for k, epsilon, delta in itertools.product((1, 2), (0.5, 4.0), (1e-3, 0.2)):
                if k > len(counts):
                    continue
                dist = release_distribution(counts, k, epsilon, delta)
                oracle = _oracle_release_dist(counts, k, epsilon, delta)
                assert set(dist) == set(oracle)
                for seq, p in oracle.items():
                    assert dist[seq] == pytest.approx(p, abs=1e-12)


def test_criterion_6_keyword_extraction_determinism():
    with criterion(6, "NDP keyword path matches the sort oracle byte-identically, 100 runs"):
        params = RewriteParams(
            mode="blackbox", temperature=0.75, max_tokens=64,
            bounds=ClipBounds.from_unit_epsilon(19.4),
        )
        group = rewrite_group(
            "Where would the silver archive usually store a hidden journal during the festival?",
            slots_of((0.75,) * 10, params), np.random.default_rng(99), PrivacyLedger(),
            client=MockChatModel(seed=1),
        )
        hist = histogram_of(group.texts())
        oracle = tuple(
            w for w, _ in sorted(hist.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        )[:10]
        releases = {topk_ndp(hist, 10).words for _ in range(100)}
        assert releases == {oracle}


def test_criterion_7_exemplar_argmin_invariance():
    with criterion(7, "argmin unchanged under x^2, 10x, x+3 over 200 random groups"):
        rng = np.random.default_rng(7)
        pool = np.array(
            "silver archive meadow kettle harbor lantern canal quarry journal festival "
            "tower bridge garden workshop".split()
        )
        for _ in range(200):
            size = int(rng.integers(3, 11))
            texts = [
                " ".join(rng.choice(pool, size=int(rng.integers(4, 10))))
                for _ in range(size)
            ]
            base = unigram_of(texts)
            baseline = select_from(texts, base).index
            for transform in (lambda x: x * x, lambda x: 10.0 * x, lambda x: x + 3.0):
                assert argmin_under(texts, lambda t: transform(base.perplexity(tokenize(t)))) == baseline


def _independent_render(exemplar: str, forbidden: tuple[str, ...]) -> str:
    return (
        "Refer to the following question to generate a new question:\n"
        + exemplar
        + "\nAvoid using the following tokens:\n"
        + ", ".join(forbidden)
    )


def test_criterion_8_template_byte_exactness():
    with criterion(8, "rendered template equals the independent four-line renderer, 100 pairs"):
        rng = np.random.default_rng(8)
        pool = "harbor lantern meadow kettle canal archive quarry silver hidden".split()
        for _ in range(100):
            exemplar = " ".join(
                pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(3, 9)))
            ) + "?"
            k = int(rng.integers(0, 5))
            forbidden = tuple(
                sorted({pool[int(i)] for i in rng.integers(0, len(pool), size=k)})
            )
            rendered = render_template(
                FinalPromptRequest(exemplar=exemplar, forbidden=forbidden)
            )
            assert rendered == _independent_render(exemplar, forbidden)


def _oracle_rouge1(ref: list[str], hyp: list[str]) -> float:
    overlap = sum((Counter(ref) & Counter(hyp)).values())
    if not ref or not hyp or overlap == 0:
        return 0.0
    p, r = overlap / len(hyp), overlap / len(ref)
    return 2 * p * r / (p + r)


def _oracle_rougeL(ref: list[str], hyp: list[str]) -> float:
    if not ref or not hyp:
        return 0.0
    table = [[0] * (len(hyp) + 1) for _ in range(len(ref) + 1)]
    for i in range(1, len(ref) + 1):
        for j in range(1, len(hyp) + 1):
            table[i][j] = (
                table[i - 1][j - 1] + 1
                if ref[i - 1] == hyp[j - 1]
                else max(table[i - 1][j], table[i][j - 1])
            )
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    p, r = lcs / len(hyp), lcs / len(ref)
    return 2 * p * r / (p + r)


def _oracle_bleu(ref: list[str], hyp: list[str]) -> float:
    if not ref or not hyp:
        return 0.0
    # Chen & Cherry (2014) method 3: no unigram match scores 0, and the k-th
    # higher order without a match scores 1 / (2^k * count).
    log_sum, orders, zero_orders = 0.0, range(1, min(4, len(hyp)) + 1), 0
    for n in orders:
        hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        total = sum(hyp_grams.values())
        clipped = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        if not clipped and n == 1:
            return 0.0
        zero_orders += not clipped
        log_sum += math.log(clipped / total if clipped else 1.0 / (2**zero_orders * total))
    geo = math.exp(log_sum / len(list(orders)))
    brevity = math.exp(1 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    return min(1.0, brevity * geo)


def test_criterion_9_metrics_vs_oracles():
    with criterion(9, "rouge1/rougeL/bleu agree with independent oracles on 1000 pairs"):
        rng = np.random.default_rng(9)
        pool = "harbor lantern meadow kettle canal archive quarry stone water light".split()
        for _ in range(1000):
            ref = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 21)))]
            hyp = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 21)))]
            assert rouge1(ref, hyp) == pytest.approx(_oracle_rouge1(ref, hyp), abs=1e-9)
            assert rougeL(ref, hyp) == pytest.approx(_oracle_rougeL(ref, hyp), abs=1e-9)
            assert bleu(ref, hyp) == pytest.approx(_oracle_bleu(ref, hyp), abs=1e-9)
        for _ in range(100):
            tokens = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 15)))]
            assert rouge1(tokens, tokens) == 1.0
            assert rougeL(tokens, tokens) == 1.0
            assert bleu(tokens, tokens) == 1.0


def test_criterion_10_end_to_end_mock_experiment(tmp_path):
    with criterion(10, "200x9x5 mock experiment < 5 min, CSV emitted, rouge1 nonincreasing"):
        started = time.monotonic()
        records = synthetic_qa_records(200, seed=42)
        config = PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=10, k=10, seed=0)
        client = MockChatModel(seed=0)
        rows = run_experiment(
            records,
            config,
            client,
            methods=("group-ndp", "paraphrase"),
            temperatures=NINE_TEMPERATURES,
            repeats=5,
            seed=1234,
        )
        assert len(rows) == 200 * 9 * 5 * 2
        assert not any(r.failed for r in rows)

        aggregates = aggregate(rows)
        report_path = tmp_path / "mock_experiment.csv"
        emit_report(aggregates, str(report_path))
        with open(report_path) as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == REPORT_COLUMNS
            parsed = list(reader)
        assert len(parsed) == 18

        for method in ("group-ndp", "paraphrase"):
            series = sorted(
                (float(r["temperature"]), float(r["q_rouge1_mean"]))
                for r in parsed
                if r["method"] == method
            )
            values = [v for _, v in series]
            assert len(values) == 9
            assert all(
                values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1)
            ), f"{method} rouge1 means not nonincreasing: {values}"

        elapsed = time.monotonic() - started
        assert elapsed < 300.0
