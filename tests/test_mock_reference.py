"""The mock paraphraser against a reference copy of its earlier form.

``ReferenceMock._paraphrase`` is ``MockChatModel._paraphrase`` as it was
before it stripped each word once: it strips every word up to three times,
finds affixes with ``str.index``, builds the substitution window as a set and
reads the numpy draws one element at a time. Both must return the same text
and token count for every request.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from promptsan.client import (
    FILL_CAP,
    FILL_SLOPE,
    FORCED_SYNONYMS,
    SHUFFLE_SLOPE,
    SUB_CAP,
    SUB_SLOPE,
    ChatRequest,
    MockChatModel,
    _tag,
)
from promptsan.normalization import _STRIP_CHARS
from promptsan.rewriting import DEFAULT_PARAPHRASE_TEMPLATE
from promptsan.stopwords import STOP_WORDS


def _split_punct(raw: str) -> tuple[str, str, str]:
    core = raw.strip(_STRIP_CHARS)
    if not core:
        return "", raw, ""
    start = raw.index(core)
    return core, raw[:start], raw[start + len(core) :]


class ReferenceMock(MockChatModel):
    def _paraphrase(self, last: str, content: str, req: ChatRequest) -> str:
        target = last.split("\n", 1)[1] if "\n" in last else last
        words = target.split()
        if not words:
            return ""
        content_positions = [
            i for i, w in enumerate(words) if w.strip(_STRIP_CHARS).lower() not in STOP_WORDS
            and w.strip(_STRIP_CHARS)
        ]

        rng = self._rng(content, req.seed)
        offset = int(rng.integers(0, max(len(content_positions), 1)))
        variant_tags = rng.integers(0, 1296, size=max(len(content_positions), 1))
        fill_tags = rng.integers(0, 1296, size=len(words) + 1)
        shuffle_draws = rng.random(64)

        bucket = self._bucket(req.temperature)
        sub_rate = min(SUB_CAP, SUB_SLOPE * bucket)
        fill_rate = min(FILL_CAP, FILL_SLOPE * bucket)
        n_sub = int(sub_rate * len(content_positions))
        n_fill = int(fill_rate * len(words))
        n_shuffle = min(int(SHUFFLE_SLOPE * bucket * len(words)), len(shuffle_draws))

        window = {(offset + j) % len(content_positions) for j in range(n_sub)} if content_positions else set()
        out = list(words)
        for i, pos in enumerate(content_positions):
            core, before, after = _split_punct(out[pos])
            forced = FORCED_SYNONYMS.get(core.lower())
            if forced is not None:
                out[pos] = before + forced + after
            elif i in window:
                out[pos] = before + core + _tag(int(variant_tags[i])) + after

        if len(out) > 1:
            for k in range(n_shuffle):
                pos = int(shuffle_draws[k] * (len(out) - 1))
                out[pos], out[pos + 1] = out[pos + 1], out[pos]

        out.extend("zq" + _tag(int(fill_tags[j])) for j in range(n_fill))
        return " ".join(out)


PUNCTUATION_ONLY = ["...", "--", "!?", "“”", "—", "(", "),"]
FORCED_WITH_AFFIXES = ["Movie!", "(big)", "“quick”", "BUY?", "...begin", "speak,", "movie"]
UNICODE = ["café", "naïve", "Ünïcode", "日本語", "Straße", "ǅemal", "İstanbul", "ﬁle", "👍"]
CONTENT = ["harbor", "Lantern,", "meadow.", "kettle", "x", "a1", "it's", "O'Brien"]
VOCABULARY = PUNCTUATION_ONLY + FORCED_WITH_AFFIXES + UNICODE + CONTENT + sorted(STOP_WORDS)[:12]

word = st.one_of(
    st.sampled_from(VOCABULARY),
    st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=6),
)
prompts = st.one_of(
    st.lists(word, min_size=1, max_size=30).map(" ".join),
    st.sampled_from(VOCABULARY),
    st.lists(st.sampled_from(sorted(STOP_WORDS)), min_size=1, max_size=8).map(" ".join),
    st.sampled_from(["", "   ", "\n", "..."]),
)


def assert_same_reply(request: ChatRequest, mock_seed: int) -> None:
    got = MockChatModel(seed=mock_seed).complete(request)
    want = ReferenceMock(seed=mock_seed).complete(request)
    assert (got.text, got.tokens_generated) == (want.text, want.tokens_generated)


@settings(max_examples=400, deadline=None)
@given(
    prompt=prompts,
    framed=st.booleans(),
    temperature=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    seed=st.none() | st.integers(0, 2**31 - 1),
    max_tokens=st.integers(1, 48),
    mock_seed=st.integers(0, 5),
)
def test_complete_matches_the_reference(prompt, framed, temperature, seed, max_tokens, mock_seed):
    content = DEFAULT_PARAPHRASE_TEMPLATE.replace("{prompt}", prompt) if framed else prompt
    request = ChatRequest.single(content, temperature=temperature, seed=seed, max_tokens=max_tokens)
    assert_same_reply(request, mock_seed)


def test_listed_edge_cases_match_the_reference():
    cases = [
        "Movie!",
        "movie",
        "the",
        "the of and a",
        "...",
        "-- ... !?",
        "Ünïcode café — naïve “big” movie…",
        "(quick) [buy] {speak}!! BIG? big! Big.",
        "Where did Alice Moreau buy the big movie ticket near 12 Rue Cler?",
        # Enough words at T >= 1.9 to use all 64 shuffle draws.
        " ".join(["harbor", "Movie!", "the", "lantern,"] * 35),
    ]
    for prompt in cases:
        for temperature in (0.01, 0.1, 0.5, 1.0, 1.5, 2.0):
            for max_tokens in (1, 3, 256):
                for seed in (None, 0, 9):
                    request = ChatRequest.single(
                        prompt, temperature=temperature, seed=seed, max_tokens=max_tokens
                    )
                    assert_same_reply(request, mock_seed=0)

