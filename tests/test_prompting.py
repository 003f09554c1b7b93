import pytest

from promptsan.client import ChatRequest, ChatResponse, TransportError
from promptsan.mechanisms import PrivacyLedger, Stage
from promptsan.prompting import (
    AVOID_HEADER,
    REWRITE_HEADER,
    FinalPromptRequest,
    GenerationOutcome,
    SanitizationError,
    contains_forbidden,
    generate_sanitized,
    render_template,
)

from conftest import FixedClient


def parse_rendered(text: str) -> tuple[str, tuple[str, ...]]:
    """Independent re-reader of the four-line layout."""
    lines = text.split("\n")
    assert len(lines) == 4
    assert lines[0] == REWRITE_HEADER
    assert lines[2] == AVOID_HEADER
    forbidden = tuple(w for w in lines[3].split(", ") if w)
    return lines[1], forbidden


class TestRenderTemplate:
    def test_four_line_layout(self):
        req = FinalPromptRequest(exemplar="Where is X?", forbidden=("x", "y"))
        rendered = render_template(req)
        assert rendered == (
            "Refer to the following question to generate a new question:\n"
            "Where is X?\n"
            "Avoid using the following tokens:\n"
            "x, y"
        )

    def test_empty_forbidden_renders_empty_line(self):
        rendered = render_template(FinalPromptRequest(exemplar="Q", forbidden=()))
        assert rendered.split("\n")[3] == ""
        assert len(rendered.split("\n")) == 4

    def test_empty_exemplar_rejected(self):
        with pytest.raises(ValueError):
            render_template(FinalPromptRequest(exemplar="", forbidden=()))

    def test_duplicate_forbidden_rejected(self):
        with pytest.raises(ValueError):
            FinalPromptRequest(exemplar="Q", forbidden=("x", "x"))

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            FinalPromptRequest(exemplar="Q", forbidden=(), template_id="nope")

    def test_round_trip_injective(self, rng):
        words = ["harbor", "lantern", "meadow", "kettle", "canal", "archive", "quarry"]
        seen = set()
        for _ in range(100):
            size = int(rng.integers(4, 8))
            exemplar = " ".join(rng.choice(words, size=size)) + "?"
            forbidden = tuple(
                sorted(set(rng.choice(words, size=int(rng.integers(0, 4)), replace=False)))
            )
            rendered = render_template(FinalPromptRequest(exemplar=exemplar, forbidden=forbidden))
            assert parse_rendered(rendered) == (exemplar, forbidden)
            seen.add(rendered)
            assert len(seen) == len({(exemplar, forbidden) for exemplar, forbidden in map(parse_rendered, seen)})


class DeletingClient:
    """Returns the exemplar with forbidden tokens removed, like a compliant model."""

    def complete(self, req: ChatRequest) -> ChatResponse:
        lines = req.messages[-1].content.split("\n")
        forbidden = {w for w in lines[3].split(", ") if w}
        kept = [w for w in lines[1].split() if w.strip("?.,!").lower() not in forbidden]
        text = " ".join(kept)
        return ChatResponse(text=text, tokens_generated=len(kept))


class EchoExemplarClient:
    """Ignores the suppression list and parrots the exemplar verbatim."""

    def complete(self, req: ChatRequest) -> ChatResponse:
        exemplar = req.messages[-1].content.split("\n")[1]
        return ChatResponse(text=exemplar, tokens_generated=len(exemplar.split()))


class LeakThenComplyClient:
    """Leaks a forbidden word on the first call, complies on the second."""

    def __init__(self):
        self.calls = 0

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.calls += 1
        text = "paris visit" if self.calls == 1 else "city visit"
        return ChatResponse(text=text, tokens_generated=2)


class AlwaysFailingClient:
    def complete(self, req: ChatRequest) -> ChatResponse:
        raise TransportError("down", attempts=3)


class TestGenerateSanitized:
    def test_compliant_model_clears_leakage_flag(self):
        req = FinalPromptRequest(exemplar="Visit paris in spring?", forbidden=("paris",))
        ledger = PrivacyLedger()
        outcome = generate_sanitized(req, DeletingClient(), ledger)
        assert outcome.leakage_flag is False
        assert "paris" not in outcome.text.lower()

    def test_echoing_model_sets_leakage_flag(self):
        req = FinalPromptRequest(exemplar="Visit paris in spring?", forbidden=("paris",))
        outcome = generate_sanitized(req, EchoExemplarClient(), PrivacyLedger())
        assert outcome.leakage_flag is True

    def test_ledger_total_unchanged(self):
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 3.0, 7)
        before = ledger.total()
        req = FinalPromptRequest(exemplar="Visit paris?", forbidden=("paris",))
        generate_sanitized(req, DeletingClient(), ledger)
        assert ledger.total() == before
        assert ledger.entries[-1].stage is Stage.POST_PROCESS

    def test_leakage_flag_matches_token_membership(self):
        assert contains_forbidden("The CAT sat", ("cat",)) is True
        assert contains_forbidden("concatenate things", ("cat",)) is False

    def test_bounded_regeneration_on_leakage(self):
        req = FinalPromptRequest(exemplar="paris visit?", forbidden=("paris",))
        client = LeakThenComplyClient()
        outcome = generate_sanitized(req, client, PrivacyLedger(), retry_on_leakage=2)
        assert outcome.regenerations == 1
        assert outcome.leakage_flag is False
        assert client.calls == 2

    @pytest.mark.parametrize("retry_on_leakage", [-1, 3])
    def test_retry_on_leakage_outside_zero_to_two_is_rejected(self, retry_on_leakage):
        req = FinalPromptRequest(exemplar="paris visit?", forbidden=("paris",))
        client = LeakThenComplyClient()
        with pytest.raises(ValueError, match="retry_on_leakage must be 0 to 2"):
            generate_sanitized(req, client, PrivacyLedger(), retry_on_leakage=retry_on_leakage)
        assert client.calls == 0

    def test_failure_without_fallback_raises(self):
        req = FinalPromptRequest(exemplar="Q text", forbidden=())
        with pytest.raises(SanitizationError):
            generate_sanitized(req, AlwaysFailingClient(), PrivacyLedger())

    def test_exemplar_fallback_opt_in(self):
        req = FinalPromptRequest(exemplar="Visit paris?", forbidden=("paris",))
        ledger = PrivacyLedger()
        outcome = generate_sanitized(
            req, AlwaysFailingClient(), ledger, fallback_to_exemplar=True
        )
        assert outcome.text == "Visit paris?"
        assert outcome.leakage_flag is True
        assert ledger.total() == 0.0

    def test_fixed_client_outcome_fields(self):
        req = FinalPromptRequest(exemplar="Original question?", forbidden=("secret",))
        outcome = generate_sanitized(req, FixedClient(text="A new question?"), PrivacyLedger())
        assert isinstance(outcome, GenerationOutcome)
        assert outcome.final_prompt.split("\n")[1] == "Original question?"
        assert outcome.text == "A new question?"
