"""Final prompt assembly and sanitized generation.

The rendered template is byte-exact and auditable: four lines, the exemplar
on line 2 and the comma-joined suppression list on line 4. Generation runs at
temperature 0 and is pure post-processing of already-released material, so it
never consumes budget; whether the service actually avoided the forbidden
words is only flagged, since instruction following is not guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .client import AVOID_HEADER, REWRITE_HEADER, ChatClient, ChatRequest
from .client import ClientError, TransportError
from .keywords import tokenize_normalize
from .mechanisms import INFINITE_EPSILON, PrivacyLedger, Stage

TEMPLATES = {"default-v1": (REWRITE_HEADER, AVOID_HEADER)}


class SanitizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class FinalPromptRequest:
    exemplar: str
    forbidden: tuple[str, ...]
    template_id: str = "default-v1"

    def __post_init__(self) -> None:
        if len(set(self.forbidden)) != len(self.forbidden):
            raise ValueError("forbidden word list must be deduplicated")
        if self.template_id not in TEMPLATES:
            raise ValueError(f"unknown template id: {self.template_id!r}")


def render_template(req: FinalPromptRequest) -> str:
    """Render the four-line generation prompt, newline separated."""
    if not req.exemplar:
        raise ValueError("exemplar must be nonempty")
    refer_header, avoid_header = TEMPLATES[req.template_id]
    return "\n".join([refer_header, req.exemplar, avoid_header, ", ".join(req.forbidden)])


def contains_forbidden(text: str, forbidden: Sequence[str]) -> bool:
    tokens = set(tokenize_normalize(text))
    return any(word in tokens for word in forbidden)


@dataclass(frozen=True)
class GenerationOutcome:
    text: str
    leakage_flag: bool
    final_prompt: str
    regenerations: int = 0


def check_retry_on_leakage(retry_on_leakage: int) -> None:
    if not 0 <= retry_on_leakage <= 2:
        raise ValueError(f"retry_on_leakage must be 0 to 2, got {retry_on_leakage!r}")


def generate_sanitized(
    req: FinalPromptRequest,
    client: ChatClient,
    ledger: PrivacyLedger,
    *,
    max_tokens: int = 256,
    retry_on_leakage: int = 0,
    fallback_to_exemplar: bool = False,
) -> GenerationOutcome:
    """Ask the service for the final question and flag forbidden-word leakage.

    ``retry_on_leakage`` (0 to 2) bounds the re-generations asked for while the
    output still contains a forbidden word; suppression stays prompt-level,
    never a hard filter. With ``fallback_to_exemplar`` the exemplar itself is
    returned if the service fails outright.
    """
    check_retry_on_leakage(retry_on_leakage)
    final_prompt = render_template(req)

    text: str | None = None
    leaked = False
    regenerations = 0
    for attempt in range(retry_on_leakage + 1):
        chat_req = ChatRequest.single(
            final_prompt,
            temperature=0.0,
            max_tokens=max_tokens,
            seed=attempt,
        )
        try:
            text = client.complete(chat_req).text
        except (ClientError, TransportError) as exc:
            if fallback_to_exemplar:
                ledger.record(
                    Stage.POST_PROCESS, INFINITE_EPSILON, 1, "final generation (exemplar fallback)"
                )
                return GenerationOutcome(
                    text=req.exemplar,
                    leakage_flag=contains_forbidden(req.exemplar, req.forbidden),
                    final_prompt=final_prompt,
                )
            raise SanitizationError(f"final generation failed: {exc}") from exc
        regenerations = attempt
        leaked = contains_forbidden(text, req.forbidden)
        if not leaked:
            break

    assert text is not None
    ledger.record(Stage.POST_PROCESS, INFINITE_EPSILON, 1, "final generation (T=0)")
    return GenerationOutcome(
        text=text,
        leakage_flag=leaked,
        final_prompt=final_prompt,
        regenerations=regenerations,
    )
