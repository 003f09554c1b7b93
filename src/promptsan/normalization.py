"""Shared text normalization.

One tokenizer for keyword extraction, perplexity and similarity metrics: the
same whitespace split, punctuation strip and case fold, so that keyword
suppression and leakage measurement see the same tokens. Keyword extraction
drops stop words from its output afterwards.
"""

from __future__ import annotations

import string

_STRIP_CHARS = string.punctuation + "‘’“”–—…"


def tokenize(text: str) -> list[str]:
    """Split ``text`` on whitespace into normalized tokens, order preserved.

    Each token is stripped of leading/trailing punctuation and lower-cased.
    Tokens that become empty are dropped.
    """
    out: list[str] = []
    for raw in text.split():
        tok = raw.strip(_STRIP_CHARS).lower()
        if tok:
            out.append(tok)
    return out
