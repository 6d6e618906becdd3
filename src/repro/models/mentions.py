"""Number-mention extraction from NL questions.

Each numeric literal in a question is turned into a :class:`NumberMention`
with an inferred comparison operator (from cue words in the preceding
window), its token position (for column-proximity pairing) and role flags
(HAVING-count threshold, LIMIT count, BETWEEN bound).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.nn.text import question_tokens

_NUMBER_RE = re.compile(r"^\d+(?:\.\d+)?$")

#: cue word(s) -> comparison operator; bigrams are checked before unigrams.
_BIGRAM_CUES = {
    ("at", "least"): ">=",
    ("no", "less"): ">=",
    ("at", "most"): "<=",
    ("no", "more"): "<=",
}
_UNIGRAM_CUES = {
    "more": ">",
    "greater": ">",
    "above": ">",
    "over": ">",
    "exceeding": ">",
    "less": "<",
    "below": "<",
    "fewer": "<",
    "under": "<",
}

_COUNT_WORDS = frozenset({"records", "times", "entries", "rows"})


@dataclass(frozen=True)
class NumberMention:
    """One numeric literal mentioned in a question."""

    value: int | float
    op: str  # inferred comparison operator (default '=')
    position: int  # token index in the question
    is_count_threshold: bool = False  # "... more than 3 records"
    is_limit: bool = False  # "top 3 ..."
    is_between_bound: bool = False


def extract_mentions(question: str) -> list[NumberMention]:
    """All number mentions in *question*, in order of appearance."""
    tokens = question_tokens(question)
    mentions: list[NumberMention] = []
    between_remaining = 0
    for index, token in enumerate(tokens):
        if token == "between":
            between_remaining = 2
        if not _NUMBER_RE.match(token):
            continue
        value = float(token)
        number: int | float = int(value) if value.is_integer() else value
        window = tokens[max(index - 4, 0) : index]
        op = "="
        for offset in range(len(window) - 1):
            pair = (window[offset], window[offset + 1])
            if pair in _BIGRAM_CUES:
                op = _BIGRAM_CUES[pair]
                break
        else:
            for word in reversed(window):
                if word in _UNIGRAM_CUES:
                    op = _UNIGRAM_CUES[word]
                    break
        following = tokens[index + 1 : index + 3]
        is_count = bool(set(following) & _COUNT_WORDS) or (
            "times" in following
        )
        is_limit = bool(window) and window[-1] == "top"
        is_between = between_remaining > 0
        if between_remaining > 0:
            between_remaining -= 1
        mentions.append(
            NumberMention(
                value=number,
                op=op,
                position=index,
                is_count_threshold=is_count,
                is_limit=is_limit,
                is_between_bound=is_between,
            )
        )
    return mentions


def phrase_positions(tokens: list[str], phrase: str) -> list[int]:
    """Token positions in *tokens* where any word of *phrase* occurs."""
    words = set(question_tokens(phrase))
    return [i for i, t in enumerate(tokens) if t in words]
