"""Cross-modal alignment features for the second-stage ranker.

The paper's second-stage model is a *cross-encoder* (RoBERTa over the
joint NL/SQL input) supervised at sentence and phrase granularity.  A
bag-of-features bi-encoder cannot see word order, so it cannot tell
``min(killed), max(injured)`` from the swapped version.  This module
computes the joint alignment signals a cross-encoder attends to:

- canonical word classes (``lowest``/``smallest``/``minimum`` -> MIN, ...)
  shared between question and SQL phrase,
- adjacency: how tightly the phrase's content words co-occur in the
  question (the swapped-aggregate case has loose adjacency),
- literal value / number grounding,
- coverage in both directions (a missing clause leaves question tokens
  uncovered; a hallucinated clause leaves phrase tokens uncovered).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.models.mentions import question_tokens

#: token -> canonical class, bridging NL synonyms and SQL description words.
CANONICAL_CLASSES = {
    "minimum": "MIN", "smallest": "MIN", "lowest": "MIN", "min": "MIN",
    "maximum": "MAX", "largest": "MAX", "highest": "MAX", "max": "MAX",
    "average": "AVG", "mean": "AVG", "avg": "AVG",
    "total": "SUM", "sum": "SUM",
    "number": "COUNT", "count": "COUNT", "many": "COUNT",
    "greater": "GT", "above": "GT", "more": "GT", "over": "GT",
    "exceeding": "GT",
    "less": "LT", "below": "LT", "fewer": "LT", "under": "LT",
    "not": "NEG", "without": "NEG", "excluding": "NEG",
    "between": "BETWEEN",
    "different": "DISTINCT", "distinct": "DISTINCT", "unique": "DISTINCT",
    "each": "GROUP", "per": "GROUP", "grouped": "GROUP",
    "sorted": "ORDER", "ordered": "ORDER", "descending": "ORDER",
    "ascending": "ORDER", "top": "LIMIT",
    "also": "INTERSECT", "contains": "LIKE", "includes": "LIKE",
}

_FILLER = frozenset(
    """the a an of for from with and or is are was were in on to find show
    list give me return tell what who whose which that all any records
    their them it its by how""".split()
)

SENTENCE_FEATURE_DIM = 8
PHRASE_FEATURE_DIM = 7


def _stem(token: str) -> str:
    """Light plural stemming so 'students' aligns with 'student'."""
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def canonicalize(tokens: list[str]) -> list[str]:
    """Map tokens to canonical classes where known, else stem them."""
    out = []
    for token in tokens:
        if token in CANONICAL_CLASSES:
            out.append(CANONICAL_CLASSES[token])
        else:
            out.append(_stem(token))
    return out


def content_words(text: str) -> list[str]:
    """Question tokens with filler words removed."""
    return [t for t in question_tokens(text) if t not in _FILLER]


def phrase_words(phrases: Iterable[str]) -> dict[str, list[str]]:
    """Each distinct phrase's canonical content words, computed once.

    A ranker builds it once per candidate list; :func:`sentence_features`
    and :func:`phrase_features` both read it.
    """
    return {
        phrase: canonicalize(content_words(phrase))
        for phrase in dict.fromkeys(phrases)
    }


class QuestionView(NamedTuple):
    """The question's side of every alignment feature.

    It depends on the question alone, so a ranker computes it once per
    candidate list (:func:`question_view`) instead of once per candidate
    and phrase.
    """

    canonical: list[str]
    #: canonical content words (filler removed).
    content: list[str]
    raw_set: frozenset[str]
    canonical_set: frozenset[str]
    #: raw and canonical tokens together.
    vocabulary: frozenset[str]
    canonical_bigrams: frozenset[tuple[str, str]]
    numbers: list[str]
    classes: frozenset[str]


def question_view(question: str) -> QuestionView:
    """Tokenize and canonicalize *question* once for the feature functions."""
    raw = question_tokens(question)
    canonical = canonicalize(raw)
    raw_set = frozenset(raw)
    canonical_set = frozenset(canonical)
    return QuestionView(
        canonical=canonical,
        content=canonicalize([t for t in raw if t not in _FILLER]),
        raw_set=raw_set,
        canonical_set=canonical_set,
        vocabulary=canonical_set | raw_set,
        canonical_bigrams=frozenset(zip(canonical, canonical[1:])),
        numbers=[t for t in raw if _is_number(t)],
        classes=frozenset(t for t in canonical if t.isupper()),
    )


def _is_number(token: str) -> bool:
    return token.replace(".", "").isdigit()


def _positions(tokens: list[str], word: str) -> list[int]:
    return [i for i, t in enumerate(tokens) if t == word]


def _coverage(source: list[str], target: set[str]) -> float:
    if not source:
        return 1.0
    return sum(1 for w in source if w in target) / len(source)


def _adjacency(phrase_words: list[str], question_tokens_c: list[str]) -> float:
    """How tightly the phrase's words cluster in the question.

    Returns exp(-(best window span - len) / len): 1.0 when the words appear
    contiguously, decaying as they spread apart; 0 when any word is absent.
    """
    present = [w for w in phrase_words if w in question_tokens_c]
    if len(present) < 2 or len(present) < len(phrase_words):
        return 0.0 if len(present) < len(phrase_words) else 1.0
    position_lists = [_positions(question_tokens_c, w) for w in phrase_words]
    best_span = None
    # Greedy: for each occurrence of the first word, find the tightest cover.
    for start in position_lists[0]:
        span_max, span_min = start, start
        feasible = True
        for positions in position_lists[1:]:
            nearest = min(positions, key=lambda p: abs(p - start))
            span_max = max(span_max, nearest)
            span_min = min(span_min, nearest)
        span = span_max - span_min + 1
        if best_span is None or span < best_span:
            best_span = span
    if best_span is None:
        return 0.0
    slack = best_span - len(phrase_words)
    return float(np.exp(-slack / max(len(phrase_words), 1)))


def _bigram_containment(phrase_words: list[str], view: QuestionView) -> float:
    bigrams = list(zip(phrase_words, phrase_words[1:]))
    if not bigrams:
        return 1.0 if set(phrase_words) <= view.canonical_set else 0.0
    question_bigrams = view.canonical_bigrams
    return sum(1 for b in bigrams if b in question_bigrams) / len(bigrams)


def phrase_features(
    view: QuestionView, phrase: str, words: Mapping[str, list[str]]
) -> np.ndarray:
    """Alignment feature vector for one SQL-unit phrase of the question
    seen through *view*; *words* is a :func:`phrase_words` map holding
    the phrase."""
    p_content = words[phrase]
    p_raw = question_tokens(phrase)

    overlap = _coverage(p_content, view.vocabulary)
    adjacency = _adjacency(p_content, view.canonical)
    bigram = _bigram_containment(p_content, view)

    numbers_in_phrase = [t for t in p_raw if _is_number(t)]
    number_match = (
        _coverage(numbers_in_phrase, view.raw_set) if numbers_in_phrase else 1.0
    )
    classes_in_phrase = [t for t in p_content if t.isupper()]
    class_match = (
        _coverage(classes_in_phrase, view.canonical_set)
        if classes_in_phrase
        else 1.0
    )
    length = min(len(p_content) / 6.0, 1.0)
    return np.array(
        [overlap, adjacency, bigram, number_match, class_match, length, 1.0]
    )


def sentence_features(
    view: QuestionView,
    surface: str,
    phrases: tuple[str, ...],
    words: Mapping[str, list[str]],
) -> np.ndarray:
    """Sentence-level alignment features for a whole candidate of the
    question seen through *view*; *words* is a :func:`phrase_words` map
    holding every phrase."""
    q_content = view.content

    all_phrase_words: list[str] = []
    for phrase in phrases:
        all_phrase_words.extend(words[phrase])
    phrase_set = set(all_phrase_words)

    question_coverage = _coverage(q_content, phrase_set)
    candidate_coverage = _coverage(all_phrase_words, view.canonical_set)

    surface_raw = question_tokens(surface)
    numbers_in_sql = [t for t in surface_raw if _is_number(t)]
    number_match = (
        _coverage(numbers_in_sql, view.raw_set) if numbers_in_sql else 1.0
    )
    q_numbers = view.numbers
    number_recall = (
        _coverage(q_numbers, set(surface_raw)) if q_numbers else 1.0
    )

    q_classes = view.classes
    s_classes = {t for t in canonicalize(surface_raw) if t.isupper()}
    union = q_classes | s_classes
    class_jaccard = len(q_classes & s_classes) / len(union) if union else 1.0

    phrase_count = min(len(phrases) / 8.0, 1.0)
    return np.array(
        [
            question_coverage,
            candidate_coverage,
            number_match,
            number_recall,
            class_jaccard,
            phrase_count,
            abs(len(all_phrase_words) - len(q_content)) / 10.0,
            1.0,
        ]
    )
