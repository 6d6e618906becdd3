"""Per-call alignment features: the question re-read for every phrase.

The forms :mod:`repro.core.align` had before the question side moved
into a :class:`~repro.core.align.QuestionView` computed once per list.
"""

from __future__ import annotations

import numpy as np

from repro.core.align import _adjacency, _coverage, canonicalize, content_words
from repro.models.mentions import question_tokens


def _bigram_containment(phrase_words, question_words) -> float:
    bigrams = list(zip(phrase_words, phrase_words[1:]))
    if not bigrams:
        return 1.0 if set(phrase_words) <= set(question_words) else 0.0
    question_bigrams = set(zip(question_words, question_words[1:]))
    return sum(1 for b in bigrams if b in question_bigrams) / len(bigrams)


def phrase_features(question: str, phrase: str) -> np.ndarray:
    q_raw = question_tokens(question)
    q_canonical = canonicalize(q_raw)
    q_set = set(q_canonical) | set(q_raw)
    p_content = canonicalize(content_words(phrase))
    p_raw = question_tokens(phrase)

    overlap = _coverage(p_content, q_set)
    adjacency = _adjacency(p_content, q_canonical)
    bigram = _bigram_containment(p_content, q_canonical)

    numbers_in_phrase = [t for t in p_raw if t.replace(".", "").isdigit()]
    number_match = (
        _coverage(numbers_in_phrase, set(q_raw)) if numbers_in_phrase else 1.0
    )
    classes_in_phrase = [t for t in p_content if t.isupper()]
    class_match = (
        _coverage(classes_in_phrase, set(q_canonical))
        if classes_in_phrase
        else 1.0
    )
    length = min(len(p_content) / 6.0, 1.0)
    return np.array(
        [overlap, adjacency, bigram, number_match, class_match, length, 1.0]
    )


def sentence_features(question: str, surface: str, phrases) -> np.ndarray:
    q_raw = question_tokens(question)
    q_content = canonicalize(content_words(question))
    q_canonical = canonicalize(q_raw)

    all_phrase_words: list[str] = []
    for phrase in phrases:
        all_phrase_words.extend(canonicalize(content_words(phrase)))
    phrase_set = set(all_phrase_words)

    question_coverage = _coverage(q_content, phrase_set)
    candidate_coverage = _coverage(all_phrase_words, set(q_canonical))

    surface_raw = question_tokens(surface)
    numbers_in_sql = [t for t in surface_raw if t.replace(".", "").isdigit()]
    number_match = (
        _coverage(numbers_in_sql, set(q_raw)) if numbers_in_sql else 1.0
    )
    q_numbers = [t for t in q_raw if t.replace(".", "").isdigit()]
    number_recall = (
        _coverage(q_numbers, set(surface_raw)) if q_numbers else 1.0
    )

    q_classes = {t for t in q_canonical if t.isupper()}
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
