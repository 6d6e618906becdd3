"""Per-item reference rankers: one network forward per candidate.

The plain reading of Eq. 1 (stage 1) and Eq. 5 (stage 2), which the
library's batched ``rank`` paths are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.align import (
    phrase_features,
    phrase_words,
    question_view,
    sentence_features,
)


def _ranked(scores: list[float]) -> list[tuple[int, float]]:
    return sorted(enumerate(scores), key=lambda item: -item[1])


def stage1_rank(ranker, question, sql_texts, top_k=10):
    """Stage-1 top-k: the cosine of each text's embedding with the question's."""

    def embed(tower, text):
        features = ranker._featurizer.transform(text)
        return tower.forward_array(features)

    q = embed(ranker._query_tower, question)
    scores = []
    for text in sql_texts:
        s = embed(ranker._sql_tower, text)
        denominator = np.linalg.norm(q) * np.linalg.norm(s)
        scores.append(float(q @ s / denominator) if denominator else 0.0)
    return _ranked(scores)[:top_k]


def stage2_score(ranker, question, surface, phrases) -> float:
    """Eq. 5 for one candidate: ``y_G + y_L``."""
    view = question_view(question)
    group = phrases or (surface,)
    words = phrase_words(group)
    sentence = sentence_features(view, surface, phrases, words)
    y_global = float(ranker._coarse_head.forward_array(sentence)[0])
    features = np.stack([phrase_features(view, p, words) for p in group])
    phrase_scores = ranker._fine_head.forward_array(features).reshape(-1)
    return y_global + float(phrase_scores.mean())


def stage2_rank(ranker, question, candidates):
    """Stage-2 order with one :func:`stage2_score` per candidate."""
    return _ranked(
        [stage2_score(ranker, question, *candidate) for candidate in candidates]
    )
