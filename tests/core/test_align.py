"""Alignment feature tests — the swapped-aggregate case in particular."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.align import (
    PHRASE_FEATURE_DIM,
    SENTENCE_FEATURE_DIM,
    canonicalize,
    content_words,
    phrase_features,
    phrase_words,
    question_view,
    sentence_features,
)
from tests.core import align_reference as reference


def phrase_row(view, phrase):
    return phrase_features(view, phrase, phrase_words([phrase]))


def sentence_row(view, surface, phrases):
    return sentence_features(view, surface, phrases, phrase_words(phrases))

#: Words that exercise every feature: canonical classes, fillers, plurals,
#: numbers and plain content words.
_WORDS = st.sampled_from(
    "lowest minimum max average total number many greater below not between "
    "distinct each sorted top contains the of for with show students student "
    "killed injured name age pets 3 300 2.5 10".split()
)
_TEXT = st.lists(_WORDS, max_size=12).map(" ".join)


class TestCanonicalization:
    def test_synonyms_map_to_classes(self):
        assert canonicalize(["lowest", "smallest", "minimum"]) == [
            "MIN", "MIN", "MIN",
        ]

    def test_unknown_tokens_pass_through(self):
        assert canonicalize(["killed"]) == ["killed"]

    def test_content_words_drop_fillers(self):
        words = content_words("find the number of records for students")
        assert "find" not in words
        assert "students" in words


class TestPhraseFeatures:
    def test_dimension(self):
        features = phrase_row(question_view("a question"), "a phrase")
        assert features.shape == (PHRASE_FEATURE_DIM,)

    def test_matching_phrase_scores_high_overlap(self):
        question = question_view("Tell me the lowest killed for casualty records.")
        features = phrase_row(question, "the minimum killed")
        assert features[0] == 1.0  # full canonical overlap

    def test_swapped_aggregate_detected_by_adjacency(self):
        """min(killed) vs min(injured) under 'lowest killed ... highest injured'."""
        question = question_view("Tell me the lowest killed and the highest injured.")
        right = phrase_row(question, "the minimum killed")
        wrong = phrase_row(question, "the minimum injured")
        assert right[1] > wrong[1]  # adjacency separates them

    def test_number_mismatch_detected(self):
        question = question_view("records with killed above 300")
        good = phrase_row(question, "whose killed is greater than 300")
        bad = phrase_row(question, "whose killed is greater than 999")
        assert good[3] > bad[3]

    def test_class_mismatch_detected(self):
        question = question_view("records with killed above 300")
        good = phrase_row(question, "whose killed is greater than 300")
        bad = phrase_row(question, "whose killed is less than 300")
        assert good[4] > bad[4]


class TestSentenceFeatures:
    def test_dimension(self):
        features = sentence_row(question_view("q"), "surface", ("p1", "p2"))
        assert features.shape == (SENTENCE_FEATURE_DIM,)

    def test_missing_clause_lowers_question_coverage(self):
        question = question_view("last names of students whose major is Biology")
        full = sentence_row(
            question,
            "SELECT lname FROM student WHERE major = 'Biology'",
            ("find last name", "the student", "whose major is Biology"),
        )
        partial = sentence_row(
            question,
            "SELECT lname FROM student",
            ("find last name", "the student"),
        )
        assert full[0] > partial[0]

    def test_hallucinated_clause_lowers_candidate_coverage(self):
        question = question_view("last names of students")
        clean = sentence_row(
            question,
            "SELECT lname FROM student",
            ("find last name", "the student"),
        )
        noisy = sentence_row(
            question,
            "SELECT lname FROM student WHERE age > 20",
            ("find last name", "the student", "whose age is greater than 20"),
        )
        assert clean[1] > noisy[1]


class TestQuestionView:
    """Features from a view computed once equal the per-call forms."""

    @settings(max_examples=150, deadline=None)
    @given(question=_TEXT, phrases=st.lists(_TEXT, max_size=5), surface=_TEXT)
    def test_view_matches_per_call_reference(self, question, phrases, surface):
        view = question_view(question)
        # One map for the whole call, as a ranker builds it; the phrases
        # may repeat.
        words = phrase_words(phrases + [surface])
        for phrase in phrases + [surface]:
            want = reference.phrase_features(question, phrase)
            assert phrase_features(view, phrase, words).tobytes() == want.tobytes()
        want = reference.sentence_features(question, surface, tuple(phrases))
        got = sentence_features(view, surface, tuple(phrases), words)
        assert got.tobytes() == want.tobytes()
