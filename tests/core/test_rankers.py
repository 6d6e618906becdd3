"""First- and second-stage ranker tests."""

import numpy as np
import pytest

from repro.core.rank_stage1 import (
    DualTowerRanker,
    RankingTriple,
    Stage1Config,
    sql_surface,
)
from repro.core.rank_stage2 import (
    ListItem,
    MultiGrainedRanker,
    RankingList,
    Stage2Config,
)
from repro.sqlkit.parser import parse_sql
from tests.core import rank_reference


def _synthetic_triples(n: int = 120, seed: int = 0) -> list[RankingTriple]:
    """Paired texts whose overlap determines the target similarity."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    triples = []
    for __ in range(n):
        size = int(rng.integers(2, 5))
        question_words = list(rng.choice(words, size=size, replace=False))
        if rng.random() < 0.5:
            sql_words = list(question_words)
            target = 1.0
        else:
            sql_words = list(rng.choice(words, size=size, replace=False))
            shared = len(set(sql_words) & set(question_words))
            target = shared / size
        triples.append(
            RankingTriple(
                question=" ".join(question_words),
                sql_text=" ".join(sql_words),
                target=target,
            )
        )
    return triples


class TestStage1:
    @pytest.fixture(scope="class")
    def ranker(self):
        config = Stage1Config(epochs=30, buckets=256, embed_dim=24)
        return DualTowerRanker(config).fit(_synthetic_triples())

    def test_requires_triples(self):
        with pytest.raises(ValueError):
            DualTowerRanker().fit([])

    def test_loss_decreases(self, ranker):
        losses = ranker.training_losses()
        assert losses[-1] < losses[0]

    def test_similarity_reflects_overlap(self, ranker):
        scores = dict(
            ranker.rank(
                "alpha beta gamma", ["alpha beta gamma", "zeta eta delta"]
            )
        )
        assert scores[0] > scores[1]

    def test_rank_returns_topk(self, ranker):
        ranked = ranker.rank(
            "alpha beta", ["alpha beta", "eta zeta", "alpha eta"], top_k=2
        )
        assert len(ranked) == 2
        assert ranked[0][0] == 0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DualTowerRanker().rank("x", ["y"])

    @pytest.mark.parametrize(
        "texts",
        [
            ["eta zeta", "alpha eta", "eta zeta"],
            ["eta zeta", "alpha beta gamma", "alpha eta", "alpha beta gamma"],
        ],
        ids=["distinct", "question-among-candidates"],
    )
    def test_rank_matches_reference(self, ranker, texts):
        """One featurization of the question and the candidates, also when a
        candidate is the question's own text."""
        ranked = ranker.rank("alpha beta gamma", texts)
        want = rank_reference.stage1_rank(ranker, "alpha beta gamma", texts)
        assert [i for i, __ in ranked] == [i for i, __ in want]
        np.testing.assert_allclose(
            [s for __, s in ranked], [s for __, s in want], atol=1e-9
        )

    def test_sql_surface_includes_description(self, world_db):
        query = parse_sql("SELECT name FROM country WHERE code = 'ABW'")
        surface = sql_surface(query, world_db.schema)
        assert "SELECT" in surface
        assert "find" in surface  # NL description appended


def _synthetic_lists(n: int = 60, seed: int = 1) -> list[RankingList]:
    """Lists where targets correlate with question/phrase word overlap."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    lists = []
    for __ in range(n):
        question_words = list(rng.choice(words, size=3, replace=False))
        question = " ".join(question_words)
        items = []
        for rank in range(4):
            keep = 3 - rank
            phrase_words = question_words[:keep] + list(
                rng.choice(words, size=3 - keep, replace=True)
            )
            items.append(
                ListItem(
                    surface=" ".join(phrase_words),
                    phrases=tuple(phrase_words),
                    target=float(10 - rank * 3),
                )
            )
        lists.append(RankingList(question=question, items=tuple(items)))
    return lists


class TestStage2:
    @pytest.fixture(scope="class")
    def ranker(self):
        return MultiGrainedRanker(Stage2Config(epochs=8)).fit(
            _synthetic_lists()
        )

    def test_requires_lists(self):
        with pytest.raises(ValueError):
            MultiGrainedRanker().fit([])

    def test_loss_decreases(self, ranker):
        losses = ranker.training_losses()
        assert losses[-1] < losses[0]

    def test_ranks_matching_candidate_first(self, ranker):
        ranked = ranker.rank(
            "alpha beta gamma",
            [
                ("zeta epsilon delta", ("zeta", "epsilon", "delta")),
                ("alpha beta gamma", ("alpha", "beta", "gamma")),
            ],
        )
        assert ranked[0][0] == 1

    def test_phrase_ablation_trains_coarse_only(self):
        config = Stage2Config(epochs=3, phrase_supervision=False)
        ranker = MultiGrainedRanker(config).fit(_synthetic_lists(n=20))
        assert ranker.training_losses()

    def test_score_is_finite(self, ranker):
        [(__, value)] = ranker.rank("alpha", [("beta", ("beta",))])
        assert np.isfinite(value)
