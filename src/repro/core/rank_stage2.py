"""Second-stage ranking: multi-grained listwise cross-encoder (Section III-C2).

The paper's second stage is a cross-encoder (RoBERTa over the joint NL/SQL
input) with multi-grained supervision.  Our substrate replaces the
transformer with explicit cross-modal *alignment features*
(:mod:`repro.core.align`) feeding two learned heads:

- the **coarse head** scores sentence-level alignment features -> ``y_G``,
- the **fine head** scores each SQL-unit phrase's alignment features; the
  mean phrase score is the local score ``y_L``.

Training follows the paper's multi-scale loss: global MSE + listwise
NeuralNDCG on ``y_G`` (Eq. 2), the NL-to-phrase local loss on ``y_L``
(Eq. 3), and a phrase triplet (hinge) loss pushing mismatched phrases of
negative candidates below matched phrases of positives (Eq. 4).  Inference
ranks by ``y_G + y_L`` (Eq. 5).

``phrase_supervision=False`` reproduces the Table 9 ablation: the local and
triplet losses are removed from training, leaving the fine head at its
random initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.align import (
    PHRASE_FEATURE_DIM,
    SENTENCE_FEATURE_DIM,
    phrase_features,
    phrase_words,
    question_view,
    sentence_features,
)
from repro.core.resilience import fire
from repro.nn.layers import MLP
from repro.nn.losses import mse_loss, neural_ndcg_loss
from repro.nn.optim import Adam


@dataclass(frozen=True)
class ListItem:
    """One candidate in a ranking list."""

    surface: str  # sentence-level text (SQL + description)
    phrases: tuple[str, ...]  # unit-level phrases
    target: float  # similarity score in [0, 10]


@dataclass(frozen=True)
class RankingList:
    """One listwise training instance."""

    question: str
    items: tuple[ListItem, ...]


@dataclass
class Stage2Config:
    """Training hyper-parameters of the multi-grained re-ranker."""
    epochs: int = 12
    learning_rate: float = 5e-3
    list_size: int = 10
    ndcg_weight: float = 0.6
    triplet_weight: float = 0.4
    triplet_margin: float = 1.0
    phrase_supervision: bool = True
    seed: int = 987


class MultiGrainedRanker:
    """Listwise re-ranker with sentence- and phrase-level supervision."""

    def __init__(self, config: Stage2Config | None = None) -> None:
        self.config = config or Stage2Config()
        rng = np.random.default_rng(self.config.seed)
        self._coarse_head = MLP([SENTENCE_FEATURE_DIM, 16, 1], rng)
        self._fine_head = MLP([PHRASE_FEATURE_DIM, 16, 1], rng)
        self._losses: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------
    # Feature extraction (cached per list during training).

    @staticmethod
    def _list_features(
        ranking: RankingList,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        view = question_view(ranking.question)
        groups = [item.phrases or (item.surface,) for item in ranking.items]
        words = phrase_words(phrase for group in groups for phrase in group)
        sentence = np.stack(
            [
                sentence_features(view, item.surface, item.phrases, words)
                for item in ranking.items
            ]
        )
        per_phrase = [
            np.stack([phrase_features(view, phrase, words) for phrase in group])
            for group in groups
        ]
        return sentence, per_phrase

    # ------------------------------------------------------------------

    def fit(self, lists: list[RankingList]) -> "MultiGrainedRanker":
        """Train the heads with the paper's multi-scale listwise losses."""
        if not lists:
            raise ValueError("stage-2 ranker needs training lists")
        rng = np.random.default_rng(self.config.seed)
        prepared = []
        for ranking in lists:
            items = ranking.items[: self.config.list_size]
            if len(items) < 2:
                continue
            trimmed = RankingList(question=ranking.question, items=items)
            targets = np.array([item.target for item in items])
            prepared.append((self._list_features(trimmed), targets))

        params = self._coarse_head.parameters()
        if self.config.phrase_supervision:
            params = params + self._fine_head.parameters()
        optimizer = Adam(params, lr=self.config.learning_rate)

        self._losses = []
        for __ in range(self.config.epochs):
            order = rng.permutation(len(prepared))
            epoch_loss, count = 0.0, 0
            for index in order:
                (sentence, per_phrase), targets = prepared[int(index)]
                optimizer.zero_grad()
                epoch_loss += self._list_loss(sentence, per_phrase, targets)
                optimizer.step()
                count += 1
            self._losses.append(epoch_loss / max(count, 1))
        optimizer.zero_grad()  # inference reads no gradient
        self._fitted = True
        return self

    def _list_loss(
        self,
        sentence: np.ndarray,
        per_phrase: list[np.ndarray],
        targets: np.ndarray,
    ) -> float:
        """Multi-scale loss of one list; its gradients go into the heads."""
        coarse, coarse_inputs = self._coarse_head.forward(sentence)
        mse, ndcg, grad_global = self._listwise(coarse.reshape(-1), targets)
        loss = mse + ndcg
        self._coarse_head.backward(
            coarse_inputs, grad_global.reshape(coarse.shape)
        )
        if not self.config.phrase_supervision:
            return float(loss)

        forwards = [self._fine_head.forward(x) for x in per_phrase]
        scores = [out.reshape(-1) for out, __ in forwards]
        y_local = np.stack([s.sum() * (1.0 / s.size) for s in scores])
        mse, ndcg, grad_local = self._listwise(y_local, targets)
        loss = loss + mse + ndcg
        # d y_L / d phrase score: each group's mean spreads evenly.
        grad_scores = [
            np.full(s.size, grad_local[i] * (1.0 / s.size))
            for i, s in enumerate(scores)
        ]
        groups = list(range(len(scores)))

        # Phrase triplet (hinge): the worst candidate's phrases should score
        # below the best candidate's phrases by a margin.
        order = np.argsort(-targets)
        best, worst = int(order[0]), int(order[-1])
        if targets[best] - targets[worst] >= 2.0:
            margin = self.config.triplet_margin
            hinge = max(y_local[worst] - y_local[best] + margin, 0.0)
            loss = loss + self.config.triplet_weight * hinge
            slope = self.config.triplet_weight * (hinge > 0.0)
            for group, sign in ((best, -1.0), (worst, 1.0)):
                size = scores[group].size
                grad_scores[group] += sign * slope * (1.0 / size)
            # The reference engine adds the fine head's gradients group by
            # group, the hinge's two groups last (worst, then best); the
            # same order gives the same bits.
            groups = [g for g in groups if g not in (best, worst)]
            groups += [worst, best]
        for group in groups:
            out, inputs = forwards[group]
            self._fine_head.backward(
                inputs, grad_scores[group].reshape(out.shape)
            )
        return float(loss)

    def _listwise(
        self, scores: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MSE and weighted NeuralNDCG of one score list, and their gradient."""
        weight = self.config.ndcg_weight
        mse, grad = mse_loss(scores, targets)
        ndcg, grad_ndcg = neural_ndcg_loss(
            scores * 0.1, targets * 0.3, tau=0.5, scale=weight
        )
        return mse, weight * ndcg, grad + grad_ndcg * 0.1

    # ------------------------------------------------------------------

    def score_many(
        self,
        question: str,
        candidates: list[tuple[str, tuple[str, ...]]],
    ) -> list[float]:
        """Batched Eq. 5 scores for all candidates.

        All sentence features are stacked into one coarse-head forward;
        the candidates' distinct phrases form a single fine-head batch
        whose scores are segment-mean-reduced back to per-candidate
        ``y_L``.  The question is tokenized once for all of them, and each
        distinct phrase canonicalized once.
        """
        if not candidates:
            return []
        view = question_view(question)
        groups = [phrases or (surface,) for surface, phrases in candidates]
        words = phrase_words(phrase for group in groups for phrase in group)
        sentence_rows = np.stack(
            [
                sentence_features(view, surface, phrases, words)
                for surface, phrases in candidates
            ]
        )
        y_global = self._coarse_head.forward_array(sentence_rows).reshape(-1)

        unique = list(words)
        phrase_rows = np.stack(
            [phrase_features(view, phrase, words) for phrase in unique]
        )
        unique_scores = self._fine_head.forward_array(phrase_rows).reshape(-1)
        position = {phrase: i for i, phrase in enumerate(unique)}
        flat = unique_scores[
            [position[phrase] for group in groups for phrase in group]
        ]
        counts = np.array([len(group) for group in groups])
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        y_local = np.add.reduceat(flat, offsets) / counts
        return [float(score) for score in y_global + y_local]

    def rank(
        self,
        question: str,
        candidates: list[tuple[str, tuple[str, ...]]],
    ) -> list[tuple[int, float]]:
        """Rank (surface, phrases) candidates by Eq. 5, best first.

        One coarse-head forward over all candidates plus one fine-head
        forward over their distinct phrases (:meth:`score_many`).
        """
        fire("stage2.rank")
        scored = list(enumerate(self.score_many(question, candidates)))
        scored.sort(key=lambda item: -item[1])
        return scored

    def training_losses(self) -> list[float]:
        """Per-epoch training losses (for convergence checks)."""
        return list(self._losses)
