"""Multi-label metadata classifier (Section III-A2).

Maps an NL question (with schema context) to metadata labels: one label per
operator tag plus one per observed hardness-rating value.  Architecturally
this mirrors the paper's construction — the translation model's *encoder*
(here: the TF-IDF featurizer + schema-grounded cue features) with the
decoder replaced by a classification layer — trained with BCE-with-logits.

Labels whose logit exceeds the classification threshold ``p`` (default 0,
the paper's default) are selected; lowering ``p`` toward -60 admits noisier
labels (the Fig. 6a sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata import TAG_VOCABULARY, extract_metadata
from repro.core.resilience import fire
from repro.data.dataset import Dataset
from repro.models.cues import CueEvidence, extract_cues
from repro.nn.layers import MLP
from repro.nn.losses import bce_with_logits
from repro.nn.optim import Adam
from repro.nn.text import TextFeaturizer
from repro.schema.database import Database


def _cue_feature_vector(cues: CueEvidence) -> np.ndarray:
    """Dense schema-grounded features appended to the text features."""
    tags = [
        1.0 if cues.setop == op else 0.0
        for op in ("union", "intersect", "except")
    ]
    nested = [
        1.0 if cues.nested == kind else 0.0
        for kind in ("in", "not_in", "scalar")
    ]
    return np.array(
        tags
        + nested
        + [
            float(cues.expected_predicates),
            1.0 if cues.group else 0.0,
            1.0 if cues.having else 0.0,
            1.0 if cues.order != "none" else 0.0,
            1.0 if cues.superlative != "none" else 0.0,
            1.0 if cues.limit_k is not None else 0.0,
            1.0 if cues.count_question else 0.0,
            float(sum(cues.agg_counts.values())),
            1.0 if cues.distinct else 0.0,
            float(len(cues.matched_values)),
            float(cues.n_select_hint),
            float(min(cues.table_hints, 3)),
            1.0 if cues.from_subquery else 0.0,
        ]
    )


@dataclass
class ClassifierConfig:
    """Training hyper-parameters of the metadata classifier."""
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 2e-3
    buckets: int = 1024
    seed: int = 1234


class MetadataClassifier:
    """Multi-label classifier over operator tags and hardness values."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config or ClassifierConfig()
        self._featurizer = TextFeaturizer(buckets=self.config.buckets)
        self._labels: list[object] = []
        self._label_index: dict[object, int] = {}
        self._net: MLP | None = None
        self._losses: list[float] = []

    # ------------------------------------------------------------------

    @property
    def labels(self) -> list[object]:
        """Label vocabulary: tag strings plus ('rating', value) pairs."""
        return list(self._labels)

    def _features(
        self, question: str, db: Database, cues: CueEvidence | None = None
    ) -> np.ndarray:
        text = self._featurizer.transform(question)
        if cues is None:
            cues = extract_cues(question, db)
        return np.concatenate([text, _cue_feature_vector(cues)])

    # ------------------------------------------------------------------

    def fit(self, train: Dataset) -> "MetadataClassifier":
        """Build the label vocabulary and train the classification head."""
        rng = np.random.default_rng(self.config.seed)
        # Build the label vocabulary from training metadata.
        observed_tags: set[str] = set()
        observed_ratings: set[int] = set()
        metadata = []
        for example in train.examples:
            meta = extract_metadata(example.sql)
            metadata.append(meta)
            observed_tags.update(meta.tags)
            observed_ratings.add(meta.rating)
        self._labels = [t for t in TAG_VOCABULARY if t in observed_tags]
        self._labels.extend(("rating", r) for r in sorted(observed_ratings))
        self._label_index = {label: i for i, label in enumerate(self._labels)}

        self._featurizer.fit([e.question for e in train.examples])
        features = np.stack(
            [
                self._features(e.question, train.database(e.db_id))
                for e in train.examples
            ]
        )
        targets = np.zeros((len(train.examples), len(self._labels)))
        for row, meta in enumerate(metadata):
            for tag in meta.tags:
                if tag in self._label_index:
                    targets[row, self._label_index[tag]] = 1.0
            rating_label = ("rating", meta.rating)
            targets[row, self._label_index[rating_label]] = 1.0

        self._net = MLP([features.shape[1], 96, len(self._labels)], rng)
        optimizer = Adam(
            self._net.parameters(), lr=self.config.learning_rate
        )
        n = features.shape[0]
        self._losses = []
        for epoch in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, self.config.batch_size):
                index = order[start : start + self.config.batch_size]
                optimizer.zero_grad()
                epoch_loss += self._batch_loss(features[index], targets[index])
                optimizer.step()
                batches += 1
            self._losses.append(epoch_loss / max(batches, 1))
        return self

    def _batch_loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        """BCE of one batch; its gradients go into the network."""
        logits, inputs = self._net.forward(features)
        loss, grad = bce_with_logits(logits, targets)
        self._net.backward(inputs, grad)
        return float(loss)

    # ------------------------------------------------------------------

    def logits(
        self, question: str, db: Database, cues: CueEvidence | None = None
    ) -> dict[object, float]:
        """Raw label logits for *question*.

        *cues* is ``extract_cues(question, db)`` when the caller has it;
        without it the classifier extracts its own.
        """
        if self._net is None:
            raise RuntimeError("classifier is not fitted")
        features = self._features(question, db, cues)
        raw = self._net.forward_array(features)
        return {label: float(raw[i]) for i, label in enumerate(self._labels)}

    def predict(
        self,
        question: str,
        db: Database,
        threshold: float = 0.0,
        cues: CueEvidence | None = None,
    ) -> tuple[set[str], list[int]]:
        """Selected (tags, candidate ratings) with logits above *threshold*.

        Ratings are sorted by logit, best first; at least one rating is
        always returned (the argmax) so composition never starves.
        *cues* is passed to :meth:`logits`.
        """
        fire("classifier.predict")
        logits = self.logits(question, db, cues)
        tags = {
            label
            for label, logit in logits.items()
            if isinstance(label, str) and logit > threshold
        }
        rating_items = [
            (logit, label[1])
            for label, logit in logits.items()
            if isinstance(label, tuple)
        ]
        rating_items.sort(key=lambda item: -item[0])
        ratings = [
            value for logit, value in rating_items if logit > threshold
        ]
        if not ratings and rating_items:
            ratings = [rating_items[0][1]]
        if not tags:
            tags = {"project"}
        return tags, ratings

    def training_losses(self) -> list[float]:
        """Per-epoch training losses (for convergence checks)."""
        return list(self._losses)
