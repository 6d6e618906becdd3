"""First-stage ranking: dual-tower bi-encoder with cosine similarity.

The paper initialises both towers from a pre-trained sentence transformer
and fine-tunes on (NL, SQL, similarity) triples.  Here each tower is a
trainable projection over TF-IDF features (:mod:`repro.nn.encoder`); SQL
queries enter the SQL tower as their canonical text concatenated with the
rule-based NL description (:mod:`repro.sqlkit.sql2nl`), which bridges the
two modalities the same way sub-word pre-training does for BERT-style
towers.  Trained with MSE on cosine vs the clause-similarity target,
Adam, as in Section IV-A2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.resilience import fire
from repro.nn.autograd import Tensor
from repro.nn.encoder import EncoderTower
from repro.nn.optim import Adam
from repro.nn.text import TextFeaturizer
from repro.schema.schema import Schema
from repro.sqlkit.ast import Query
from repro.sqlkit.printer import to_sql
from repro.sqlkit.sql2nl import describe_query


def sql_surface(
    query: Query, schema: Schema | None = None, sql_text: str = ""
) -> str:
    """Text form of a SQL query fed to the SQL tower.

    Canonical SQL plus its rule-based NL description; *sql_text* is the
    query's canonical text when the caller already rendered it.
    """
    text = sql_text or to_sql(query)
    vocab_args = (schema,) if schema is not None else ()
    return f"{text} ; {describe_query(query, *vocab_args)}"


@dataclass
class Stage1Config:
    """Training hyper-parameters of the dual-tower ranker."""
    embed_dim: int = 64
    epochs: int = 18
    batch_size: int = 64
    learning_rate: float = 2e-3
    buckets: int = 1024
    seed: int = 4321


@dataclass(frozen=True)
class RankingTriple:
    """One supervision triple: question, SQL surface text, target in [0,1]."""

    question: str
    sql_text: str
    target: float


class DualTowerRanker:
    """Bi-encoder cosine ranker (Fig. 5a)."""

    def __init__(self, config: Stage1Config | None = None) -> None:
        self.config = config or Stage1Config()
        self._featurizer = TextFeaturizer(buckets=self.config.buckets)
        self._query_tower: EncoderTower | None = None
        self._sql_tower: EncoderTower | None = None
        self._losses: list[float] = []

    # ------------------------------------------------------------------

    def fit(self, triples: list[RankingTriple]) -> "DualTowerRanker":
        """Train both towers with MSE on cosine vs the similarity target."""
        if not triples:
            raise ValueError("stage-1 ranker needs training triples")
        rng = np.random.default_rng(self.config.seed)
        corpus = [t.question for t in triples] + [t.sql_text for t in triples]
        self._featurizer.fit(corpus)
        self._query_tower = EncoderTower(
            self._featurizer, self.config.embed_dim, rng, hidden_dim=128
        )
        self._sql_tower = EncoderTower(
            self._featurizer, self.config.embed_dim, rng, hidden_dim=128
        )
        question_features = self._featurizer.transform_many(
            [t.question for t in triples]
        )
        sql_features = self._featurizer.transform_many(
            [t.sql_text for t in triples]
        )
        targets = np.array([t.target for t in triples])

        params = self._query_tower.parameters() + self._sql_tower.parameters()
        optimizer = Adam(params, lr=self.config.learning_rate)
        n = len(triples)
        self._losses = []
        for __ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, self.config.batch_size):
                index = order[start : start + self.config.batch_size]
                q_emb = self._query_tower.encode_features(
                    question_features[index]
                )
                s_emb = self._sql_tower.encode_features(sql_features[index])
                cosines = _batch_cosine(q_emb, s_emb)
                diff = cosines - Tensor(targets[index])
                loss = (diff * diff).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            self._losses.append(epoch_loss / max(batches, 1))
        return self

    # ------------------------------------------------------------------

    def _embed(self, tower: EncoderTower, texts: list[str]) -> np.ndarray:
        """Embeddings for *texts*: distinct texts featurized and embedded once."""
        unique = list(dict.fromkeys(texts))
        embedded = tower.embed_array(self._featurizer.transform_many(unique))
        row = {text: index for index, text in enumerate(unique)}
        return embedded[[row[text] for text in texts]]

    def rank(
        self, question: str, sql_texts: list[str], top_k: int = 10
    ) -> list[tuple[int, float]]:
        """Indices of the top-k SQL texts with their cosine scores (Eq. 1).

        One featurization and one tower forward each for the question
        and the candidate texts, then one vectorized cosine.
        """
        fire("stage1.rank")
        if not sql_texts:
            return []
        if self._query_tower is None or self._sql_tower is None:
            raise RuntimeError("stage-1 ranker is not fitted")
        q = self._embed(self._query_tower, [question])[0]
        sql_embeddings = self._embed(self._sql_tower, sql_texts)
        denominators = float(np.linalg.norm(q)) * np.linalg.norm(
            sql_embeddings, axis=1
        )
        dots = sql_embeddings @ q
        safe = np.where(denominators == 0.0, 1.0, denominators)
        scores = np.where(denominators == 0.0, 0.0, dots / safe)
        scored = [(index, float(score)) for index, score in enumerate(scores)]
        scored.sort(key=lambda item: -item[1])
        return scored[:top_k]

    def training_losses(self) -> list[float]:
        """Per-epoch training losses (for convergence checks)."""
        return list(self._losses)


def _batch_cosine(a: Tensor, b: Tensor) -> Tensor:
    dot = (a * b).sum(axis=1)
    norms = a.norm(axis=1) * b.norm(axis=1)
    return dot / norms
