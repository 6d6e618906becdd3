"""First-stage ranking: dual-tower bi-encoder with cosine similarity.

The paper initialises both towers from a pre-trained sentence transformer
and fine-tunes on (NL, SQL, similarity) triples.  Here each tower is a
two-layer tanh MLP over TF-IDF features (:class:`repro.nn.layers.MLP`); SQL
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
from repro.nn.layers import MLP
from repro.nn.losses import mse_loss
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
        self._query_tower: MLP | None = None
        self._sql_tower: MLP | None = None
        self._losses: list[float] = []

    # ------------------------------------------------------------------

    def fit(self, triples: list[RankingTriple]) -> "DualTowerRanker":
        """Train both towers with MSE on cosine vs the similarity target."""
        if not triples:
            raise ValueError("stage-1 ranker needs training triples")
        rng = np.random.default_rng(self.config.seed)
        corpus = [t.question for t in triples] + [t.sql_text for t in triples]
        self._featurizer.fit(corpus)
        sizes = [self.config.buckets, 128, self.config.embed_dim]
        self._query_tower = MLP(sizes, rng)
        self._sql_tower = MLP(sizes, rng)
        questions, question_index = _distinct([t.question for t in triples])
        sql_texts, sql_index = _distinct([t.sql_text for t in triples])
        # CSR rows, densified one batch at a time: see SparseRows.
        question_rows = self._featurizer.sparse_rows(questions)
        sql_rows = self._featurizer.sparse_rows(sql_texts)
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
                optimizer.zero_grad()
                epoch_loss += self._batch_loss(
                    question_rows.take(question_index[index]),
                    sql_rows.take(sql_index[index]),
                    targets[index],
                )
                optimizer.step()
                batches += 1
            self._losses.append(epoch_loss / max(batches, 1))
        optimizer.zero_grad()  # inference reads no gradient
        return self

    def _batch_loss(
        self,
        question_features: np.ndarray,
        sql_features: np.ndarray,
        targets: np.ndarray,
    ) -> float:
        """MSE of one batch's cosines; its gradients go into both towers."""
        q_emb, q_inputs = self._query_tower.forward(question_features)
        s_emb, s_inputs = self._sql_tower.forward(sql_features)
        loss, q_grad, s_grad = _cosine_mse(q_emb, s_emb, targets)
        self._query_tower.backward(q_inputs, q_grad)
        self._sql_tower.backward(s_inputs, s_grad)
        return float(loss)

    # ------------------------------------------------------------------

    def rank(
        self, question: str, sql_texts: list[str], top_k: int = 10
    ) -> list[tuple[int, float]]:
        """Indices of the top-k SQL texts with their cosine scores (Eq. 1).

        One featurization of the question and the distinct candidate
        texts, row 0 through the query tower and the other rows through
        the SQL tower, then one vectorized cosine.
        """
        fire("stage1.rank")
        if not sql_texts:
            return []
        if self._query_tower is None or self._sql_tower is None:
            raise RuntimeError("stage-1 ranker is not fitted")
        distinct, index = _distinct([question, *sql_texts])
        rows = self._featurizer.transform_many(distinct)
        q = self._query_tower.forward_array(rows[:1])[0]
        sql_index = index[1:]
        # A candidate text equal to the question shares its row 0.
        first = 0 if (sql_index == 0).any() else 1
        sql_embeddings = self._sql_tower.forward_array(rows[first:])[
            sql_index - first
        ]
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


def _distinct(texts: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct *texts* in first-seen order, and each text's position."""
    row: dict[str, int] = {}
    index = np.array([row.setdefault(text, len(row)) for text in texts])
    return list(row), index


def _cosine_mse(
    a: np.ndarray, b: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MSE of the row cosines of *a* and *b* against *targets*, and its
    gradients with respect to *a* and *b*."""
    dot = (a * b).sum(axis=1)
    power_a = (a * a).sum(axis=1) + 1e-12
    power_b = (b * b).sum(axis=1) + 1e-12
    norm_a, norm_b = power_a**0.5, power_b**0.5
    norms = norm_a * norm_b
    loss, grad = mse_loss(dot / norms, targets)
    grad_dot = (grad / norms)[:, None]
    grad_norms = -grad * dot / norms**2
    grads = []
    for x, other, power, partner_norm in (
        (a, b, power_a, norm_b),
        (b, a, power_b, norm_a),
    ):
        grad_power = grad_norms * partner_norm * 0.5 * power**-0.5
        # x reaches the loss through x * other, then twice through x * x.
        norm_term = grad_power[:, None] * x
        grads.append(grad_dot * other + norm_term + norm_term)
    return loss, grads[0], grads[1]
