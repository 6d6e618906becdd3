"""The three fits' hand-written gradients against the reference engine.

Each fit trains on arrays with a hand-written backward pass that performs
the reference engine's numpy operations in its accumulation order
(``tests/nn/autograd_reference.py``).  The property tests compare one
batch's gradients and loss by their bytes; the fit tests swap each fit's
per-batch loss for the engine's and compare every trained weight and
per-epoch loss bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.align import PHRASE_FEATURE_DIM, SENTENCE_FEATURE_DIM
from repro.core.classifier import ClassifierConfig, MetadataClassifier
from repro.core.rank_stage1 import DualTowerRanker, Stage1Config
from repro.core.rank_stage2 import MultiGrainedRanker, Stage2Config
from repro.nn.layers import MLP
from tests.core.test_rankers import _synthetic_lists, _synthetic_triples
from tests.nn import autograd_reference as ref


def _grad_bytes(*nets) -> list[bytes | None]:
    return [
        None if p.grad is None else p.grad.tobytes()
        for net in nets
        for p in net.parameters()
    ]


def _leaf_bytes(*leaf_lists) -> list[bytes | None]:
    return [
        None if leaf.grad is None else leaf.grad.tobytes()
        for leaves in leaf_lists
        for leaf in leaves
    ]


def _weights(*nets) -> list[bytes]:
    return [p.data.tobytes() for net in nets for p in net.parameters()]


def _hex(losses) -> list[str]:
    return [float(loss).hex() for loss in losses]


sizes = st.integers(1, 9)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 20), inputs=sizes, hidden=sizes, labels=sizes,
       seed=seeds)
def test_classifier_gradients_match_reference(batch, inputs, hidden, labels,
                                              seed):
    rng = np.random.default_rng(seed)
    classifier = MetadataClassifier()
    classifier._net = MLP([inputs, hidden, labels], rng)
    features = rng.normal(size=(batch, inputs)) * 3.0
    targets = (rng.random((batch, labels)) < 0.4).astype(np.float64)

    params = ref.leaves(classifier._net)
    expected = ref.classifier_loss(params, features, targets)
    expected.backward()
    loss = classifier._batch_loss(features, targets)

    assert float(loss).hex() == expected.item().hex()
    assert _grad_bytes(classifier._net) == _leaf_bytes(params)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 20), buckets=sizes, hidden=sizes, embed=sizes,
       seed=seeds)
def test_stage1_gradients_match_reference(batch, buckets, hidden, embed, seed):
    rng = np.random.default_rng(seed)
    ranker = DualTowerRanker()
    ranker._query_tower = MLP([buckets, hidden, embed], rng)
    ranker._sql_tower = MLP([buckets, hidden, embed], rng)
    question_features = rng.random((batch, buckets))
    sql_features = rng.random((batch, buckets))
    targets = rng.random(batch)

    query_params = ref.leaves(ranker._query_tower)
    sql_params = ref.leaves(ranker._sql_tower)
    expected = ref.stage1_loss(
        query_params, sql_params, question_features, sql_features, targets
    )
    expected.backward()
    loss = ranker._batch_loss(question_features, sql_features, targets)

    assert float(loss).hex() == expected.item().hex()
    assert _grad_bytes(ranker._query_tower, ranker._sql_tower) == _leaf_bytes(
        query_params, sql_params
    )


@settings(max_examples=60, deadline=None)
@given(
    group_sizes=st.lists(st.integers(1, 5), min_size=2, max_size=10),
    phrase_supervision=st.booleans(),
    gap=st.booleans(),
    margin=st.sampled_from([1.0, -3.0]),
    seed=seeds,
)
def test_stage2_gradients_match_reference(group_sizes, phrase_supervision,
                                          gap, margin, seed):
    """Random list lengths and phrase groups, with and without the phrase
    losses (the Table 9 ablation), with and without the >= 2.0 target gap
    that arms the hinge, and with the hinge above and below zero."""
    rng = np.random.default_rng(seed)
    config = Stage2Config(
        phrase_supervision=phrase_supervision,
        triplet_margin=margin,
        seed=int(rng.integers(2**31)),
    )
    ranker = MultiGrainedRanker(config)
    n = len(group_sizes)
    sentence = rng.normal(size=(n, SENTENCE_FEATURE_DIM))
    per_phrase = [rng.normal(size=(k, PHRASE_FEATURE_DIM)) for k in group_sizes]
    if gap:
        targets = rng.integers(0, 11, size=n).astype(np.float64)
        targets[int(rng.integers(n))] = 10.0
        targets[int(rng.integers(n))] = 0.0
    else:
        targets = 5.0 + rng.random(n) * 1.9

    heads = (ranker._coarse_head, ranker._fine_head)
    coarse_params, fine_params = (ref.leaves(head) for head in heads)
    expected = ref.stage2_loss(
        config, coarse_params, fine_params, sentence, per_phrase, targets
    )
    expected.backward()
    loss = ranker._list_loss(sentence, per_phrase, targets)

    assert float(loss).hex() == expected.item().hex()
    assert _grad_bytes(*heads) == _leaf_bytes(coarse_params, fine_params)


# ----------------------------------------------------------------------
# Whole fits: hand-written backward against the engine's.


def _reference_classifier_loss(self, features, targets):
    params = ref.leaves(self._net)
    loss = ref.classifier_loss(params, features, targets)
    return ref.backward_into(loss, (self._net, params))


def _reference_stage1_loss(self, question_features, sql_features, targets):
    query_params = ref.leaves(self._query_tower)
    sql_params = ref.leaves(self._sql_tower)
    loss = ref.stage1_loss(
        query_params, sql_params, question_features, sql_features, targets
    )
    return ref.backward_into(
        loss, (self._query_tower, query_params), (self._sql_tower, sql_params)
    )


def _reference_stage2_loss(self, sentence, per_phrase, targets):
    coarse_params = ref.leaves(self._coarse_head)
    fine_params = ref.leaves(self._fine_head)
    loss = ref.stage2_loss(
        self.config, coarse_params, fine_params, sentence, per_phrase, targets
    )
    return ref.backward_into(
        loss,
        (self._coarse_head, coarse_params),
        (self._fine_head, fine_params),
    )


def _fit_both(monkeypatch, cls, reference_loss, method, fit):
    """Fit once by hand and once on the engine; return both fits."""
    hand = fit()
    with monkeypatch.context() as patch:
        patch.setattr(cls, method, reference_loss)
        engine = fit()
    return hand, engine


def test_classifier_fit_matches_reference(monkeypatch, tiny_benchmark):
    config = ClassifierConfig(epochs=3)
    hand, engine = _fit_both(
        monkeypatch, MetadataClassifier, _reference_classifier_loss,
        "_batch_loss",
        lambda: MetadataClassifier(config).fit(tiny_benchmark.train),
    )
    assert _hex(hand.training_losses()) == _hex(engine.training_losses())
    assert _weights(hand._net) == _weights(engine._net)


def test_stage1_fit_matches_reference(monkeypatch):
    config = Stage1Config(epochs=3, buckets=256, embed_dim=24, batch_size=32)
    triples = _synthetic_triples(n=100)
    hand, engine = _fit_both(
        monkeypatch, DualTowerRanker, _reference_stage1_loss, "_batch_loss",
        lambda: DualTowerRanker(config).fit(triples),
    )
    assert _hex(hand.training_losses()) == _hex(engine.training_losses())
    assert _weights(hand._query_tower, hand._sql_tower) == _weights(
        engine._query_tower, engine._sql_tower
    )


@pytest.mark.parametrize("phrase_supervision", [True, False])
def test_stage2_fit_matches_reference(monkeypatch, phrase_supervision):
    config = Stage2Config(epochs=3, phrase_supervision=phrase_supervision)
    lists = _synthetic_lists(n=20)
    hand, engine = _fit_both(
        monkeypatch, MultiGrainedRanker, _reference_stage2_loss, "_list_loss",
        lambda: MultiGrainedRanker(config).fit(lists),
    )
    assert _hex(hand.training_losses()) == _hex(engine.training_losses())
    heads = ("_coarse_head", "_fine_head")
    assert _weights(*(getattr(hand, h) for h in heads)) == _weights(
        *(getattr(engine, h) for h in heads)
    )
