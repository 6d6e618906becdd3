"""What the fits hold in memory.

The classifier and the stage-1 ranker keep their training rows as CSR
(:class:`repro.nn.text.SparseRows`) and densify one batch at a time, so a
fit's traced peak stays below what its dense rows alone would take.  Every
fit returns with no gradient alive: inference reads none.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, MetadataClassifier
from repro.core.rank_stage1 import DualTowerRanker, RankingTriple, Stage1Config
from repro.core.rank_stage2 import MultiGrainedRanker, Stage2Config
from repro.data.dataset import Dataset
from tests.core.test_rankers import _synthetic_lists, _synthetic_triples


def _traced_peak(fit) -> int:
    tracemalloc.start()
    try:
        fit()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_classifier_fit_peak_is_below_its_dense_rows(tiny_benchmark):
    """2,250 rows of 1,024 + 17 float64 features: 18.7 MB dense.  The CSR
    fit peaks at about half of that (the dense fit, which also stacked a
    copy of its rows, at about twice)."""
    config = ClassifierConfig(epochs=1)
    # Fills the hash memos and every database's index outside the trace.
    MetadataClassifier(config).fit(tiny_benchmark.train)
    train = Dataset(
        name="repeated",
        examples=tiny_benchmark.train.examples * 3,
        databases=tiny_benchmark.train.databases,
    )
    peak = _traced_peak(lambda: MetadataClassifier(config).fit(train))
    dense_rows = len(train.examples) * (config.buckets + 17) * 8
    assert peak < 0.7 * dense_rows


def test_stage1_fit_peak_is_below_its_dense_rows():
    """1,500 distinct questions and 1,500 distinct SQL texts of 1,024
    float64 buckets: 24.6 MB dense.  The CSR fit peaks at about 58% of
    that (the dense fit at about 166%)."""
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(300)]
    triples = [
        RankingTriple(
            question=" ".join(rng.choice(words, 6)),
            sql_text=" ".join(rng.choice(words, 8)),
            target=float(rng.random()),
        )
        for __ in range(1500)
    ]
    config = Stage1Config(epochs=1)
    DualTowerRanker(config).fit(triples)  # fills the hash memos
    peak = _traced_peak(lambda: DualTowerRanker(config).fit(triples))
    distinct = len({t.question for t in triples}) + len(
        {t.sql_text for t in triples}
    )
    assert peak < 0.8 * distinct * config.buckets * 8


@pytest.mark.parametrize("which", ["classifier", "stage1", "stage2"])
def test_fit_releases_every_gradient(which, tiny_benchmark):
    if which == "classifier":
        fitted = MetadataClassifier(ClassifierConfig(epochs=2)).fit(
            tiny_benchmark.train
        )
        nets = [fitted._net]
    elif which == "stage1":
        fitted = DualTowerRanker(
            Stage1Config(epochs=2, buckets=256, embed_dim=16)
        ).fit(_synthetic_triples(n=80))
        nets = [fitted._query_tower, fitted._sql_tower]
    else:
        fitted = MultiGrainedRanker(Stage2Config(epochs=2)).fit(
            _synthetic_lists(n=20)
        )
        nets = [fitted._coarse_head, fitted._fine_head]
    params = [p for net in nets for p in net.parameters()]
    assert params
    assert all(p.grad is None for p in params)
