"""Batched-scoring tests, plus the :class:`LRUCache` primitive.

The batched rankers must match the per-item references in
:mod:`tests.core.rank_reference` to float precision: stage 1's top-k
order and cosines, stage 2's ``y_G + y_L`` per candidate.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.rank_stage1 import DualTowerRanker, Stage1Config
from repro.core.rank_stage2 import MultiGrainedRanker, Stage2Config
from repro.nn.text import TextFeaturizer, _fnv1a, _hash_token
from repro.obs.metrics import MetricsRegistry, registry_scope
from repro.perf.cache import MISS, LRUCache
from tests.core import rank_reference

pytestmark = pytest.mark.perf


# ----------------------------------------------------------------------
# LRUCache: bound, recency, invalidation, metrics, threads.


class TestLRUCache:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LRUCache("bad", max_entries=0)
        with pytest.raises(ValueError):
            LRUCache("ok", max_entries=1).resize(0)

    def test_hit_miss_and_store(self):
        cache = LRUCache("t", max_entries=4)
        assert cache.lookup("a") is MISS
        cache.put("a", 1)
        assert cache.lookup("a") == 1
        assert cache.get_or("b", lambda: 2) == 2
        assert cache.get_or("b", lambda: 99) == 2  # cached, not recomputed
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 2

    def test_bound_enforced_with_lru_eviction(self):
        cache = LRUCache("t", max_entries=3)
        for key in "abc":
            cache.put(key, key)
        assert cache.lookup("a") == "a"  # refresh a's recency
        cache.put("d", "d")  # bound hit: evicts b, the least recently used
        assert len(cache) == 3
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        assert cache.stats()["evictions"] == 1

    def test_resize_shrinks_evicting_oldest(self):
        cache = LRUCache("t", max_entries=4)
        for key in "abcd":
            cache.put(key, key)
        cache.resize(2)
        assert len(cache) == 2
        assert "c" in cache and "d" in cache
        cache.resize(8)
        assert cache.max_entries == 8

    def test_invalidate_clears_and_bumps_version(self):
        cache = LRUCache("t", max_entries=4)
        cache.put("a", 1)
        version = cache.version
        cache.invalidate()
        assert len(cache) == 0
        assert cache.version == version + 1
        assert cache.lookup("a") is MISS

    def test_counters_flow_into_ambient_registry(self):
        registry = MetricsRegistry()
        with registry_scope(registry):
            cache = LRUCache("unit", max_entries=1)
            cache.get_or("a", lambda: 1)  # miss
            cache.get_or("a", lambda: 1)  # hit
            cache.put("b", 2)  # evicts a
            hits = registry.counter(
                "metasql_cache_hits_total", labelnames=("cache",)
            ).labels(cache="unit")
            misses = registry.counter(
                "metasql_cache_misses_total", labelnames=("cache",)
            ).labels(cache="unit")
            evictions = registry.counter(
                "metasql_cache_evictions_total", labelnames=("cache",)
            ).labels(cache="unit")
            assert hits.value == 1
            assert misses.value == 1
            assert evictions.value == 1

    def test_thread_hammer_stays_bounded_and_correct(self):
        cache = LRUCache("t", max_entries=8)
        errors: list[Exception] = []

        def worker(offset: int) -> None:
            try:
                for i in range(300):
                    key = (offset + i) % 24
                    value = cache.get_or(key, lambda key=key: key * 2)
                    assert value == key * 2
                    if i % 50 == 0:
                        cache.invalidate()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8


# ----------------------------------------------------------------------
# Text featurization: the shared accumulation path + token-hash memo.


class TestTextBatching:
    def test_hash_token_is_memo_of_full_hash(self):
        assert _hash_token("select", 64) == _fnv1a("select") % 64
        assert _hash_token("select", 1024) == _fnv1a("select") % 1024

    def test_featurizer_single_matches_batch(self):
        texts = ["alpha beta gamma", "beta beta delta", "gamma epsilon"]
        featurizer = TextFeaturizer(buckets=128).fit(texts)
        batch = featurizer.transform_many(texts)
        for row, text in enumerate(texts):
            np.testing.assert_array_equal(featurizer.transform(text), batch[row])


# ----------------------------------------------------------------------
# Batched rankers match their per-item references.


class TestStage1Batching:
    @pytest.fixture(scope="class")
    def ranker(self):
        from tests.core.test_rankers import _synthetic_triples

        config = Stage1Config(epochs=10, buckets=128, embed_dim=16)
        return DualTowerRanker(config).fit(_synthetic_triples(n=80, seed=3))

    CANDIDATES = [
        "alpha beta",
        "eta zeta",
        "alpha eta",
        "beta gamma delta",
        "alpha beta",  # duplicate: featurized once, scored twice
        "delta",
    ]

    def _assert_matches_sequential(self, ranker, top_k):
        batched = ranker.rank("alpha beta gamma", self.CANDIDATES, top_k)
        reference = rank_reference.stage1_rank(
            ranker, "alpha beta gamma", self.CANDIDATES, top_k
        )
        assert [i for i, __ in batched] == [i for i, __ in reference]
        np.testing.assert_allclose(
            [s for __, s in batched],
            [s for __, s in reference],
            atol=1e-9,
        )

    def test_batched_matches_sequential(self, ranker):
        self._assert_matches_sequential(ranker, top_k=10)

    def test_batched_matches_sequential_topk(self, ranker):
        self._assert_matches_sequential(ranker, top_k=3)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DualTowerRanker().rank("x", ["y"])


class TestStage2Batching:
    @pytest.fixture(scope="class")
    def ranker(self):
        from tests.core.test_rankers import _synthetic_lists

        return MultiGrainedRanker(Stage2Config(epochs=4)).fit(
            _synthetic_lists(n=30)
        )

    CANDIDATES = [
        ("zeta epsilon delta", ("zeta", "epsilon", "delta")),
        ("alpha beta gamma", ("alpha", "beta", "gamma")),
        ("alpha zeta", ("alpha", "zeta")),
        ("beta", ()),  # no phrases: falls back to the surface text
        ("alpha beta gamma", ("alpha", "beta", "gamma")),  # duplicate
    ]

    def test_score_many_matches_score(self, ranker):
        question = "alpha beta gamma"
        batched = ranker.score_many(question, self.CANDIDATES)
        reference = [
            rank_reference.stage2_score(ranker, question, surface, phrases)
            for surface, phrases in self.CANDIDATES
        ]
        np.testing.assert_allclose(batched, reference, atol=1e-9)

    def test_rank_matches_sequential(self, ranker):
        question = "alpha beta gamma"
        batched = ranker.rank(question, self.CANDIDATES)
        reference = rank_reference.stage2_rank(
            ranker, question, self.CANDIDATES
        )
        assert [i for i, __ in batched] == [i for i, __ in reference]
        np.testing.assert_allclose(
            [s for __, s in batched],
            [s for __, s in reference],
            atol=1e-9,
        )

    def test_empty_candidates(self, ranker):
        assert ranker.score_many("q", []) == []
        assert ranker.rank("q", []) == []


# ----------------------------------------------------------------------
# Pipeline: the stage spans.


class TestStageSpans:
    def test_candidate_counts_land_on_generate_span(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        outcome = trained_pipeline.translate_ranked_report(
            example.question, db
        )
        generate = next(
            child
            for child in outcome.report.trace["children"]
            if child["name"] == "generate"
        )
        attributes = generate["attributes"]
        assert 0 < attributes["candidates"] <= attributes["generated"]

    def test_stage_spans_carry_batch_size(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        outcome = trained_pipeline.translate_ranked_report(
            example.question, db
        )
        spans = {
            child["name"]: child for child in outcome.report.trace["children"]
        }
        assert spans["stage1"]["attributes"]["batch_size"] >= 1
        assert spans["stage2"]["attributes"]["batch_size"] >= 1
