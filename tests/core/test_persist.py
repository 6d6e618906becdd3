"""Pipeline persistence tests: save -> load -> identical translations,
plus the durability contract (checksums, typed corruption errors)."""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.persist import (
    CHECKPOINT_FILES,
    load_pipeline,
    save_pipeline,
    verify_checkpoint,
)
from repro.sqlkit.errors import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointVersionError,
    SqlError,
)
from repro.sqlkit.printer import to_sql


@pytest.fixture(scope="module")
def saved_dir(trained_pipeline, tmp_path_factory):
    directory = tmp_path_factory.mktemp("pipeline") / "ckpt"
    save_pipeline(trained_pipeline, directory)
    return directory


class TestPersistence:
    def test_files_written(self, saved_dir):
        for name in (
            "manifest.json", "model.json", "classifier.json",
            "composer.json", "weights.npz",
        ):
            assert (saved_dir / name).exists()

    def test_loaded_pipeline_translates_identically(
        self, saved_dir, trained_pipeline, tiny_benchmark
    ):
        loaded = load_pipeline(saved_dir)
        dev = tiny_benchmark.dev
        for example in dev.examples[:15]:
            db = dev.database(example.db_id)
            original = trained_pipeline.translate_ranked(example.question, db)
            restored = loaded.translate_ranked(example.question, db)
            assert [to_sql(r.query) for r in original] == [
                to_sql(r.query) for r in restored
            ]

    def test_loaded_classifier_predicts_identically(
        self, saved_dir, trained_pipeline, tiny_benchmark
    ):
        loaded = load_pipeline(saved_dir)
        db = tiny_benchmark.dev.database("pets")
        question = "How many students have a dog?"
        assert loaded.classifier.predict(
            question, db
        ) == trained_pipeline.classifier.predict(question, db)

    def test_version_check(self, saved_dir, tmp_path):
        copy = tmp_path / "bad"
        shutil.copytree(saved_dir, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["version"] = 999
        (copy / "manifest.json").write_text(json.dumps(manifest))
        # Typed error, still a ValueError for pre-taxonomy callers.
        with pytest.raises(ValueError, match="version"):
            load_pipeline(copy)
        with pytest.raises(CheckpointVersionError):
            load_pipeline(copy)

    def test_manifest_checksums_every_file(self, saved_dir):
        manifest = verify_checkpoint(saved_dir)
        assert set(manifest["files"]) == set(CHECKPOINT_FILES)
        for entry in manifest["files"].values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0


class TestInterruptedReplace:
    """A replace cut between its two renames keeps the old checkpoint."""

    def test_displaced_checkpoint_is_restored(
        self, saved_dir, trained_pipeline, tiny_benchmark, tmp_path
    ):
        from repro.serve import ServiceConfig, TranslationService

        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        expected = [
            to_sql(r.query)
            for r in trained_pipeline.translate_ranked(example.question, db)
        ]
        target = tmp_path / "ckpt"
        displaced = tmp_path / ".ckpt.old"
        # The swap renamed <dir> aside, then the process died before
        # promoting the staged checkpoint: no <dir> is left.
        shutil.copytree(saved_dir, displaced)
        restored = load_pipeline(target)
        assert [
            to_sql(r.query)
            for r in restored.translate_ranked(example.question, db)
        ] == expected
        assert target.is_dir() and not displaced.exists()

        target.rename(displaced)
        with TranslationService(
            load_pipeline(target), ServiceConfig(workers=1, queue_limit=2)
        ) as service:
            result = service.translate(example.question, db, timeout=60)
        assert [to_sql(r.query) for r in result.translations] == expected


ALL_FILES = ("manifest.json",) + CHECKPOINT_FILES


class TestSignatureTable:
    """The sketch model's lazily built signature table follows its counts."""

    def test_restored_model_scores_and_decodes_like_the_original(
        self, saved_dir, trained_pipeline, tiny_benchmark
    ):
        from repro.models.cues import extract_cues

        loaded = load_pipeline(saved_dir)
        dev = tiny_benchmark.dev
        for example in dev.examples[:10]:
            db = dev.database(example.db_id)
            cues = extract_cues(example.question, db)
            assert loaded.model.sketch_model.score_sketches(
                example.question, cues=cues
            ) == trained_pipeline.model.sketch_model.score_sketches(
                example.question, cues=cues
            )
            original = trained_pipeline.model.translate(example.question, db)
            restored = loaded.model.translate(example.question, db)
            assert [(to_sql(c.query), c.score) for c in restored] == [
                (to_sql(c.query), c.score) for c in original
            ]

    def test_restored_model_has_the_fitted_posteriors(
        self, saved_dir, trained_pipeline, tiny_benchmark
    ):
        loaded = load_pipeline(saved_dir).model.sketch_model
        assert loaded._table is None  # rebuilt from the restored counts
        fitted = trained_pipeline.model.sketch_model

        def hexed(model, question):
            posteriors = model.facet_log_posteriors(question)
            return [
                (facet, [(value, lp.hex()) for value, lp in values.items()])
                for facet, values in posteriors.items()
            ]

        for example in tiny_benchmark.dev.examples:
            assert hexed(loaded, example.question) == hexed(
                fitted, example.question
            )

    def test_second_fit_rebuilds_the_table(self, tiny_benchmark):
        from repro.data.dataset import Dataset
        from repro.models.sketch import SketchModel

        train = tiny_benchmark.train
        head = Dataset(train.name, train.examples[:20], train.databases)
        question = "How many pets are there?"
        scored_between = SketchModel().fit(head)
        first = scored_between.score_sketches(question)  # builds the table
        scored_between.fit(train)
        # The same two fits with no scoring in between never saw a table.
        unscored = SketchModel().fit(head).fit(train)
        rebuilt = scored_between.score_sketches(question)
        assert rebuilt != first
        assert rebuilt == unscored.score_sketches(question)
        assert scored_between.signatures == unscored.signatures


class TestCheckpointCorruption:
    """Truncation, bit-flips and missing files raise typed errors —
    never a partial load."""

    @pytest.fixture()
    def corruptible(self, saved_dir, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(saved_dir, copy)
        return copy

    @pytest.mark.parametrize("name", ALL_FILES)
    def test_truncated_file(self, corruptible, name):
        path = corruptible / name
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_pipeline(corruptible)

    @pytest.mark.parametrize("name", ALL_FILES)
    def test_bit_flipped_file(self, corruptible, name):
        path = corruptible / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_pipeline(corruptible)

    @pytest.mark.parametrize("name", ALL_FILES)
    def test_missing_file(self, corruptible, name):
        (corruptible / name).unlink()
        with pytest.raises(CheckpointError):
            load_pipeline(corruptible)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_pipeline(tmp_path / "never-saved")

    def test_corruption_errors_root_at_sql_error(self, corruptible):
        (corruptible / "weights.npz").unlink()
        with pytest.raises(SqlError):
            load_pipeline(corruptible)


class TestRoundTripProperty:
    """Hypothesis: a restored pipeline translates identically."""

    @pytest.fixture(scope="class")
    def loaded(self, saved_dir):
        return load_pipeline(saved_dir)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_translations_survive_round_trip(
        self, data, loaded, trained_pipeline, tiny_benchmark
    ):
        dev = tiny_benchmark.dev
        example = data.draw(st.sampled_from(dev.examples[:25]))
        suffix = data.draw(
            st.text(alphabet="abcdefgh o", max_size=12), label="suffix"
        )
        question = example.question + suffix
        db = dev.database(example.db_id)
        original = trained_pipeline.translate_ranked(question, db)
        restored = loaded.translate_ranked(question, db)
        assert [to_sql(r.query) for r in original] == [
            to_sql(r.query) for r in restored
        ]


class TestLLMPoolRoundTrip:
    """The FewShotLLM demonstration-pool path survives persistence."""

    @pytest.fixture(scope="class")
    def llm_pipeline(self, tiny_benchmark):
        from repro.core.classifier import ClassifierConfig
        from repro.core.pipeline import MetaSQL, MetaSQLConfig
        from repro.models.registry import create_model

        config = MetaSQLConfig(
            ranker_train_questions=40,
            classifier=ClassifierConfig(epochs=10),
        )
        pipe = MetaSQL(create_model("chatgpt"), config)
        pipe.train(tiny_benchmark.train)
        return pipe

    def test_llm_round_trip(self, llm_pipeline, tiny_benchmark, tmp_path):
        from repro.models.llm import FewShotLLM

        target = tmp_path / "llm-ckpt"
        save_pipeline(llm_pipeline, target)
        loaded = load_pipeline(target)
        assert isinstance(loaded.model, FewShotLLM)
        assert len(loaded.model._pool) == len(llm_pipeline.model._pool)
        dev = tiny_benchmark.dev
        for example in dev.examples[:8]:
            db = dev.database(example.db_id)
            original = llm_pipeline.translate_ranked(example.question, db)
            restored = loaded.translate_ranked(example.question, db)
            assert [to_sql(r.query) for r in original] == [
                to_sql(r.query) for r in restored
            ]
