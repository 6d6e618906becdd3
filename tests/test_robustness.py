"""Failure-injection and robustness tests across the stack."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.classifier import ClassifierConfig
from repro.core.metadata import QueryMetadata
from repro.core.pipeline import MetaSQL, MetaSQLConfig
from repro.core.rank_stage1 import Stage1Config
from repro.core.rank_stage2 import Stage2Config
from repro.core.resilience import (
    FAILPOINTS,
    FAULTS,
    FaultInjector,
    InjectedFault,
    TranslationReport,
)
from repro.core.values import ground_values
from repro.eval.metrics import execution_match
from repro.schema.database import Database
from repro.schema.executor import ExecutionBudget, execute
from repro.schema.schema import NUMBER, Column, Schema, Table
from repro.sqlkit.errors import (
    ExecutionBudgetError,
    PipelineStateError,
    SqlError,
    SqlExecutionError,
)
from repro.sqlkit.parser import parse_sql

pytestmark = pytest.mark.robustness

#: The failpoints crossed by ``translate_ranked``.  ``executor.execute``
#: is reached by the EX metric and the verify stage (covered
#: separately); ``repair.regenerate`` only fires when the verified top-1
#: hard-fails (exercised in ``tests/test_verify_repair.py``); the
#: serve site belongs to the serving layer and is exercised in
#: ``tests/test_serve.py``.
NON_TRANSLATE_FAILPOINTS = {
    "executor.execute",
    "repair.regenerate",
    "serve.handle",
}
PIPELINE_FAILPOINTS = [
    site for site in FAILPOINTS if site not in NON_TRANSLATE_FAILPOINTS
]


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Never leak an armed failpoint into another test."""
    yield
    FAULTS.disarm()


@pytest.fixture()
def empty_db():
    schema = Schema(
        db_id="empty",
        tables=(Table("t", (Column("a"), Column("n", NUMBER))),),
    )
    return Database(schema)


class TestExecutorRobustness:
    def test_empty_table_queries(self, empty_db):
        assert execute(parse_sql("SELECT a FROM t"), empty_db) == []
        assert execute(parse_sql("SELECT count(*) FROM t"), empty_db) == [(0,)]
        assert execute(
            parse_sql("SELECT a FROM t ORDER BY n DESC LIMIT 3"), empty_db
        ) == []

    def test_unknown_column_raises_sql_error(self, world_db):
        with pytest.raises(SqlError):
            execute(parse_sql("SELECT bogus FROM country"), world_db)

    def test_unknown_table_raises_sql_error(self, world_db):
        with pytest.raises(SqlError):
            execute(parse_sql("SELECT a FROM bogus"), world_db)

    def test_aggregate_without_group_context(self, world_db):
        # HAVING-style aggregate in WHERE is invalid: surfaced as SqlError.
        with pytest.raises(SqlError):
            execute(
                parse_sql("SELECT name FROM country WHERE count(*) > 1"),
                world_db,
            )

    def test_division_by_zero_yields_null(self, world_db):
        rows = execute(
            parse_sql("SELECT population / 0 FROM country LIMIT 1"), world_db
        )
        assert rows == [(None,)]

    def test_mixed_type_comparison_does_not_crash(self, world_db):
        rows = execute(
            parse_sql("SELECT name FROM country WHERE population > 'abc'"),
            world_db,
        )
        assert rows == []


class TestModelRobustness:
    def test_gibberish_question_still_decodes(
        self, fitted_lgesql, tiny_benchmark
    ):
        db = tiny_benchmark.dev.database("pets")
        candidates = fitted_lgesql.translate("qwxz blorp 77 zzz", db)
        assert isinstance(candidates, list)

    def test_empty_question(self, fitted_lgesql, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        candidates = fitted_lgesql.translate("", db)
        assert isinstance(candidates, list)

    def test_unknown_metadata_tags_relaxed(
        self, trained_pipeline, tiny_benchmark
    ):
        """A metadata condition whose tag-set was never observed should not
        crash decoding — the model relaxes to soft-tag matching."""
        db = tiny_benchmark.dev.database("pets")
        weird = QueryMetadata(
            tags=frozenset({"project", "union", "group", "having"}),
            rating=950,
        )
        candidates = trained_pipeline.model.translate(
            "students per major", db, metadata=weird
        )
        assert isinstance(candidates, list)

    def test_pipeline_on_gibberish(self, trained_pipeline, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        ranked = trained_pipeline.translate_ranked("zz qq pp 3", db)
        assert isinstance(ranked, list)


class TestGroundingRobustness:
    def test_grounding_idempotent(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE continent = 'value'"
        )
        question = "countries in Asia"
        once = ground_values(query, question, world_db)
        twice = ground_values(once, question, world_db)
        assert once == twice

    def test_grounding_without_any_evidence(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE population > 'value'"
        )
        grounded = ground_values(query, "no numbers here", world_db)
        # Placeholder survives; executing it just returns no rows.
        rows = execute(grounded, world_db)
        assert rows == []


# ----------------------------------------------------------------------
# Fault-injection registry.


class TestFaultInjector:
    def test_unknown_site_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError, match="unknown failpoint"):
            injector.arm("no.such.site")

    def test_arm_fire_disarm(self):
        injector = FaultInjector()
        injector.arm("stage1.rank", times=2)
        for __ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire("stage1.rank")
        injector.fire("stage1.rank")  # budget of 2 exhausted: no-op
        assert injector.fired("stage1.rank") == 2
        injector.disarm("stage1.rank")
        injector.fire("stage1.rank")

    def test_other_sites_unaffected(self):
        injector = FaultInjector()
        injector.arm("compose")
        injector.fire("stage2.rank")  # not armed: no-op

    def test_context_manager_disarms(self):
        injector = FaultInjector()
        with injector.inject("compose", times=None):
            with pytest.raises(InjectedFault):
                injector.fire("compose")
        injector.fire("compose")

    def test_custom_exception_factory(self):
        injector = FaultInjector()
        injector.arm("executor.execute", exc=lambda: SqlExecutionError("boom"))
        with pytest.raises(SqlExecutionError, match="boom"):
            injector.fire("executor.execute")

    def test_custom_exception_instance(self):
        injector = FaultInjector()
        injector.arm("executor.execute", exc=SqlExecutionError("ready-made"))
        with pytest.raises(SqlExecutionError, match="ready-made"):
            injector.fire("executor.execute")

    def test_registered_sites_cover_the_pipeline(self):
        assert set(PIPELINE_FAILPOINTS) | NON_TRANSLATE_FAILPOINTS == set(
            FAULTS.sites
        )

    def test_catalog_matches_the_fired_sites(self):
        """``FAILPOINTS`` names exactly the sites that some module under
        ``src/repro`` fires by literal name: no entry outlives its site."""
        fired = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func).rsplit(".", 1)[-1] == "fire"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    fired.add(node.args[0].value)
        assert fired == set(FAILPOINTS)


# ----------------------------------------------------------------------
# Graceful degradation at every failpoint.


class TestDegradationChain:
    @pytest.mark.parametrize("site", PIPELINE_FAILPOINTS)
    def test_single_fault_degrades_instead_of_raising(
        self, site, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        with FAULTS.inject(site, times=1):
            result = trained_pipeline.translate_ranked_report(
                example.question, db
            )
        assert isinstance(result.translations, list)
        assert result.report.degraded
        assert site in [record.site for record in result.report.faults]
        if site != "generator.generate":
            # Degraded, but a ranked list still comes out.
            assert result.translations

    @pytest.mark.parametrize("site", PIPELINE_FAILPOINTS)
    def test_translate_never_raises_under_single_fault(
        self, site, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[1]
        db = tiny_benchmark.dev.database(example.db_id)
        with FAULTS.inject(site, times=1):
            query = trained_pipeline.translate(example.question, db)
        if site == "generator.generate":
            assert query is None  # clean None, not an exception
        else:
            assert query is not None
        with FAULTS.inject(site, times=1):
            report = trained_pipeline.translate_ranked_report(
                example.question, db
            ).report
        assert site in [record.site for record in report.faults]

    def test_persistent_generation_fault_yields_clean_none(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        with FAULTS.inject("generator.generate", times=None):
            assert trained_pipeline.translate(example.question, db) is None
            result = trained_pipeline.translate_ranked_report(
                example.question, db
            )
        assert result.report.degraded

    def test_stage2_fault_falls_back_to_stage1_order(
        self, trained_pipeline, tiny_benchmark
    ):
        from repro.core.verify import VerifyConfig

        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        # Verify off: this test asserts the raw stage-1 ordering, which
        # the (orthogonal) verify stage is allowed to reshuffle.
        saved = trained_pipeline.config.verify
        trained_pipeline.config.verify = VerifyConfig(top_k=0)
        try:
            with FAULTS.inject("stage2.rank", times=1):
                result = trained_pipeline.translate_ranked_report(
                    example.question, db
                )
        finally:
            trained_pipeline.config.verify = saved
        scores = [r.stage1_score for r in result.translations]
        assert scores == sorted(scores, reverse=True)
        assert all(
            r.stage2_score == r.stage1_score for r in result.translations
        )
        assert "stage1-order" in result.report.fallbacks()

    def test_stage1_fault_falls_back_to_generation_order(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        with FAULTS.inject("stage1.rank", times=None):
            result = trained_pipeline.translate_ranked_report(
                example.question, db
            )
        assert result.translations
        assert "generation-order" in result.report.fallbacks()

    def test_ground_fault_skips_one_candidate_only(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        with FAULTS.inject("values.ground_values", times=1):
            result = trained_pipeline.translate_ranked_report(
                example.question, db
            )
        assert result.translations
        skipped = [r for r in result.report.faults if r.candidate is not None]
        assert len(skipped) == 1

    def test_executor_fault_recorded_by_execution_match(self, world_db):
        query = parse_sql("SELECT name FROM country")
        report = TranslationReport(question="probe")
        with FAULTS.inject("executor.execute", times=1):
            hit = execution_match(query, query, world_db, report=report)
        assert hit is False
        assert "executor.execute" in [r.site for r in report.faults]

    def test_executor_fault_surfaces_in_eval_report(
        self, trained_pipeline, tiny_benchmark
    ):
        from repro.eval.evaluate import evaluate_metasql

        with FAULTS.inject("executor.execute", times=1):
            result = evaluate_metasql(
                trained_pipeline, tiny_benchmark.dev, limit=2
            )
        assert len(result.records) == 2
        # With the verify stage enabled, the first execute() call happens
        # while verifying candidates, so the injected fault is absorbed
        # there (fail-open); with it disabled, the EX metric absorbs it.
        counts = result.fault_counts()
        assert counts.get("execute", 0) + counts.get("verify", 0) >= 1
        sites = [
            fault.site
            for record in result.records
            if record.report is not None
            for fault in record.report.faults
        ]
        assert "executor.execute" in sites
        assert 0.0 < result.degraded_rate <= 1.0


# ----------------------------------------------------------------------
# Lifecycle errors and configuration aliasing.


class TestPipelineState:
    def test_untrained_translate_raises_state_error(self, world_db):
        from repro.models.registry import create_model

        pipe = MetaSQL(create_model("lgesql"))
        with pytest.raises(PipelineStateError, match="not trained"):
            pipe.translate_ranked("anything", world_db)

    def test_untrained_candidates_raises_state_error(self, world_db):
        from repro.models.registry import create_model

        pipe = MetaSQL(create_model("lgesql"))
        with pytest.raises(PipelineStateError, match="not trained"):
            pipe.candidates("anything", world_db)

    def test_state_error_is_still_a_runtime_error(self, world_db):
        from repro.models.registry import create_model

        pipe = MetaSQL(create_model("lgesql"))
        with pytest.raises(RuntimeError):
            pipe.translate_ranked("anything", world_db)


class TestConfigAliasing:
    def test_table9_ablation_reaches_the_ranker(self):
        from repro.experiments.table9 import _CONFIGS
        from repro.models.registry import create_model

        ablated = MetaSQLConfig(**_CONFIGS["w/o phrase-level supervision"])
        pipe = MetaSQL(create_model("lgesql"), ablated)
        assert pipe.stage2.config.phrase_supervision is False
        assert Stage2Config().phrase_supervision is True
        assert MetaSQLConfig().stage2.phrase_supervision is True


# ----------------------------------------------------------------------
# Training-time fault isolation.


class TestTrainingIsolation:
    def test_training_survives_injected_example_faults(
        self, fitted_lgesql, tiny_benchmark
    ):
        config = MetaSQLConfig(
            ranker_train_questions=12,
            classifier=ClassifierConfig(epochs=4),
            stage1=Stage1Config(epochs=4),
            stage2=Stage2Config(epochs=3),
        )
        pipe = MetaSQL(fitted_lgesql, config)
        with FAULTS.inject("generator.generate", times=3):
            pipe.train(tiny_benchmark.train, fit_base_model=False)
        assert pipe._trained
        skipped = pipe.training_report.stage_faults("train")
        assert len(skipped) == 3
        # The degraded-trained pipeline still translates.
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        ranked = pipe.translate_ranked(example.question, db)
        assert isinstance(ranked, list) and ranked

    def test_failed_fits_degrade_instead_of_raising(
        self, fitted_lgesql, tiny_benchmark, monkeypatch
    ):
        from repro.core.classifier import MetadataClassifier
        from repro.core.rank_stage1 import DualTowerRanker
        from repro.core.rank_stage2 import MultiGrainedRanker

        def broken_fit(self, *args, **kwargs):
            raise RuntimeError("fit failed")

        for cls in (MetadataClassifier, DualTowerRanker, MultiGrainedRanker):
            monkeypatch.setattr(cls, "fit", broken_fit)
        config = MetaSQLConfig(
            ranker_train_questions=12,
            classifier=ClassifierConfig(epochs=4),
            stage1=Stage1Config(epochs=4),
            stage2=Stage2Config(epochs=3),
        )
        pipe = MetaSQL(fitted_lgesql, config)
        pipe.train(tiny_benchmark.train, fit_base_model=False)
        assert pipe._trained
        training = pipe.training_report
        expected = {
            "train.classify": "all-compositions",
            "train.stage1": "generation-order",
            "train.stage2": "stage1-order",
        }
        for stage, fallback in expected.items():
            records = training.stage_faults(stage)
            assert [r.fallback for r in records] == [fallback]
            assert records[0].error_type == "RuntimeError"

        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        out = pipe.translate_ranked_report(example.question, db)
        assert out.translations
        unavailable = {
            "classify": ("classifier", "all-compositions"),
            "stage1": ("stage-1 ranker", "generation-order"),
            "stage2": ("stage-2 ranker", "stage1-order"),
        }
        for stage, (component, fallback) in unavailable.items():
            records = out.report.stage_faults(stage)
            assert [(r.error, r.fallback) for r in records] == [
                (f"{component} unavailable (training failed)", fallback)
            ]
        # Stage 2 fell back to the generation-order pruning.
        assert len(out.translations) <= config.first_stage_top
        assert all(t.stage2_score == t.stage1_score for t in out.translations)


# ----------------------------------------------------------------------
# Execution budget guard.


class TestExecutionBudget:
    def test_rows_limit_trips_on_cartesian_product(self):
        # Two unrelated tables (no FK): bare join is a cartesian product.
        schema = Schema(
            db_id="cartesian",
            tables=(
                Table("lhs", (Column("a", NUMBER),)),
                Table("rhs", (Column("b", NUMBER),)),
            ),
        )
        db = Database(schema)
        db.insert_many("lhs", [{"a": i} for i in range(6)])
        db.insert_many("rhs", [{"b": i} for i in range(6)])
        budget = ExecutionBudget(max_steps=None, max_rows=10)
        query = parse_sql("SELECT a FROM lhs, rhs")
        with pytest.raises(ExecutionBudgetError):
            execute(query, db, budget=budget)

    def test_generous_budget_matches_unbudgeted_result(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE population > 100000 "
            "ORDER BY population DESC"
        )
        unbudgeted = execute(query, world_db)
        budgeted = execute(
            query, world_db, budget=ExecutionBudget(max_steps=100_000)
        )
        assert budgeted == unbudgeted

    def test_budget_is_scoped_to_the_call(self, world_db):
        query = parse_sql("SELECT name FROM country")
        with pytest.raises(ExecutionBudgetError):
            execute(query, world_db, budget=ExecutionBudget(max_steps=1))
        # The exhausted budget does not leak into the next call.
        assert execute(query, world_db)

    def test_subqueries_draw_from_the_same_budget(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE code IN "
            "(SELECT countrycode FROM countrylanguage)"
        )
        budget = ExecutionBudget(max_steps=100_000)
        execute(query, world_db, budget=budget)
        # The nested subquery executions charged the outer budget: more
        # steps than the outer row count alone.
        assert budget.steps > 10

    @settings(deadline=None, max_examples=40)
    @given(max_steps=st.integers(min_value=1, max_value=2000))
    def test_budget_guard_always_terminates(self, max_steps, world_db):
        """Any step budget either completes or raises — never hangs."""
        query = parse_sql(
            "SELECT name FROM country, countrylanguage "
            "WHERE population > 0 ORDER BY name"
        )
        budget = ExecutionBudget(max_steps=max_steps, max_rows=None)
        reference = execute(query, world_db)
        try:
            rows = execute(query, world_db, budget=budget)
        except ExecutionBudgetError:
            # Overshoot is bounded by the single largest batched charge.
            assert budget.steps <= max_steps + 200
        else:
            assert rows == reference
