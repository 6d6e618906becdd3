"""The decode's stage list against a decode that runs all seven stages.

``_Context.stages`` leaves out every stage that no sketch of the decode
uses.  Each decode of the tiny pipeline's dev questions, with no metadata
and with the gold metadata under each correctness indicator, is run beside
a twin of its context, at the same noise-stream point, that runs all seven
stages.  The final beams must be equal, scores by ``float.hex`` and states
by ``==``, and both streams must stand at the same point afterwards.
"""

from __future__ import annotations

from repro.core.metadata import extract_metadata
from repro.models import beam as beamlib
from tests.models.test_seq2seq_tables import _stream, _twin

ALL_STAGES = (
    "stage_tables",
    "stage_select",
    "stage_where",
    "stage_group",
    "stage_having",
    "stage_order",
    "stage_setop",
)


def _hexed(final):
    return [(float(beam.score).hex(), beam.state) for beam in final]


def test_skipped_stages_change_no_beam_and_no_draw(
    trained_pipeline, tiny_benchmark, monkeypatch
):
    model = trained_pipeline.generator.model
    assert model.metadata_trained
    run = beamlib.run
    stage_counts: list[int] = []
    kept: set[str] = set()
    mismatches: list = []

    def checked(initial, stages, width):
        context = stages[0].__self__  # the stages are the decode's methods
        twin = _twin(context)
        full = run(initial, [getattr(twin, name) for name in ALL_STAGES], width)
        final = run(initial, stages, width)
        stage_counts.append(len(stages))
        kept.update(stage.__name__ for stage in stages)
        if _hexed(final) != _hexed(full) or _stream(context) != _stream(twin):
            mismatches.append((context.question, [s.__name__ for s in stages]))
        return final

    monkeypatch.setattr(beamlib, "run", checked)
    dev = tiny_benchmark.dev
    for example in dev.examples:
        db = dev.database(example.db_id)
        gold = extract_metadata(example.sql)
        for metadata in [None] + [
            gold.with_correctness(indicator)
            for indicator in ("correct", "incorrect", "none")
        ]:
            model.translate(example.question, db, metadata)
    assert mismatches == []
    # Not vacuous: most decodes skip a stage, and every stage runs in some.
    assert len(stage_counts) >= 2 * len(dev.examples)
    assert sum(count < len(ALL_STAGES) for count in stage_counts) > len(stage_counts) // 2
    assert kept == set(ALL_STAGES)
