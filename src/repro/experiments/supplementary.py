"""Supplementary ablations beyond the paper's Table 9.

Two design choices DESIGN.md calls out get their own ablations:

- **value grounding** — the pipeline fills ``'value'`` placeholders before
  ranking; the paper credits this for LGESQL's EX jump (Table 4 footnote).
  We measure EX with grounding on vs off.
- **composition budget** — how many metadata compositions to condition on
  (the paper fixes the pipeline's candidate budget implicitly; we sweep it).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.core.generation import CandidateGenerator, GeneratorConfig
from repro.core.pipeline import MetaSQL
from repro.eval.evaluate import evaluate_metasql
from repro.eval.report import format_table, pct
from repro.experiments.common import ExperimentContext


@dataclass
class SupplementaryResult:
    """Value-grounding and composition-budget ablation results."""
    grounding: dict[str, dict] = field(default_factory=dict)
    budget: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        sections = [
            format_table(
                ["value grounding", "EM", "EX"],
                [
                    [label, pct(row["em"]), pct(row["ex"])]
                    for label, row in self.grounding.items()
                ],
                title="Supplementary A: value grounding ablation (LGESQL)",
            ),
            format_table(
                ["max compositions", "EM"],
                [[k, pct(v)] for k, v in self.budget.items()],
                title="Supplementary B: metadata composition budget (LGESQL)",
            ),
        ]
        return "\n\n".join(sections)


def _clone_with_generator(pipeline: MetaSQL, generator_config) -> MetaSQL:
    """A view of *pipeline* with a different candidate generator."""
    clone = copy.copy(pipeline)
    clone.generator = CandidateGenerator(pipeline.model, generator_config)
    return clone


def run(
    ctx: ExperimentContext,
    model: str = "lgesql",
    limit: int | None = 200,
) -> SupplementaryResult:
    """Run the supplementary design-choice ablations."""
    result = SupplementaryResult()
    pipeline = ctx.pipeline(model)
    dev = ctx.benchmark.dev

    for label, grounding in (("on", True), ("off", False)):
        config = GeneratorConfig(ground_placeholder_values=grounding)
        view = _clone_with_generator(pipeline, config)
        evaluation = evaluate_metasql(view, dev, limit=limit)
        result.grounding[label] = {
            "em": evaluation.em,
            "ex": evaluation.ex,
        }

    for budget in (1, 2, 4, 8):
        config = GeneratorConfig(
            max_candidates=max(budget * 2 + 3, 5),
        )
        view = _clone_with_generator(pipeline, config)
        original = view.composer.config.max_compositions
        view.composer.config.max_compositions = budget
        evaluation = evaluate_metasql(
            view, dev, compute_execution=False, limit=limit
        )
        view.composer.config.max_compositions = original
        result.budget[budget] = evaluation.em
    return result
