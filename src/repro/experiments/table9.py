"""Table 9: ablation study on SpiderSim-dev with LGESQL-sim.

Four configurations, each with the paper's miss-count accounting:

- the full pipeline;
- **w/o multi-label classifier** — candidates generated under *all*
  training-observed metadata compositions;
- **w/o phrase-level supervision** — the NL-to-phrase local loss and the
  phrase triplet loss removed from second-stage training;
- **w/o second-stage ranking** — final order is the first-stage cosine.

A *generation miss* counts a question whose candidate set lacks the gold
query; a *ranking miss* counts a question where the gold query was generated
but not ranked first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import MetaSQLConfig
from repro.core.rank_stage2 import Stage2Config
from repro.eval.report import format_table, pct
from repro.experiments.common import ExperimentContext
from repro.sqlkit.compare import exact_match

PAPER_ROWS = {
    "full": (185, 56, 77.4),
    "w/o multi-label classifier": (167, 159, 68.5),
    "w/o phrase-level supervision": (185, 87, 75.2),
    "w/o second-stage ranking": (185, 253, 57.7),
}


@dataclass
class Table9Result:
    """Ablation rows with the paper's miss-count accounting."""
    rows: dict[str, dict] = field(default_factory=dict)
    total: int = 0

    def render(self) -> str:
        headers = [
            "configuration", "generation miss", "ranking miss", "overall EM",
            "paper (gen/rank/EM)",
        ]
        body = []
        for name, row in self.rows.items():
            paper = PAPER_ROWS.get(name)
            body.append(
                [
                    name,
                    row["generation_miss"],
                    row["ranking_miss"],
                    pct(row["em"]),
                    "/".join(str(v) for v in paper) if paper else "-",
                ]
            )
        return format_table(
            headers,
            body,
            title=f"Table 9: ablation study (LGESQL, n={self.total})",
        )


_CONFIGS = {
    "full": {},
    "w/o multi-label classifier": {"use_classifier": False},
    "w/o phrase-level supervision": {
        "stage2": Stage2Config(phrase_supervision=False)
    },
    "w/o second-stage ranking": {"use_stage2": False},
}


def run(
    ctx: ExperimentContext,
    model: str = "lgesql",
    limit: int | None = None,
) -> Table9Result:
    """Run the Table 9 ablations around the named base model."""
    result = Table9Result()
    dev = ctx.benchmark.dev
    examples = dev.examples[:limit] if limit else dev.examples
    result.total = len(examples)
    for label, overrides in _CONFIGS.items():
        config = MetaSQLConfig(**overrides)
        pipe = ctx.pipeline(model, config=config, key=label)
        generation_miss = 0
        ranking_miss = 0
        correct = 0
        for example in examples:
            db = dev.database(example.db_id)
            ranked = pipe.translate_ranked(example.question, db)
            in_list = any(exact_match(r.query, example.sql) for r in ranked)
            top = bool(ranked) and exact_match(ranked[0].query, example.sql)
            if not in_list:
                generation_miss += 1
            elif not top:
                ranking_miss += 1
            else:
                correct += 1
        result.rows[label] = {
            "generation_miss": generation_miss,
            "ranking_miss": ranking_miss,
            "em": correct / max(len(examples), 1),
        }
    return result
