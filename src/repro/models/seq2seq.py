"""GrammarSeq2Seq: the simulated Seq2seq NL2SQL translation model.

A sketch-then-fill semantic parser with genuinely auto-regressive decoding:
a learned sketch classifier proposes clause structures, then beam search
fills tables, columns, predicates and values left-to-right, scored by the
learned lexicon plus per-question deterministic decision noise.  Four
presets (:mod:`repro.models.registry`) mirror BRIDGE/GAP/LGESQL/RESDSQL
capability profiles.

Metadata conditioning (Section III-B2): when the model was trained with
metadata prefixes (``metadata_trained``), a supplied
:class:`~repro.core.metadata.QueryMetadata` constrains the sketch stage —
operator tags select compatible structures, the hardness value biases the
structural size, and the correctness indicator modulates decode fidelity.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.data.dataset import Dataset
from repro.models import beam as beamlib
from repro.models.base import Candidate, TranslationModel
from repro.models.cues import CueEvidence
from repro.models.lexicon import Lexicon
from repro.models.question_context import QuestionContext, _Column
from repro.models.sketch import Sketch, SketchModel
from repro.schema.database import Database
from repro.schema.schema import NUMBER, TEXT, Schema
from repro.sqlkit.ast import (
    AggExpr,
    ColumnRef,
    Condition,
    FromClause,
    JoinCond,
    OrderItem,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
)
from repro.sqlkit.printer import to_sql

#: Operator tags a metadata filter may relax when no sketch matches exactly.
_SOFT_TAGS = frozenset({"agg", "limit", "having"})

#: ``COUNT(*)``; the AST is immutable, so every decode shares it.
_COUNT_STAR = AggExpr(func="count", arg=Star())

#: Sort key of ``(score, ...)`` choices.  ``sort(key=_by_score,
#: reverse=True)`` is stable, so equal scores keep their order, as they do
#: under ``key=lambda item: -item[0]``.
_by_score = itemgetter(0)


@dataclass(frozen=True)
class ModelProfile:
    """Capability knobs distinguishing the simulated baselines."""

    name: str
    temperature: float = 0.7  # scale of per-decision Gumbel noise
    sketch_top: int = 4  # how many sketch structures enter the beam
    column_noise: float = 0.4  # extra noise on column-choice scores
    value_skill: float = 1.0  # weight on value-evidence in predicate scores
    predicts_values: bool = True
    seed: int = 0


class _State(NamedTuple):
    """Partial decode state for one sketch.

    A stage offers each choice as ``(score, state, changes)``;
    :mod:`repro.models.beam` builds ``state._replace(**changes)`` only for
    the choices that survive the step.
    """

    sketch: Sketch
    tables: tuple[str, ...] = ()
    joins: tuple[JoinCond, ...] = ()
    select: tuple = ()
    where_predicates: tuple[Predicate, ...] = ()
    connectors: tuple[str, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    having: Condition | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    setop_right: Query | None = None
    from_inner: Query | None = None


#: Approximate hardness rating implied by a sketch's structure, computed
#: once per sketch (:meth:`Sketch.estimated_rating`).
estimate_rating = Sketch.estimated_rating


class GrammarSeq2Seq(TranslationModel):
    """Sketch-then-fill grammar parser with beam-search decoding."""

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.name = profile.name
        self.predicts_values = profile.predicts_values
        self.metadata_trained = False
        self.lexicon = Lexicon()
        self.sketch_model = SketchModel()
        self._fitted = False

    # ------------------------------------------------------------------
    # Training.

    def fit(self, train: Dataset, with_metadata: bool = False) -> "GrammarSeq2Seq":
        """Learn lexicon + sketch statistics; optionally metadata-augmented.

        ``with_metadata=True`` corresponds to the paper's augmented training
        (metadata prefixes + negative samples): the model then honours
        metadata conditions at decode time.
        """
        self.lexicon = Lexicon().fit(train)
        self.sketch_model = SketchModel().fit(train)
        self.metadata_trained = with_metadata
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Decoding entry point.

    def prepare(
        self, question: str, db: Database, cues: CueEvidence | None = None
    ) -> "QuestionContext":
        """The decode work shared by every conditioning of *question*.

        *cues* is the question's cue evidence when the caller already
        extracted it; otherwise it is extracted here.
        """
        if not self._fitted:
            raise RuntimeError(f"model {self.name} is not fitted")
        if cues is None:
            from repro.models.cues import extract_cues

            cues = extract_cues(question, db)
        return QuestionContext(
            self, question, db, cues, self._question_sketches(question, cues)
        )

    def translate(
        self,
        question: str,
        db: Database,
        metadata=None,
        beam_size: int = 5,
        prepared: "QuestionContext | None" = None,
    ) -> list[Candidate]:
        """Decode up to *beam_size* candidates via staged beam search."""
        if not self._fitted:
            raise RuntimeError(f"model {self.name} is not fitted")
        if prepared is None:
            prepared = self.prepare(question, db)
        elif prepared.question != question or prepared.db is not db:
            raise ValueError("prepared context belongs to another question or db")
        if not self.metadata_trained:
            # Models not trained with metadata prefixes ignore the condition
            # entirely (Section III-B1).
            metadata = None
        rng = self._decode_rng(question, metadata)
        noise_scale = self.profile.temperature
        if metadata is not None and self.metadata_trained:
            indicator = getattr(metadata, "correctness", "correct")
            if indicator == "incorrect":
                # Trained to avoid the gold parse under the incorrect tag:
                # decoding becomes adversarially noisy.
                noise_scale = noise_scale * 3.0 + 1.5
            elif indicator is None or indicator == "none":
                noise_scale = noise_scale * 1.4 + 0.2

        sketches = self._candidate_sketches(prepared, metadata)
        if not sketches:
            return []

        context = _Context(prepared, rng=rng, noise=noise_scale)
        initial = [
            beamlib.Beam(score=score, state=_State(sketch=sk))
            for score, sk in sketches
        ]
        width = max(beam_size * 3, 8)
        final = beamlib.run(
            initial, context.stages([sk for __, sk in sketches]), width
        )

        candidates: list[Candidate] = []
        seen: set[str] = set()
        for item in final:
            query = context.finalize(item.state)
            if query is None:
                continue
            key = to_sql(query)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(Candidate(query=query, score=item.score))
            if len(candidates) >= beam_size:
                break
        return candidates

    # ------------------------------------------------------------------
    # Sketch stage.

    def _question_sketches(
        self, question: str, cues
    ) -> list[tuple[float, Sketch]]:
        """Every sketch scored for *question*, best first, before metadata."""
        return self.sketch_model.score_sketches(question, cues=cues)

    def _candidate_sketches(
        self, prepared: "QuestionContext", metadata
    ) -> list[tuple[float, Sketch]]:
        """The question's sketches filtered and re-weighted by *metadata*."""
        question = prepared.question
        scored = prepared.sketches
        if metadata is not None and self.metadata_trained:
            tags = frozenset(getattr(metadata, "tags", frozenset()))
            if tags:
                matching = prepared.sketches_tagged(tags)
                if not matching:
                    # Relax to supersets/subsets differing by soft tags only.
                    matching = prepared.sketches_tagged(tags, ignore=_SOFT_TAGS)
                if matching:
                    scored = matching
            rating = getattr(metadata, "rating", None)
            if rating is not None:
                scored = [
                    (score - abs(estimate_rating(sk) - rating) / 200.0, sk)
                    for score, sk in scored
                ]
                scored.sort(key=lambda item: -item[0])
            scored = self._apply_correctness(question, metadata, scored)
        return list(scored[: self.profile.sketch_top])

    def _apply_correctness(self, question, metadata, scored):
        """Honour the correctness indicator at the sketch stage.

        Trained with ``incorrect``-tagged negative samples, the model has
        learned to associate that indicator with structures that do *not*
        fit the question: conditioning on it inverts the sketch preference.
        A missing indicator (never seen during augmented training) leaves
        the model partially uncalibrated: sketch scores get jittered.
        """
        indicator = getattr(metadata, "correctness", "correct")
        if indicator == "incorrect":
            flipped = [(-score, sketch) for score, sketch in scored]
            flipped.sort(key=lambda item: -item[0])
            return flipped
        if indicator is None or indicator == "none":
            rng = self._decode_rng(question, metadata)
            jittered = [
                (score + float(rng.normal(0.0, 2.5)), sketch)
                for score, sketch in scored
            ]
            jittered.sort(key=lambda item: -item[0])
            return jittered
        return scored

    def _decode_rng(self, question: str, metadata) -> np.random.Generator:
        meta_part = "" if metadata is None else repr(metadata)
        digest = zlib.crc32(
            f"{self.profile.seed}:{self.name}:{question}:{meta_part}".encode()
        )
        return np.random.default_rng(digest)


#: Gumbel draws made per ``rng.random`` call; a decode makes about 100.
_NOISE_BLOCK = 64


class _Context:
    """One decode of a prepared question: noise, stages and finalisation."""

    def __init__(
        self,
        prepared: QuestionContext,
        rng: np.random.Generator,
        noise: float,
    ) -> None:
        self.prepared = prepared
        self.profile = prepared.model.profile
        self.question = prepared.question
        self.schema: Schema = prepared.db.schema
        self.rng = rng
        self.noise = noise
        self.mentions = prepared.mentions
        self._group_pos = prepared.group_pos
        self._order_pos = prepared.order_pos
        self._raw: list[float] = []
        self._noisy: list[float] = []
        self._drawn = 0

    def stages(self, sketches: list[Sketch]) -> list[beamlib.Stage]:
        """The stages, in decode order, that some of *sketches* can use.

        Every stage returns ``[]``, before any draw, for a state whose
        sketch does not use it, and a step in which no state has a choice
        leaves the beam as it was: a stage no sketch uses changes no score
        and no draw, so it is left out.
        """
        stages = [self.stage_tables, self.stage_select]
        if any(sk.n_predicates or sk.shape.startswith("nested:") for sk in sketches):
            stages.append(self.stage_where)
        if any(sk.has_group for sk in sketches):
            stages.append(self.stage_group)
        if any(sk.has_having for sk in sketches):
            stages.append(self.stage_having)
        if any(sk.order != "none" for sk in sketches):
            stages.append(self.stage_order)
        if any(
            sk.shape == "from_subquery" or sk.shape.startswith("setop:")
            for sk in sketches
        ):
            stages.append(self.stage_setop)
        return stages

    # -- noise ---------------------------------------------------------

    def _draw(self) -> int:
        """Index of the next raw double, drawing a new block when spent.

        ``rng.random(n)`` yields the doubles that *n* scalar draws would,
        so every decision sees the value it always did.  ``uniform(lo,
        hi)`` is ``lo + (hi - lo) * raw``; the standard Gumbel transform is
        applied to the whole block with ``np.log``, which matches the
        scalar calls bit for bit (``math.log`` does not).  The block is
        kept multiplied by the decode's ``noise``: Python evaluates ``std *
        noise * scale`` as ``(std * noise) * scale``, so a draw times
        ``scale`` keeps its bits.
        """
        if self._drawn == len(self._raw):
            self._refill()
        index = self._drawn
        self._drawn += 1
        return index

    def _refill(self) -> None:
        raw = self.rng.random(_NOISE_BLOCK)
        u = 1e-9 + ((1.0 - 1e-9) - 1e-9) * raw
        self._raw = raw.tolist()
        self._noisy = (-np.log(-np.log(u)) * self.noise).tolist()
        self._drawn = 0

    def _skip(self, n: int) -> None:
        """Advance the stream exactly as *n* calls to :meth:`_draw` would."""
        while n > 0:
            if self._drawn == len(self._raw):
                self._refill()
            step = min(n, len(self._raw) - self._drawn)
            self._drawn += step
            n -= step

    def _gumbel(self, scale: float = 1.0) -> float:
        index = self._draw()  # may replace the block: index it afterwards
        return self._noisy[index] * scale

    def _gumbels(self, n: int, scale: float = 1.0) -> list[float]:
        """The next *n* draws, as *n* calls to :meth:`_gumbel` return them:
        sliced from the block, refilled only when a draw needs it."""
        out: list[float] = []
        while n > 0:
            if self._drawn == len(self._raw):
                self._refill()
            start = self._drawn
            stop = min(start + n, len(self._noisy))
            out.extend([noisy * scale for noisy in self._noisy[start:stop]])
            self._drawn = stop
            n -= stop - start
        return out

    def _random(self) -> float:
        """The next uniform double in ``[0, 1)``, from the same stream."""
        index = self._draw()
        return self._raw[index]

    # -- element scores --------------------------------------------------

    def _table_score(self, table_name: str) -> float:
        return self.prepared.table_score(table_name) + self._gumbel(0.6)

    def _ranked_columns(
        self, tables: tuple[str, ...], ctype: str | None = None
    ) -> list[tuple[float, _Column]]:
        """``(noisy score, column)`` best first: one draw per column."""
        columns = self.prepared.columns(tables, ctype)
        noise = self._gumbels(len(columns), self.profile.column_noise)
        scored = [
            (column.score + g, column) for column, g in zip(columns, noise)
        ]
        scored.sort(key=_by_score, reverse=True)
        return scored

    # -- stage 1: tables -------------------------------------------------

    def stage_tables(self, state: _State):
        """Stage 1: choose the FROM tables (single, FK pair, or chain)."""
        sketch = state.sketch
        choices = []
        if sketch.n_tables <= 1:
            tables = self.prepared.single_tables()
            noise = self._gumbels(len(tables), 0.6)
            scored = sorted(
                [(base + g, name) for (base, name), g in zip(tables, noise)],
                key=_by_score,
                reverse=True,
            )
            for score, name in scored[:3]:
                choices.append((score, state, {"tables": (name,)}))
            return beamlib.LogNormalized(choices)
        # Join: FK-linked pairs, or FK chains of three tables.
        chain = sketch.n_tables >= 3
        options = self.prepared.join_options(chain)
        noise = iter(self._gumbels(sum(len(o.bases) for o in options), 0.6))
        scored = []
        for bases, tables, joins in options:
            if chain:
                score = sum([base + next(noise) for base in bases])
            else:
                score = (bases[0] + next(noise)) + (bases[1] + next(noise))
            scored.append((score, tables, joins))
        scored.sort(key=_by_score, reverse=True)
        for score, tables, joins in scored[:4]:
            choices.append((score, state, {"tables": tables, "joins": joins}))
        return beamlib.LogNormalized(choices)

    # -- stage 2: select ---------------------------------------------------

    def stage_select(self, state: _State):
        """Stage 2: fill the SELECT slots dictated by the sketch."""
        sketch = state.sketch
        prepared = self.prepared
        slots: list[str] = []
        if sketch.count_star:
            slots.append("count_star")
        if sketch.has_arith:
            slots.append("arith")
        slots.extend(f"agg:{func}" for func in sketch.select_aggs)
        n_cols = max(sketch.n_select - len(slots), 0)
        slots.extend("col" for _ in range(n_cols))
        ranked_all = self._ranked_columns(state.tables)
        if sketch.has_arith or sketch.select_aggs:
            ranked_num = self._ranked_columns(state.tables, NUMBER)
        else:
            # No slot reads the NUMBER pool: spend its draws unranked.
            self._skip(len(prepared.columns(state.tables, NUMBER)))
            ranked_num = []
        # A projected column's score is the same in every combo: add its
        # bonuses once.  A col slot skips at most the earlier col slots'
        # columns, so it never reads past the first ``n_cols + 2``.
        col_pool = [
            (score + column.region + column.penalty, column.key, column.ref)
            for score, column in ranked_all[: n_cols + 2]
        ]
        # Each combo carries the keys of its projected columns.
        combos: list[tuple[float, tuple, tuple[str, ...]]] = [(0.0, (), ())]
        for slot in slots:
            expanded: list[tuple[float, tuple, tuple[str, ...]]] = []
            append = expanded.append
            if slot == "col":
                for combo_score, items, used in combos:
                    picked = 0
                    for score, key, ref in col_pool:
                        if key in used:
                            continue
                        append(
                            (combo_score + score, items + (ref,), used + (key,))
                        )
                        picked += 1
                        if picked >= 3:
                            break
                    if picked == 0:
                        append((combo_score - 2.0, items, used))
            elif slot == "count_star":
                for combo_score, items, used in combos:
                    append((combo_score, items + (_COUNT_STAR,), used))
            else:
                if slot == "arith":
                    picks = [
                        (score, prepared.spread_expr(column))
                        for score, column in ranked_num[:3]
                    ]
                else:
                    func = slot.split(":", 1)[1]
                    picks = [
                        (
                            score + column.region + column.penalty,
                            prepared.agg_expr(func, column),
                        )
                        for score, column in ranked_num[:3]
                    ]
                for combo_score, items, used in combos:
                    for score, expr in picks:
                        append((combo_score + score, items + (expr,), used))
                    if not picks:
                        append((combo_score - 2.0, items, used))
            expanded.sort(key=_by_score, reverse=True)
            combos = expanded[:6]
        choices = []
        for score, items, __ in combos:
            if not items:
                continue
            choices.append((score, state, {"select": items}))
        return beamlib.LogNormalized(choices)

    # -- predicates --------------------------------------------------------

    def _predicate_candidates(
        self, tables: tuple[str, ...], kinds: tuple[str, ...]
    ) -> list[tuple[float, Predicate, tuple[str, str]]]:
        """Grounded ``(score, predicate, (key, op) slot)`` candidates over
        in-scope columns, best first."""
        candidates: list[tuple[float, Predicate, tuple[str, str]]] = []
        kind_pool = kinds if kinds else ("eq", "cmp")
        # Iterated as a set, so the draw order follows the hash seed
        # (ROADMAP item 1).  It stays a set until the answers pinned in
        # ``benchmarks/e2e/expected.json`` at hash seed 0 are re-pinned.
        for kind in set(kind_pool):
            if kind in ("eq", "neq", "like"):
                candidates.extend(self._text_predicates(tables, kind))
            elif kind in ("cmp", "between"):
                candidates.extend(self._number_predicates(tables, kind))
        candidates.sort(key=_by_score, reverse=True)
        return candidates

    def _text_predicates(self, tables, kind):
        found = []
        for score, column in self._ranked_columns(tables, TEXT)[:5]:
            entry = self.prepared.text_predicate(column, kind)
            if entry is not None:
                found.append((score, entry))
        noise = self._gumbels(len(found), 0.5)
        return [
            (score + evidence + g, predicate, slot)
            for (score, (predicate, evidence, slot)), g in zip(found, noise)
        ]

    def _number_predicates(self, tables, kind):
        prepared = self.prepared
        out = []
        ranked = self._ranked_columns(tables, NUMBER)[:5]
        if kind == "between":
            index = prepared.between_index
            if index is None:
                return out
            noise = self._gumbels(len(ranked), 0.5)
            for (score, column), g in zip(ranked, noise):
                affinity, predicate, slot = prepared.number_predicate(
                    column, index, "between"
                )
                out.append((score + affinity + 1.0 + g, predicate, slot))
            return out
        for index in prepared.cmp_indices:
            op = prepared.mentions[index].op
            if op == "=":
                # Numeric equality is rare; treat as a weak comparison guess.
                op = ">" if self._random() < 0.5 else "<"
            rows = [
                prepared.number_predicate(column, index, op)
                for __, column in ranked
            ]
            best_affinity = max((row[0] for row in rows), default=0.0)
            noise = self._gumbels(len(rows), 0.5)
            for (score, __), (affinity, predicate, slot), g in zip(
                ranked, rows, noise
            ):
                # The column mentioned closest to the number is almost
                # always the compared one; reward it ordinally.
                nearest = 3.0 if affinity == best_affinity and affinity > 0 else 0.0
                out.append(
                    (score + affinity + nearest + 0.8 + g, predicate, slot)
                )
        return out

    # -- stage 3: where (plain predicates + nested subqueries) -----------

    def stage_where(self, state: _State):
        """Stage 3: fill WHERE predicates or construct the nested subquery."""
        sketch = state.sketch
        if sketch.shape.startswith("nested:"):
            return self._stage_nested(state)
        if sketch.n_predicates == 0:
            return []
        kinds = sketch.predicate_kinds
        pool = self._predicate_candidates(state.tables, kinds)
        if not pool:
            return [(-3.0, state, {})]
        # Each combo carries the ``(key, op)`` slots of its predicates.
        combos: list[tuple[float, tuple[Predicate, ...], tuple]] = [
            (0.0, (), ())
        ]
        for __ in range(sketch.n_predicates):
            expanded = []
            append = expanded.append
            for combo_score, preds, used in combos:
                picked = 0
                for score, predicate, slot in pool:
                    if slot in used:
                        continue
                    append(
                        (combo_score + score, preds + (predicate,), used + (slot,))
                    )
                    picked += 1
                    if picked >= 3:
                        break
                if picked == 0:
                    append((combo_score, preds, used))
            expanded.sort(key=_by_score, reverse=True)
            combos = expanded[:5]
        connector = "or" if sketch.has_or else "and"
        choices = []
        for score, preds, __ in combos:
            if not preds:
                continue
            connectors = tuple(connector for __ in range(len(preds) - 1))
            choices.append(
                (
                    score,
                    state,
                    {"where_predicates": preds, "connectors": connectors},
                )
            )
        return beamlib.LogNormalized(choices)

    def _stage_nested(self, state: _State):
        sketch = state.sketch
        table = state.tables[0] if state.tables else None
        if table is None:
            return []
        if sketch.shape == "nested:scalar":
            anchor = self.prepared.find_marker(("average", "mean", "total"))
            choices = []
            for score, column in self._ranked_columns(state.tables, NUMBER)[:3]:
                ref = column.ref
                score = score + self.prepared.near_bonus(ref, anchor, weight=3.0)
                inner = SelectQuery(
                    select=(AggExpr(func="avg", arg=ref),),
                    from_=FromClause(tables=(ref.table,)),
                )
                direction_up = any(
                    w in self.question.lower() for w in ("above", "more", "greater", "over")
                )
                op = ">" if direction_up else "<"
                predicate = Predicate(left=ref, op=op, right=inner)
                choices.append(
                    (score, state, {"where_predicates": (predicate,)})
                )
            return beamlib.LogNormalized(choices)
        # nested:in / nested:not_in over a foreign key.
        negated = sketch.shape == "nested:not_in"
        choices = []
        for fk in self.schema.foreign_keys:
            if fk.parent_table.lower() != table:
                continue
            child = fk.child_table.lower()
            link_score = self._table_score(child)
            inner_select = ColumnRef(
                column=fk.child_column.lower(), table=child
            )
            inner_pool = self._predicate_candidates((child,), ("eq", "cmp"))
            inner_options: list[tuple[float, Condition | None]] = [(0.0, None)]
            for score, predicate, __ in inner_pool[:2]:
                inner_options.append(
                    (score, Condition(predicates=(predicate,)))
                )
            for extra, inner_where in inner_options:
                inner = SelectQuery(
                    select=(inner_select,),
                    from_=FromClause(tables=(child,)),
                    where=inner_where,
                )
                predicate = Predicate(
                    left=ColumnRef(
                        column=fk.parent_column.lower(), table=table
                    ),
                    op="in",
                    right=inner,
                    negated=negated,
                )
                choices.append(
                    (
                        link_score + extra + self._gumbel(0.5),
                        state,
                        {"where_predicates": (predicate,)},
                    )
                )
        choices.sort(key=_by_score, reverse=True)
        return beamlib.LogNormalized(choices[:4])

    # -- stage 4/5: group + having ----------------------------------------

    def stage_group(self, state: _State):
        """Stage 4: choose the GROUP BY column."""
        if not state.sketch.has_group:
            return []
        choices = []
        for score, column in self._ranked_columns(state.tables, TEXT)[:3]:
            ref = column.ref
            score = score + self.prepared.near_bonus(ref, self._group_pos)
            choices.append((score, state, {"group_by": (ref,)}))
        if not choices:
            for score, column in self._ranked_columns(state.tables)[:2]:
                choices.append((score, state, {"group_by": (column.ref,)}))
        return beamlib.LogNormalized(choices)

    def _count_threshold(self) -> tuple[int, str]:
        """HAVING-count threshold and operator from the question."""
        for mention in self.mentions:
            if mention.is_count_threshold:
                op = ">=" if mention.op == ">=" else ">"
                return int(mention.value), op
        if self.mentions:
            mention = self.mentions[0]
            return int(mention.value), ">=" if mention.op == ">=" else ">"
        return 1, ">"

    def stage_having(self, state: _State):
        """Stage 5: build the HAVING count threshold."""
        if not state.sketch.has_having:
            return []
        threshold, op = self._count_threshold()
        having = Condition(
            predicates=(
                Predicate(
                    left=_COUNT_STAR,
                    op=op,
                    right=self.prepared.literal(threshold),
                ),
            )
        )
        return [(0.0, state, {"having": having})]

    # -- stage 6: order + limit ------------------------------------------

    def stage_order(self, state: _State):
        """Stage 6: choose the ORDER BY key, direction and LIMIT."""
        sketch = state.sketch
        if sketch.order == "none":
            return []
        desc = sketch.order == "desc"
        limit = None
        if sketch.limit == "one":
            limit = 1
        elif sketch.limit == "k":
            limits = [m for m in self.mentions if m.is_limit]
            if limits:
                limit = int(limits[0].value)
            else:
                ints = [
                    int(m.value)
                    for m in self.mentions
                    if float(m.value).is_integer()
                ]
                limit = ints[0] if ints else 3
        choices = []
        if sketch.order_on_agg:
            expr = _COUNT_STAR
            for existing in state.select:
                if isinstance(existing, AggExpr):
                    expr = existing
                    break
            choices.append(
                (
                    0.5,
                    state,
                    {
                        "order_by": (OrderItem(expr=expr, desc=desc),),
                        "limit": limit,
                    },
                )
            )
            return choices
        for score, column in self._ranked_columns(state.tables, NUMBER)[:3]:
            ref = column.ref
            score = (
                score
                + self.prepared.near_bonus(ref, self._order_pos)
                + column.penalty
            )
            choices.append(
                (
                    score,
                    state,
                    {
                        "order_by": (OrderItem(expr=ref, desc=desc),),
                        "limit": limit,
                    },
                )
            )
        return beamlib.LogNormalized(choices)

    # -- stage 7: set-operation right branch / FROM subquery ---------------

    def stage_setop(self, state: _State):
        """Stage 7: build the set-operation right branch or FROM subquery."""
        sketch = state.sketch
        if sketch.shape == "from_subquery":
            return self._stage_from_subquery(state)
        if not sketch.shape.startswith("setop:"):
            return []
        if not state.select or not state.tables:
            return []
        ref = None
        for expr in state.select:
            if isinstance(expr, ColumnRef):
                ref = expr
                break
        if ref is None:
            return []
        pool = self._predicate_candidates(state.tables, ("eq", "neq", "cmp"))
        choices = []
        for score, predicate, __ in pool[:3]:
            right = SelectQuery(
                select=(ref,),
                from_=FromClause(tables=state.tables, joins=state.joins),
                where=Condition(predicates=(predicate,)),
            )
            choices.append((score, state, {"setop_right": right}))
        return beamlib.LogNormalized(choices)

    def _stage_from_subquery(self, state: _State):
        choices = []
        threshold, __ = self._count_threshold()
        for score, column in self._ranked_columns(state.tables, TEXT)[:3]:
            ref = column.ref
            inner = SelectQuery(
                select=(ref,),
                from_=FromClause(tables=(ref.table,)),
                group_by=(ref,),
                having=Condition(
                    predicates=(
                        Predicate(
                            left=_COUNT_STAR,
                            op=">",
                            right=self.prepared.literal(threshold),
                        ),
                    )
                ),
            )
            choices.append((score, state, {"from_inner": inner}))
        return beamlib.LogNormalized(choices)

    # -- finalisation -------------------------------------------------------

    def finalize(self, state: _State) -> Query | None:
        """Assemble the completed decode state into a Query (or None)."""
        sketch = state.sketch
        if not state.select:
            return None
        if sketch.shape == "from_subquery":
            if state.from_inner is None:
                return None
            return SelectQuery(
                select=(_COUNT_STAR,),
                from_=FromClause(subquery=state.from_inner),
            )
        if not state.tables:
            return None
        where = None
        if state.where_predicates:
            where = Condition(
                predicates=state.where_predicates, connectors=state.connectors
            )
        select = state.select
        if sketch.distinct and not any(
            isinstance(e, AggExpr) for e in select
        ):
            distinct = True
        else:
            distinct = sketch.distinct
        main = SelectQuery(
            select=select,
            from_=FromClause(tables=state.tables, joins=state.joins),
            distinct=distinct,
            where=where,
            group_by=state.group_by,
            having=state.having,
            order_by=state.order_by,
            limit=state.limit,
        )
        if sketch.shape.startswith("setop:"):
            if state.setop_right is None:
                return None
            op = sketch.shape.split(":", 1)[1]
            left = replace(main, where=None) if op == "except" and where is None else main
            return SetQuery(op=op, left=left, right=state.setop_right)
        return main
