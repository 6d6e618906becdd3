"""The per-state decode stages that the per-request tables replace.

``stage_select``, ``predicate_candidates``, ``text_predicates`` and
``number_predicates`` recompute on every call what
:class:`~repro.models.question_context.QuestionContext` now keeps per request:
the noise-free column list, each projected column's region bonus and key
penalty, each text predicate with its value evidence and each number
predicate with its proximity.  They draw noise one value at a time through
the context's ``_gumbel``, ``_random`` and ``_skip``, and sort by
``-score``.  Each takes a ``_Context`` as its first argument, so a test can
run it on a twin of the decode's context and compare the choices.  Like
the model, they build the question's literals, or the ``'value'``
placeholder for a model without ``predicts_values``.

``replace_literals`` is the whole-query rewrite that the placeholder
models once applied to every finished decode; those models now build the
placeholder where each literal is made.
"""

from __future__ import annotations

from dataclasses import replace

from repro.schema.schema import NUMBER, TEXT
from repro.sqlkit.ast import (
    PLACEHOLDER,
    AggExpr,
    Arith,
    ColumnRef,
    Condition,
    FromClause,
    Literal,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
)


def literal(ctx, value):
    """*value* as the decode's model writes it."""
    return Literal(value if ctx.profile.predicts_values else PLACEHOLDER)


def columns(ctx, tables, ctype=None):
    """``(base score, ColumnRef)`` of every column of *tables*, schema order."""
    prepared = ctx.prepared
    out = []
    for table_name in tables:
        for column in ctx.schema.table(table_name).columns:
            if ctype is not None and column.ctype != ctype:
                continue
            out.append(
                (
                    prepared.column_score(table_name, column.name),
                    ColumnRef(column=column.name.lower(), table=table_name.lower()),
                )
            )
    return out


def ranked_columns(ctx, tables, ctype=None):
    scale = ctx.profile.column_noise
    scored = [
        (base + ctx._gumbel(scale), ref) for base, ref in columns(ctx, tables, ctype)
    ]
    scored.sort(key=lambda item: -item[0])
    return scored


def select_bonus(ctx, ref):
    prepared = ctx.prepared
    return (
        prepared.region_bonus(ref, 0, prepared.proj_end),
        prepared.key_penalty(ref),
    )


def stage_select(ctx, state):
    sketch = state.sketch
    slots: list[str] = []
    if sketch.count_star:
        slots.append("count_star")
    if sketch.has_arith:
        slots.append("arith")
    slots.extend(f"agg:{func}" for func in sketch.select_aggs)
    remaining = sketch.n_select - len(slots)
    slots.extend("col" for _ in range(max(remaining, 0)))
    ranked_all = ranked_columns(ctx, state.tables)
    if sketch.has_arith or sketch.select_aggs:
        ranked_num = ranked_columns(ctx, state.tables, NUMBER)
    else:
        ctx._skip(len(columns(ctx, state.tables, NUMBER)))
        ranked_num = []
    combos: list[tuple[float, tuple]] = [(0.0, ())]
    for slot in slots:
        expanded: list[tuple[float, tuple]] = []
        for combo_score, items in combos:
            if slot == "count_star":
                expanded.append(
                    (combo_score, items + (AggExpr(func="count", arg=Star()),))
                )
                continue
            if slot == "arith":
                picked = 0
                for score, ref in ranked_num:
                    expr = Arith(
                        op="-",
                        left=AggExpr(func="max", arg=ref),
                        right=AggExpr(func="min", arg=ref),
                    )
                    expanded.append((combo_score + score, items + (expr,)))
                    picked += 1
                    if picked >= 3:
                        break
                if picked == 0:
                    expanded.append((combo_score - 2.0, items))
                continue
            pool = ranked_num if slot.startswith("agg:") else ranked_all
            used = {
                ref.key()
                for expr in items
                if isinstance(expr, ColumnRef)
                for ref in (expr,)
            }
            picked = 0
            for score, ref in pool:
                if slot == "col" and ref.key() in used:
                    continue
                region, penalty = select_bonus(ctx, ref)
                score = score + region + penalty
                if slot.startswith("agg:"):
                    func = slot.split(":", 1)[1]
                    expr = AggExpr(func=func, arg=ref)
                else:
                    expr = ref
                expanded.append((combo_score + score, items + (expr,)))
                picked += 1
                if picked >= 3:
                    break
            if picked == 0:
                expanded.append((combo_score - 2.0, items))
        combos = sorted(expanded, key=lambda item: -item[0])[:6]
    choices = []
    for score, items in combos:
        if not items:
            continue
        choices.append((score, state._replace(select=items)))
    return choices


def predicate_candidates(ctx, tables, kinds):
    candidates = []
    kind_pool = kinds if kinds else ("eq", "cmp")
    for kind in set(kind_pool):
        if kind in ("eq", "neq", "like"):
            candidates.extend(text_predicates(ctx, tables, kind))
        elif kind in ("cmp", "between"):
            candidates.extend(number_predicates(ctx, tables, kind))
    candidates.sort(key=lambda item: -item[0])
    return candidates


def text_predicates(ctx, tables, kind):
    out = []
    for score, ref in ranked_columns(ctx, tables, TEXT)[:5]:
        found = ctx.prepared.text_value(ref)
        if found is None:
            continue
        best_value, evidence = found
        if kind == "like":
            token = best_value.split()[0]
            predicate = Predicate(
                left=ref, op="like", right=literal(ctx, f"%{token}%")
            )
        else:
            op = "=" if kind == "eq" else "!="
            predicate = Predicate(left=ref, op=op, right=literal(ctx, best_value))
        out.append((score + evidence + ctx._gumbel(0.5), predicate))
    return out


def number_predicates(ctx, tables, kind):
    out = []
    ranked = ranked_columns(ctx, tables, NUMBER)[:5]
    if kind == "between":
        bounds = [m for m in ctx.prepared.mentions if m.is_between_bound]
        if len(bounds) < 2:
            return out
        low, high = sorted((bounds[0].value, bounds[1].value))
        for score, ref in ranked:
            affinity = ctx.prepared.proximity(ref, bounds[0])
            predicate = Predicate(
                left=ref,
                op="between",
                right=literal(ctx, low),
                right2=literal(ctx, high),
            )
            out.append((score + affinity + 1.0 + ctx._gumbel(0.5), predicate))
        return out
    cmp_mentions = [
        m
        for m in ctx.prepared.mentions
        if not (m.is_limit or m.is_count_threshold or m.is_between_bound)
    ]
    for mention in cmp_mentions:
        op = mention.op
        if op == "=":
            op = ">" if ctx._random() < 0.5 else "<"
        affinities = [
            (ctx.prepared.proximity(ref, mention), score, ref) for score, ref in ranked
        ]
        best_affinity = max((a for a, __, __ in affinities), default=0.0)
        for affinity, score, ref in affinities:
            nearest = 3.0 if affinity == best_affinity and affinity > 0 else 0.0
            predicate = Predicate(
                left=ref, op=op, right=literal(ctx, mention.value)
            )
            out.append(
                (score + affinity + nearest + 0.8 + ctx._gumbel(0.5), predicate)
            )
    return out


def replace_literals(query: Query) -> Query:
    """Rewrite every predicate literal to the 'value' placeholder."""
    if isinstance(query, SetQuery):
        return SetQuery(
            op=query.op,
            left=replace_literals(query.left),
            right=replace_literals(query.right),
        )

    def fix_condition(condition: Condition | None) -> Condition | None:
        if condition is None:
            return None
        fixed = []
        for predicate in condition.predicates:
            right = predicate.right
            if isinstance(right, Literal):
                right = Literal(PLACEHOLDER)
            elif isinstance(right, (SelectQuery, SetQuery)):
                right = replace_literals(right)
            elif isinstance(right, tuple):
                right = tuple(Literal(PLACEHOLDER) for __ in right)
            right2 = predicate.right2
            if isinstance(right2, Literal):
                right2 = Literal(PLACEHOLDER)
            fixed.append(replace(predicate, right=right, right2=right2))
        return Condition(
            predicates=tuple(fixed), connectors=condition.connectors
        )

    from_ = query.from_
    if from_.subquery is not None:
        from_ = FromClause(subquery=replace_literals(from_.subquery))
    return replace(
        query,
        from_=from_,
        where=fix_condition(query.where),
        having=fix_condition(query.having),
    )
