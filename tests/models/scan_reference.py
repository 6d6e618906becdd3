"""Reference forms of the per-call scans the lookup tables replaced.

Each function is the form that tokenized every stored value, schema
phrase or question token again on every call, before
:class:`repro.schema.index.DatabaseIndex`, the question's token lists in
:class:`repro.models.question_context.QuestionContext` and the sketch
model's log table took that work off the request path.
``test_index_differential.py`` checks the table-reading forms against
them, float for float.
"""

from __future__ import annotations

import math
import re

from repro.models.lexicon import content_tokens
from repro.models.mentions import question_tokens
from repro.nn.text import tokenize_text


def find_mentioned_values(question, db, max_values=4):
    """:func:`repro.models.cues.find_mentioned_values` over the rows."""
    tokens = set(question_tokens(question))
    hits = []
    seen_values = set()
    for table in db.schema.tables:
        for column in table.columns:
            if column.ctype != "text":
                continue
            for value in db.column_values(table.name, column.name):
                if not isinstance(value, str):
                    continue
                key = value.lower()
                value_tokens = set(re.findall(r"[a-z0-9]+", key))
                if not value_tokens or not value_tokens <= tokens:
                    continue
                if (table.name, column.name, key) in seen_values:
                    continue
                seen_values.add((table.name, column.name, key))
                hits.append(
                    (
                        table.name.lower(),
                        column.name.lower(),
                        value,
                        float(len(value_tokens)),
                    )
                )
    hits.sort(key=lambda h: -h[3])
    deduped = []
    used_values = set()
    for hit in hits:
        if hit[2].lower() in used_values:
            continue
        used_values.add(hit[2].lower())
        deduped.append(hit)
    return deduped[:max_values]


def best_text_value(db, token_set, ref):
    """``values._Grounder._best_text_value`` over the rows."""
    best_value, best_score = None, 0.0
    seen = set()
    for value in db.column_values(ref.table, ref.column):
        if not isinstance(value, str) or value in seen:
            continue
        seen.add(value)
        words = set(re.findall(r"[a-z0-9]+", value.lower()))
        if not words:
            continue
        coverage = len(words & token_set) / len(words)
        score = coverage * (1.0 + 0.1 * len(words))
        if coverage == 1.0 and score > best_score:
            best_score, best_value = score, value
    return best_value


# -- lexicon ------------------------------------------------------------


def _name_overlap(tokens, phrases):
    best = 0.0
    for phrase in phrases:
        phrase_tokens = set(tokenize_text(phrase))
        if not phrase_tokens:
            continue
        hit = len(phrase_tokens & tokens) / len(phrase_tokens)
        best = max(best, hit)
    return best


def score_table(lexicon, question, db_id, table):
    """``Lexicon.score_table`` from the question string and a ``Table``."""
    tokens = content_tokens(question)
    token_set = set(tokens)
    learned = lexicon._association(f"{db_id}:tab:{table.name.lower()}", tokens)
    overlap = _name_overlap(token_set, [table.name, table.nl, *table.synonyms])
    column_hits = sorted(
        (
            _name_overlap(token_set, [c.name, c.nl, *c.synonyms])
            for c in table.columns
        ),
        reverse=True,
    )
    coverage = sum(column_hits[:3])
    return learned + 3.0 * overlap + 1.2 * coverage


def score_column(lexicon, question, db_id, table, column_name):
    """``Lexicon.score_column`` from the question string and a ``Table``."""
    tokens = content_tokens(question)
    token_set = set(tokens)
    column = table.column(column_name)
    key = f"{table.name.lower()}.{column.name.lower()}"
    learned = lexicon._association(f"{db_id}:col:{key}", tokens)
    overlap = _name_overlap(token_set, [column.name, column.nl, *column.synonyms])
    return learned + 4.0 * overlap


# -- question context ---------------------------------------------------


def column_positions(ctx, ref):
    """``QuestionContext.column_positions``, uncached, over the schema."""
    schema = ctx.db.schema
    table = schema.table(ref.table) if ref.table else None
    phrases = [ref.column.replace("_", " ")]
    table_words = set()
    if table is not None:
        table_words = set(question_tokens(table.nl)) | set(
            question_tokens(table.name.replace("_", " "))
        )
        if table.has_column(ref.column):
            column = table.column(ref.column)
            phrases.append(column.nl)
            phrases.extend(column.synonyms)
    exact = []
    loose = []
    for phrase in phrases:
        words = question_tokens(phrase)
        if not words:
            continue
        for start in range(len(ctx.qtokens) - len(words) + 1):
            if ctx.qtokens[start : start + len(words)] == words:
                exact.extend(range(start, start + len(words)))
        distinctive = [w for w in words if w not in table_words] or words
        loose.extend(i for i, t in enumerate(ctx.qtokens) if t in set(distinctive))
    return sorted(set(exact)) if exact else sorted(set(loose))


def value_proximity(ctx, ref, value):
    value_words = re.findall(r"[a-z0-9]+", value.lower())
    if not value_words:
        return 0.0
    value_positions = [i for i, t in enumerate(ctx.qtokens) if t == value_words[0]]
    positions = column_positions(ctx, ref)
    if not value_positions or not positions:
        return 0.0
    distance = min(abs(p - v) for p in positions for v in value_positions)
    return max(0.0, 4.0 - 0.8 * distance)


def text_value(ctx, ref):
    """``QuestionContext.text_value``, uncached, over the rows."""
    tokens = set(content_tokens(ctx.question))
    best_value, best_hit = None, 0.0
    seen_values = set()
    for value in ctx.db.column_values(ref.table, ref.column):
        if not isinstance(value, str) or value in seen_values:
            continue
        seen_values.add(value)
        value_tokens = set(re.findall(r"[a-z0-9]+", value.lower()))
        if not value_tokens:
            continue
        hit = len(value_tokens & tokens) / len(value_tokens)
        if hit > best_hit:
            best_hit, best_value = hit, value
    if best_value is None:
        return None
    evidence = ctx.model.profile.value_skill * 2.5 * best_hit
    evidence += value_proximity(ctx, ref, best_value)
    return best_value, evidence


# -- sketch model -------------------------------------------------------


def facet_log_posteriors(model, question):
    """``SketchModel.facet_log_posteriors`` from the counts, per call."""
    tokens = [t for t in set(content_tokens(question)) if t in model._vocab]
    vocab_size = max(len(model._vocab), 1)
    result = {}
    for facet, value_counts in model._facet_value_counts.items():
        logps = {}
        for value, count in value_counts.items():
            logp = math.log(count / model._total)
            token_counter = model._facet_token_counts[(facet, value)]
            denominator = (
                model._facet_token_totals[(facet, value)]
                + model.smoothing * vocab_size
            )
            for token in tokens:
                p = (token_counter.get(token, 0) + model.smoothing) / denominator
                logp += math.log(p)
            logps[value] = logp
        peak = max(logps.values())
        total = sum(math.exp(v - peak) for v in logps.values())
        log_norm = peak + math.log(total)
        result[facet] = {v: lp - log_norm for v, lp in logps.items()}
    return result
