"""Pure helpers of the end-to-end benchmark.

Sampling, statistics, span bookkeeping and the load generator live
here.  Nothing in this module imports the system under test, so the
harness tests run in a second and exercise exactly the code that turns
raw timings into the reported numbers.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Questions answered before timing starts, disjoint from the measured ones.
WARMUP = 30
#: Percentiles the tail rule chooses from.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def sample_order(pool_size: int, seed: int):
    """Split ``range(pool_size)`` into a warm-up set and a measured order.

    The seed alone decides the permutation, so the same seed always gives
    the same inputs in the same order; the first :data:`WARMUP` positions
    are the warm-up set and never appear in the measured order.
    """
    order = list(range(pool_size))
    random.Random(seed).shuffle(order)
    return order[:WARMUP], order[WARMUP:]


def percentile(values, p: float) -> float:
    """The *p*-th percentile with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of *n* samples above it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)


# ----------------------------------------------------------------------
# Spans.


class Span(NamedTuple):
    id: int
    parent: int | None
    rid: int | None
    name: str
    start: float
    end: float
    #: Optional count taken from the call, e.g. the candidates a decode returned.
    value: int | None


class SpanLog:
    """In-memory span store fed by timing wrappers.

    Each thread keeps its own stack of open spans, so a wrapped call made
    inside another wrapped call on the same thread becomes its child and
    inherits its request id.  Spans are appended when they close.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, rid_of=None, value_of=None):
        """*fn* wrapped so every call records one span named *name*.

        *rid_of(args, kwargs)* gives the request id of a root call;
        nested calls inherit their parent's.  *value_of(args, kwargs,
        result)* extracts an optional count stored on the span.
        """
        log = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(log._local, "stack", None)
            if stack is None:
                stack = log._local.stack = []
            parent, rid = stack[-1] if stack else (None, None)
            if rid_of is not None:
                rid = rid_of(args, kwargs)
            span_id = next(log._ids)
            stack.append((span_id, rid))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None
                if value_of is not None and result is not None:
                    value = value_of(args, kwargs, result)
                log.spans.append(Span(span_id, parent, rid, name, start, end, value))

        return timed


@contextmanager
def instrumented(targets, spans: SpanLog):
    """Install ``spans`` wrappers on *targets*; restore every one on exit.

    A target is ``(owner, attribute, span name, rid_of, value_of)``.  An
    attribute the owner did not hold itself (a method reached through an
    instance) is removed again; one it held is put back.
    """
    restore = []
    try:
        for owner, attr, name, rid_of, value_of in targets:
            held = attr in vars(owner)
            original = vars(owner)[attr] if held else None
            setattr(owner, attr, spans.wrap(name, getattr(owner, attr), rid_of, value_of))
            restore.append((owner, attr, held, original))
        yield spans
    finally:
        for owner, attr, held, original in reversed(restore):
            if held:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def children_index(spans) -> dict[int, list[Span]]:
    """Parent span id -> its direct child spans."""
    index: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


# ----------------------------------------------------------------------
# Reference work: a clock that runs at the host's speed.
#
# The benchmark's VM shares its cores with other machines, and its speed
# for identical work swings by up to 2x within seconds, in CPU time as
# much as in wall time.  So the end-to-end latencies are given in units
# of this fixed piece of work, timed right before and right after each
# request.  It mixes what the pipeline spends its time on: dict and
# Counter arithmetic over tokens, sorting, small objects, regular
# expressions and string building, and small numpy products.  It must
# never change, or numbers taken before and after stop being comparable.

_WORDS = (
    "select name from singer where age > 30 order by name join on count "
    "group having distinct avg max min limit"
).split()
_TEXT = " ".join(_WORDS[(i * 7) % len(_WORDS)] for i in range(600))
_PAIR = re.compile(r"(\w+)\s+(\w+)")
_MATRIX = np.arange(48 * 48, dtype=float).reshape(48, 48) / 2304.0


class _Node:
    __slots__ = ("tag", "kids", "score")

    def __init__(self, tag: str, score: float) -> None:
        self.tag, self.kids, self.score = tag, [], score

    def total(self) -> float:
        return self.score + sum(kid.total() for kid in self.kids)


def reference_work() -> float:
    """The fixed unit of work end-to-end latencies are measured in (~1.5 ms)."""
    counts: dict[str, int] = {}
    for token in _TEXT.split():
        counts[token] = counts.get(token, 0) + 1
    total = float(sum(counts.get(_WORDS[i % len(_WORDS)], 0) for i in range(2000)))

    tokens = _TEXT.split()
    left, right = Counter(tokens[:300]), Counter(tokens[200:500])
    for __ in range(15):
        both = left + right
        total += sum(((left - right) & both).values())
        total += len(sorted(both.items(), key=lambda kv: (-kv[1], kv[0])))

    root = _Node("root", 0.0)
    level = [root]
    for depth in range(4):
        deeper = []
        for node in level:
            for j in range(4):
                kid = _Node(_WORDS[j], depth * 0.5 + j)
                node.kids.append(kid)
                deeper.append(kid)
        level = deeper
    total += root.total() + sum(1 for node in level if node.score > 1)

    vector = np.ones(48)
    for __ in range(25):
        vector = np.tanh(_MATRIX @ vector)
    total += float(vector.sum())

    pairs = [f"{m.group(1).upper()}.{m.group(2)}" for m in _PAIR.finditer(_TEXT[:3000])]
    return total + len(" ".join(pairs).lower())


# ----------------------------------------------------------------------
# Load generation.


@dataclass
class Request:
    """One measured request and its timings on the harness clock."""

    rid: int
    sent: float
    done: float = 0.0
    result: object = None
    error: str | None = None
    #: Seconds :func:`reference_work` took around this request.
    ref: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.sent

    @property
    def latency_ref(self) -> float:
        """The latency in units of the reference work."""
        return self.latency / self.ref


def closed_loop(rids, call, seconds=math.inf, min_requests=0,
                reference=reference_work, clock=time.perf_counter):
    """One client sending each of *rids* after the previous one completes.

    Sending stops when *rids* runs out, or once *seconds* have passed and
    at least *min_requests* were sent.  *reference* runs before the first
    request and after every one; a request's ``ref`` is the mean of the
    two runs around it.  Returns the requests and the wall time.
    """
    def timed_reference():
        begin = clock()
        reference()
        return clock() - begin

    requests: list[Request] = []
    start = clock()
    before = timed_reference()
    for rid in rids:
        if len(requests) >= min_requests and clock() - start >= seconds:
            break
        request = Request(rid=rid, sent=clock())
        try:
            request.result = call(rid)
        except Exception as exc:  # a failed request is counted, not fatal
            request.error = f"{type(exc).__name__}: {exc}"
        request.done = clock()
        after = timed_reference()
        request.ref = (before + after) / 2
        before = after
        requests.append(request)
    return requests, clock() - start
