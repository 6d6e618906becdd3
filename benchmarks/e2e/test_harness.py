"""Tests of the end-to-end benchmark's own harness (no pipeline needed).

Run with ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pathlib
import threading
import types

import pytest

import harness
from harness import SpanLog, instrumented

ROOT = pathlib.Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_seed_gives_identical_samples_and_disjoint_warmup():
    warm, order = harness.sample_order(1200, seed=1)
    assert (warm, order) == harness.sample_order(1200, seed=1)
    assert len(warm) == harness.WARMUP
    assert not set(warm) & set(order)
    assert sorted(warm + order) == list(range(1200))
    assert harness.sample_order(1200, seed=2) != (warm, order)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (144, 90.0),
     (199, 90.0), (200, 95.0), (360, 95.0), (500, 98.0), (1000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.supported_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == 5.5
    assert harness.percentile(values, 90) == pytest.approx(9.1)
    assert harness.percentile([7.0], 90) == 7.0


def test_self_time_counts_overlapping_children_once():
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    # Children cover [1, 6] and [8, 10] of the span [0, 10].
    assert harness.self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert harness.self_time(0.0, 10.0, []) == 10.0


def test_spans_nest_per_thread_and_inherit_the_request_id():
    log = SpanLog()
    inner = log.wrap("inner", lambda x: x * 2)
    outer = log.wrap("outer", lambda x: inner(x) + 1, rid_of=lambda a, k: a[0])
    threads = [threading.Thread(target=outer, args=(rid,)) for rid in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    by_id = {span.id: span for span in log.spans}
    inners = [span for span in log.spans if span.name == "inner"]
    assert len(inners) == 8
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "outer" and parent.rid == span.rid
        assert parent.start <= span.start <= span.end <= parent.end


def test_instrumented_restores_every_kind_of_target_even_on_error():
    class Owner:
        def method(self):
            return "class"

    module = types.SimpleNamespace(function=lambda: "module")
    instance = Owner()
    original_function = module.function
    original_method = Owner.__dict__["method"]
    log = SpanLog()
    targets = [
        (module, "function", "f", None, None),
        (Owner, "method", "m", None, None),
        (instance, "method", "i", None, None),
    ]
    with pytest.raises(RuntimeError):
        with instrumented(targets, log):
            assert module.function() == "module"
            assert instance.method() == "class"
            raise RuntimeError("body failed")
    assert module.function is original_function
    assert Owner.__dict__["method"] is original_method
    assert "method" not in vars(instance)
    assert [span.name for span in log.spans] == ["f", "m", "i"]


def test_closed_loop_sends_each_request_when_the_last_completes():
    clock = FakeClock()

    def call(rid):
        clock.sleep(0.25)
        if rid == 2:
            raise ValueError("bad question")
        return rid

    requests, elapsed = harness.closed_loop(
        range(4), call, reference=lambda: None, clock=clock)
    assert elapsed == pytest.approx(1.0)
    assert [r.sent for r in requests] == pytest.approx([100.0, 100.25, 100.5, 100.75])
    assert all(r.latency == pytest.approx(0.25) for r in requests)
    assert [r.error is None for r in requests] == [True, True, False, True]
    assert requests[2].result is None


def test_closed_loop_stops_after_its_seconds_once_it_sent_the_minimum():
    clock = FakeClock()

    def call(rid):
        clock.sleep(1.0)

    requests, __ = harness.closed_loop(
        range(100), call, seconds=2.5, reference=lambda: None, clock=clock)
    assert [r.rid for r in requests] == [0, 1, 2]
    requests, __ = harness.closed_loop(
        range(100), call, seconds=2.5, min_requests=5, reference=lambda: None, clock=clock)
    assert len(requests) == 5
    requests, __ = harness.closed_loop(
        range(2), call, seconds=2.5, min_requests=5, reference=lambda: None, clock=clock)
    assert len(requests) == 2


def run_at(slowdowns):
    """A closed loop on a host whose speed changes at each reference run."""
    clock = FakeClock()
    slowdown = iter(slowdowns)
    current = [1.0]

    def reference():
        current[0] = next(slowdown)
        clock.sleep(0.01 * current[0])

    def call(rid):
        clock.sleep(0.3 * current[0])

    requests, __ = harness.closed_loop(
        range(len(slowdowns) - 1), call, reference=reference, clock=clock)
    return requests


def test_latency_in_reference_units_does_not_move_with_the_host_speed():
    fast, slow = run_at([1.0] * 4), run_at([2.0] * 4)
    assert [r.latency for r in slow] == pytest.approx([2 * r.latency for r in fast])
    assert [r.latency_ref for r in slow] == pytest.approx([30.0] * 3)
    assert [r.latency_ref for r in fast] == pytest.approx([30.0] * 3)


def test_a_request_is_scaled_by_the_reference_runs_on_both_sides():
    requests = run_at([1.0, 3.0, 3.0])
    assert [r.ref for r in requests] == pytest.approx([0.02, 0.03])
    assert [r.latency_ref for r in requests] == pytest.approx([15.0, 30.0])


def test_reference_work_is_fixed():
    assert harness.reference_work() == harness.reference_work()


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("higher", "lower") for m in metrics)
