"""Operational-intelligence layer tests (marker: ops).

Covers the PR-8 tentpole end to end: `SloSpec`/`SloEngine` burn-rate
alerting on fake clocks (including the hypothesis replay-purity
property), the tail-sampling `FlightRecorder` and its debug bundles,
the `OpsServer` HTTP routes, `tools/opsctl.py`, a `MetricsRegistry`
label-churn hammer, and the acceptance test: a real `TranslationService`
with the endpoint enabled under mixed faulted/deadline-violating
traffic.
"""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib
import sys
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resilience import FAULTS, Deadline
from repro.eval import aggregate_journal
from repro.obs import (
    FlightRecorder,
    Journal,
    MetricsRegistry,
    OpsServer,
    SloEngine,
    SloError,
    SloSpec,
    default_slos,
    load_bundle,
    read_journal,
)
from repro.schema.database import Database
from repro.schema.schema import Column, Schema, Table
from repro.serve import ServiceConfig, TranslationService
from repro.sqlkit.errors import (
    CheckpointCorrupt,
    ConfigError,
    TenantSwapError,
)

pytestmark = pytest.mark.ops

REPO = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "opsctl", REPO / "tools" / "opsctl.py"
)
opsctl = importlib.util.module_from_spec(_spec)
sys.modules["opsctl"] = opsctl
_spec.loader.exec_module(opsctl)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


class FakeClock:
    """Manually advanced clock for deterministic SLO windows."""

    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def _tiny_db() -> Database:
    return Database(
        Schema(db_id="d", tables=(Table("t", (Column("c"),)),))
    )


def _record(
    good: bool = True,
    tenant: str = "default",
    latency: float = 0.01,
    **extra,
) -> dict:
    record = {
        "event": "translate",
        "tenant": tenant,
        "latency_s": latency,
        "degraded": not good,
        "deadline_expired": False,
        "faults": [],
        "verify_demoted": 0,
        "repair_attempts": 0,
    }
    record.update(extra)
    return record


def _get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


# ----------------------------------------------------------------------
# SloSpec validation and classification.


class TestSloSpec:
    def test_defaults_are_the_workbook_policy(self):
        spec = SloSpec("availability")
        assert spec.fast_windows == (300.0, 3600.0)
        assert spec.slow_windows == (3600.0, 21600.0)
        assert spec.fast_burn == pytest.approx(14.4)
        assert spec.slow_burn == pytest.approx(6.0)
        assert spec.error_budget == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"name": ""}, "non-empty name"),
            ({"name": "x", "indicator": "nope"}, "unknown SLO indicator"),
            ({"name": "x", "objective": 1.0}, "objective"),
            ({"name": "x", "objective": 0.0}, "objective"),
            ({"name": "x", "indicator": "latency"}, "threshold"),
            ({"name": "x", "fast_windows": (60.0, 30.0)}, "fast_windows"),
            ({"name": "x", "slow_windows": (60.0,)}, "slow_windows"),
            ({"name": "x", "fast_burn": 0.0}, "burn-rate"),
            ({"name": "x", "tenant": "a", "per_tenant": True}, "per_tenant"),
        ],
    )
    def test_invalid_specs_raise_typed_errors(self, kwargs, match):
        with pytest.raises(SloError, match=match):
            SloSpec(**kwargs)

    def test_slo_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            SloSpec("")

    def test_latency_classification(self):
        spec = SloSpec("lat", indicator="latency", threshold=0.5)
        assert spec.classify({"latency_s": 0.4}) is True
        assert spec.classify({"latency_s": 0.5}) is True
        assert spec.classify({"latency_s": 0.6}) is False
        assert spec.classify({}) is None  # not applicable

    def test_indicator_classifications(self):
        assert SloSpec("a").classify({"degraded": True}) is False
        assert SloSpec("a").classify({"degraded": False}) is True
        spec = SloSpec("d", indicator="deadline")
        assert spec.classify({"deadline_expired": True}) is False
        spec = SloSpec("f", indicator="fault")
        assert spec.classify({"faults": [{"stage": "s"}]}) is False
        assert spec.classify({"faults": []}) is True
        spec = SloSpec("v", indicator="verify_demotion")
        assert spec.classify({"verify_demoted": 2}) is False
        assert spec.classify({"verify_demoted": 0}) is True
        spec = SloSpec("r", indicator="repair")
        assert spec.classify({"repair_attempts": 0}) is True
        assert (
            spec.classify({"repair_attempts": 1, "repair_succeeded": False})
            is False
        )
        assert (
            spec.classify({"repair_attempts": 1, "repair_succeeded": True})
            is True
        )

    def test_default_slos_are_valid_and_json_ready(self):
        specs = default_slos()
        assert [spec.name for spec in specs] == [
            "latency",
            "availability",
            "verify_demotion",
        ]
        json.dumps([spec.as_dict() for spec in specs])


# ----------------------------------------------------------------------
# Burn-rate alerting on a fake clock.


def _fast_spec(name: str = "avail", **kwargs) -> SloSpec:
    """A spec with short synthetic windows for fast deterministic tests."""
    defaults = dict(
        indicator="degraded",
        objective=0.9,
        fast_windows=(10.0, 60.0),
        fast_burn=5.0,
        slow_windows=(60.0, 360.0),
        slow_burn=3.0,
    )
    defaults.update(kwargs)
    return SloSpec(name, **defaults)


class TestSloEngine:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SloError, match="duplicate"):
            SloEngine(
                (SloSpec("a"), SloSpec("a")), registry=MetricsRegistry()
            )

    def test_page_fires_when_both_fast_windows_burn(self):
        clock = FakeClock()
        engine = SloEngine(
            (_fast_spec(),), clock=clock, registry=MetricsRegistry()
        )
        for _ in range(8):
            engine.observe(_record(good=True))
            clock.advance(1.0)
        assert not engine.alerting()
        fired = []
        for _ in range(8):
            fired += engine.observe(_record(good=False))
            clock.advance(1.0)
        assert engine.alerting()
        page = [a for a in fired if a.severity == "page"]
        assert len(page) == 1 and page[0].state == "firing"
        assert page[0].burn_short >= 5.0 and page[0].burn_long >= 5.0

    def test_alert_clears_after_recovery(self):
        clock = FakeClock()
        engine = SloEngine(
            (_fast_spec(),), clock=clock, registry=MetricsRegistry()
        )
        for _ in range(10):
            engine.observe(_record(good=False))
            clock.advance(0.5)
        assert engine.alerting()
        # All bad events age out of even the slow_long window.
        clock.advance(1000.0)
        statuses = engine.evaluate()
        assert not engine.alerting()
        assert all(not status.firing for status in statuses)
        states = [(a.severity, a.state) for a in engine.transitions]
        assert ("page", "firing") in states
        assert ("page", "resolved") in states

    def test_short_spike_does_not_page_through_the_long_window(self):
        # A brief bad burst inside a mostly-good stream never trips the
        # paired thresholds — the whole point of multi-window alerting.
        clock = FakeClock()
        engine = SloEngine(
            (_fast_spec(),), clock=clock, registry=MetricsRegistry()
        )
        for _ in range(50):
            engine.observe(_record(good=True))
            clock.advance(1.0)
        for _ in range(3):
            engine.observe(_record(good=False))
            clock.advance(0.1)
        assert not engine.alerting()

    def test_tenant_pinned_spec_ignores_other_tenants(self):
        engine = SloEngine(
            (_fast_spec(tenant="acme"),),
            clock=FakeClock(),
            registry=MetricsRegistry(),
        )
        for _ in range(10):
            engine.observe(_record(good=False, tenant="globex"))
        assert not engine.alerting()
        for _ in range(10):
            engine.observe(_record(good=False, tenant="acme"))
        assert engine.alerting()

    def test_per_tenant_spec_tracks_each_tenant_separately(self):
        engine = SloEngine(
            (_fast_spec(per_tenant=True),),
            clock=FakeClock(),
            registry=MetricsRegistry(),
        )
        for _ in range(10):
            engine.observe(_record(good=False, tenant="acme"))
            engine.observe(_record(good=True, tenant="globex"))
        statuses = {s.tenant: s for s in engine.evaluate()}
        assert statuses["acme"].firing
        assert not statuses["globex"].firing
        assert statuses["globex"].compliance == pytest.approx(1.0)

    def test_not_applicable_records_are_skipped(self):
        engine = SloEngine(
            (
                SloSpec(
                    "lat",
                    indicator="latency",
                    threshold=0.1,
                    objective=0.9,
                ),
            ),
            clock=FakeClock(),
            registry=MetricsRegistry(),
        )
        engine.observe({"event": "translate"})  # no latency: skipped
        status = engine.evaluate()[0]
        assert status.total == 0
        assert status.compliance == pytest.approx(1.0)

    def test_window_eviction_bounds_memory(self):
        engine = SloEngine(
            (_fast_spec(),),
            clock=FakeClock(),
            registry=MetricsRegistry(),
            max_events_per_window=16,
        )
        for _ in range(100):
            engine.observe(_record(good=True))
        state = engine._states[("avail", "")]
        assert all(
            len(window.events) <= 16
            for window in state.windows.values()
        )

    def test_transitions_land_in_journal_and_metrics(self, tmp_path):
        registry = MetricsRegistry()
        journal = Journal(tmp_path / "slo.jsonl", fsync=False)
        engine = SloEngine(
            (_fast_spec(),),
            clock=FakeClock(),
            journal=journal,
            registry=registry,
        )
        for _ in range(10):
            engine.observe(_record(good=False))
        journal.close()
        events = read_journal(journal.path)
        fired = [e for e in events if e["event"] == "slo_alert"]
        assert fired and {e["state"] for e in fired} == {"firing"}
        assert registry.get("metasql_slo_events_total").labels(
            slo="avail", tenant="", outcome="bad"
        ).value == 10
        assert registry.get("metasql_slo_alert_active").labels(
            slo="avail", tenant="", severity="page"
        ).value == 1.0
        # journal_analysis folds the alert events.
        summary = aggregate_journal(journal.path)
        assert summary.slo_alerts["avail"]["firing"] >= 1
        assert "slo alerts:" in summary.render()

    def test_observation_with_pinned_ts_is_deterministic(self):
        engine = SloEngine(
            (_fast_spec(),),
            clock=FakeClock(),
            registry=MetricsRegistry(),
        )
        alerts = []
        for i in range(10):
            alerts += engine.observe(_record(good=False), ts=100.0 + i)
        assert alerts  # pinned timestamps drove the windows, not the clock


# ----------------------------------------------------------------------
# Replay purity (hypothesis): alerts are a pure function of the stream.


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=30.0),  # inter-arrival dt
            st.booleans(),  # good / bad
        ),
        min_size=1,
        max_size=80,
    )
)
def test_burn_rate_alerts_are_a_pure_function_of_observations(stream):
    def run() -> list[dict]:
        engine = SloEngine(
            (_fast_spec(), _fast_spec(name="strict", objective=0.95)),
            clock=FakeClock(),
            registry=MetricsRegistry(),
        )
        ts = 0.0
        for dt, good in stream:
            ts += dt
            engine.observe(_record(good=good), ts=ts)
        engine.evaluate(now=ts)
        return [alert.as_dict() for alert in engine.transitions]

    assert run() == run()  # replay => identical alert transitions


# ----------------------------------------------------------------------
# Flight recorder.


class TestFlightRecorder:
    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0, registry=MetricsRegistry())
        with pytest.raises(ValueError, match="slow_quantile"):
            FlightRecorder(slow_quantile=1.5, registry=MetricsRegistry())

    def test_reason_precedence(self):
        recorder = FlightRecorder(registry=MetricsRegistry())
        breaker = _record(
            faults=[{"stage": "s", "error_type": "BreakerOpen"}],
            degraded=True,
        )
        assert recorder.consider(breaker) == "breaker_open"
        fault = _record(faults=[{"stage": "s", "error_type": "E"}])
        assert recorder.consider(fault) == "fault"
        assert (
            recorder.consider(_record(deadline_expired=True)) == "deadline"
        )
        assert recorder.consider(_record(good=False)) == "degraded"
        assert (
            recorder.consider(_record(verify_demoted=2))
            == "verify_demotion"
        )
        assert recorder.consider(_record(repair_attempts=1)) == "repair"
        assert (
            recorder.consider(_record(), slo_alerting=True) == "slo_alert"
        )

    def test_healthy_requests_are_dropped(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(registry=registry)
        # Strictly decreasing latencies: each request is the fastest
        # seen, so it never crosses the rolling slow threshold.
        for index in range(30):
            record = _record(latency=0.03 - 0.0005 * index)
            assert recorder.consider(record) is None
        assert len(recorder) == 0
        assert (
            registry.get("metasql_recorder_considered_total").value == 30
        )

    def test_slowest_decile_is_captured_after_warmup(self):
        recorder = FlightRecorder(
            min_latency_samples=20, registry=MetricsRegistry()
        )
        # Below the minimum sample count, even an outlier is dropped.
        assert recorder.consider(_record(latency=9.0)) is None
        for index in range(30):
            latency = 0.01 * (30 - index)  # 0.30 .. 0.01, ever faster
            assert recorder.consider(_record(latency=latency)) is None
        assert recorder.consider(_record(latency=5.0)) == "slow"
        # The threshold is a rolling p90: ordinary traffic right after
        # the outlier stays uncaptured.
        assert recorder.consider(_record(latency=0.05)) is None

    def test_capacity_bound_evicts_oldest(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(capacity=3, registry=registry)
        for index in range(5):
            recorder.consider(_record(good=False, question=f"q{index}"))
        assert len(recorder) == 3
        questions = [
            entry["record"]["question"] for entry in recorder.entries()
        ]
        assert questions == ["q2", "q3", "q4"]  # oldest evicted first
        assert recorder.stats()["evicted"] == 2
        assert registry.get("metasql_recorder_evicted_total").value == 2
        assert registry.get("metasql_recorder_entries").value == 3

    def test_entries_filter_by_tenant_and_limit(self):
        recorder = FlightRecorder(registry=MetricsRegistry())
        for index in range(4):
            recorder.consider(
                _record(
                    good=False,
                    tenant="acme" if index % 2 else "globex",
                    question=f"q{index}",
                )
            )
        acme = recorder.entries(tenant="acme")
        assert [e["record"]["question"] for e in acme] == ["q1", "q3"]
        assert [
            e["record"]["question"] for e in recorder.entries(limit=1)
        ] == ["q3"]

    def test_force_capture_keeps_out_of_band_events(self):
        recorder = FlightRecorder(registry=MetricsRegistry())
        recorder.capture(
            {"event": "tenant_swap", "outcome": "rollback"},
            reason="swap_rollback",
        )
        assert recorder.entries()[0]["reason"] == "swap_rollback"

    def test_report_payload_rides_along(self):
        recorder = FlightRecorder(registry=MetricsRegistry())

        class _Report:
            def as_dict(self):
                return {"trace": {"name": "translate"}}

        recorder.consider(_record(good=False), report=_Report())
        entry = recorder.entries()[0]
        assert entry["report"]["trace"]["name"] == "translate"

    def test_dump_bundle_round_trips_and_is_atomic(self, tmp_path):
        recorder = FlightRecorder(
            clock=lambda: 42.0, registry=MetricsRegistry()
        )
        recorder.consider(_record(good=False))
        path = tmp_path / "deep" / "bundle.json"
        out = recorder.dump_bundle(
            path, health={"ready": True}, slo=[{"slo": "a"}]
        )
        assert out == path
        assert not path.with_suffix(".json.tmp").exists()
        bundle = load_bundle(path)
        assert bundle["version"] == 1
        assert bundle["generated_at"] == 42.0
        assert bundle["health"] == {"ready": True}
        assert bundle["slo"] == [{"slo": "a"}]
        assert len(bundle["entries"]) == 1
        assert "metasql_recorder_captured_total" in bundle["metrics"]

    def test_recorder_is_thread_safe_under_concurrent_considers(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(capacity=32, registry=registry)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(100):
                    recorder.consider(
                        _record(good=bool(i % 2), question=f"{worker}-{i}")
                    )
                    recorder.entries(limit=4)
            except BaseException as exc:  # repolint: allow[broad-except] — surfacing hammer failures
                errors.append(exc)

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors
        assert len(recorder) <= 32
        stats = recorder.stats()
        # Ring-buffer invariant: everything captured was either evicted
        # or is still held; at least every degraded record was captured.
        family = registry.get("metasql_recorder_captured_total")
        total_captured = sum(
            family.labels(reason=reason).value
            for reason in ("degraded", "slow")
        )
        assert total_captured == stats["evicted"] + len(recorder)
        assert total_captured >= 6 * 50


# ----------------------------------------------------------------------
# Ops endpoint (stub sources).


class TestOpsServer:
    @pytest.fixture()
    def server(self):
        registry = MetricsRegistry()
        registry.counter("ops_demo_total", "d").inc(3)
        state = {
            "health": {
                "ready": True,
                "accepting": True,
                "tenants": {
                    "default": {"breaker_open": False},
                    "acme": {"breaker_open": True},
                },
            }
        }
        recorder = FlightRecorder(registry=registry)
        recorder.consider(_record(good=False, tenant="acme"))
        ops = OpsServer(
            metrics=registry.render_prometheus,
            health=lambda: state["health"],
            slo=lambda: [
                {"slo": "avail", "firing": True},
                {"slo": "lat", "firing": False},
            ],
            recorder=lambda tenant, limit: recorder.entries(
                tenant=tenant, limit=limit
            ),
        )
        ops.start()
        yield ops, registry, state
        ops.close()

    def test_metrics_route_is_byte_identical_to_render(self, server):
        ops, registry, _ = server
        status, body = _get(f"{ops.url}/metrics")
        assert status == 200
        assert body == registry.render_prometheus()

    def test_healthz_and_readyz(self, server):
        ops, _, state = server
        status, body = _get(f"{ops.url}/healthz")
        assert status == 200 and json.loads(body)["ready"] is True
        status, body = _get(f"{ops.url}/readyz")
        assert status == 200 and json.loads(body) == {"ready": True}
        state["health"]["ready"] = False
        status, _body = _get(f"{ops.url}/readyz")
        assert status == 503

    def test_readyz_is_tenant_aware(self, server):
        ops, _, _ = server
        status, body = _get(f"{ops.url}/readyz?tenant=default")
        assert status == 200
        assert json.loads(body) == {"ready": True, "tenant": "default"}
        status, _body = _get(f"{ops.url}/readyz?tenant=acme")
        assert status == 503  # open breaker board
        status, _body = _get(f"{ops.url}/readyz?tenant=ghost")
        assert status == 404

    def test_slo_route_lists_firing_names(self, server):
        ops, _, _ = server
        status, body = _get(f"{ops.url}/slo")
        payload = json.loads(body)
        assert status == 200
        assert payload["firing"] == ["avail"]
        assert len(payload["slos"]) == 2

    def test_flightrecorder_route_filters(self, server):
        ops, _, _ = server
        status, body = _get(f"{ops.url}/debug/flightrecorder")
        payload = json.loads(body)
        assert status == 200 and payload["count"] == 1
        _status, body = _get(
            f"{ops.url}/debug/flightrecorder?tenant=globex"
        )
        assert json.loads(body)["count"] == 0
        _status, body = _get(
            f"{ops.url}/debug/flightrecorder?tenant=acme&limit=1"
        )
        assert json.loads(body)["count"] == 1

    def test_unknown_route_404s_with_route_table(self, server):
        ops, _, _ = server
        status, body = _get(f"{ops.url}/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]

    def test_unwired_source_404s(self):
        with OpsServer(metrics=lambda: "x 1\n") as ops:
            assert _get(f"{ops.url}/metrics")[0] == 200
            assert _get(f"{ops.url}/slo")[0] == 404
            assert _get(f"{ops.url}/healthz")[0] == 404

    def test_raising_source_yields_500_not_a_dead_listener(self):
        calls = {"n": 0}

        def broken() -> str:
            calls["n"] += 1
            raise RuntimeError("boom")

        with OpsServer(metrics=broken) as ops:
            status, body = _get(f"{ops.url}/metrics")
            assert status == 500 and "RuntimeError" in body
            # The listener survived the exception.
            status, _body = _get(f"{ops.url}/metrics")
            assert status == 500
        assert calls["n"] == 2

    def test_close_is_idempotent(self):
        ops = OpsServer(metrics=lambda: "x 1\n")
        ops.start()
        ops.close()
        ops.close()
        with pytest.raises(OSError):
            urllib.request.urlopen(f"{ops.url}/metrics", timeout=0.5)


# ----------------------------------------------------------------------
# MetricsRegistry label-family churn hammer.


def test_registry_label_family_churn_hammer():
    registry = MetricsRegistry()
    workers, laps = 8, 200
    errors: list[BaseException] = []

    def churn() -> None:
        try:
            for lap in range(laps):
                registry.counter(
                    "churn_total", "c", labelnames=("k",)
                ).labels(k=str(lap % 7)).inc()
                registry.gauge(
                    "churn_gauge", "g", labelnames=("k",)
                ).labels(k=str(lap % 5)).set(float(lap))
                registry.histogram(
                    "churn_seconds", "h", labelnames=("k",)
                ).labels(k=str(lap % 3)).observe(0.001 * lap)
        except BaseException as exc:  # repolint: allow[broad-except] — surfacing hammer failures
            errors.append(exc)

    pool = [threading.Thread(target=churn) for _ in range(workers)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors
    counter = registry.get("churn_total")
    assert (
        sum(counter.labels(k=str(k)).value for k in range(7))
        == workers * laps
    )
    histogram = registry.get("churn_seconds")
    assert (
        sum(histogram.labels(k=str(k)).count for k in range(3))
        == workers * laps
    )
    registry.render_prometheus()  # still renders deterministically


# ----------------------------------------------------------------------
# opsctl.


class TestOpsctl:
    def _bundle(self, tmp_path) -> pathlib.Path:
        recorder = FlightRecorder(
            clock=lambda: 7.0, registry=MetricsRegistry()
        )
        for index in range(3):
            recorder.consider(
                _record(
                    good=False,
                    question=f"why {index}",
                    latency=0.2 + index,
                    faults=[
                        {"stage": "stage1", "error_type": "StageError"}
                    ],
                )
            )
        recorder.consider(
            _record(
                good=False,
                question="other",
                faults=[
                    {"stage": "generate", "error_type": "StageError"}
                ],
            )
        )
        return recorder.dump_bundle(
            tmp_path / "bundle.json",
            health={
                "ready": False,
                "accepting": True,
                "queue_depth": 0,
                "queue_capacity": 16,
                "degraded_rate": 0.5,
                "tenants": {"default": {"breaker_open": True}},
            },
            slo=[
                {
                    "slo": "availability",
                    "tenant": "",
                    "firing": True,
                    "compliance": 0.5,
                    "alerts": {"page": True, "ticket": False},
                }
            ],
        )

    def test_render_bundle_names_the_dominant_failing_stage(
        self, tmp_path
    ):
        report = opsctl.render_bundle(
            load_bundle(self._bundle(tmp_path))
        )
        assert "dominant failing stage: stage1" in report
        assert "generate=1" in report
        assert "availability" in report
        assert "breaker" in report
        assert "slowest captured requests" in report

    def test_render_cli_exit_codes(self, tmp_path, capsys):
        bundle = self._bundle(tmp_path)
        assert opsctl.main(["render", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "MetaSQL incident report" in out
        assert (
            opsctl.main(["render", str(tmp_path / "missing.json")]) == 1
        )

    def test_poll_against_a_live_endpoint(self):
        with OpsServer(
            metrics=lambda: "up 1\n",
            health=lambda: {
                "ready": True,
                "accepting": True,
                "tenants": {},
            },
        ) as ops:
            out = io.StringIO()
            code = opsctl.poll(
                ops.url,
                endpoint="/metrics",
                count=2,
                sleep=lambda _s: None,
                out=out,
            )
            assert code == 0
            assert out.getvalue().count("up 1") == 2
            out = io.StringIO()
            assert opsctl.poll(ops.url, endpoint="/slo", out=out) == 1
            assert "404" in out.getvalue()

    def test_poll_unreachable_endpoint_fails_cleanly(self):
        out = io.StringIO()
        code = opsctl.poll("http://127.0.0.1:9", count=1, out=out)
        assert code == 1
        assert "unreachable" in out.getvalue()

    def test_tail_follows_a_journal(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        with Journal(path, fsync=False) as journal:
            journal.append({"event": "a"})
            journal.append({"event": "b"})
        out = io.StringIO()
        code = opsctl.tail(path, max_records=2, out=out)
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]

    def test_tail_cli_is_bounded_by_default(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        with Journal(path, fsync=False) as journal:
            journal.append({"event": "only"})
        assert (
            opsctl.main(["tail", str(path), "--max-records", "1"]) == 0
        )
        assert "only" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Service wiring (stub pipeline).


class TestServiceWiring:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="SloSpec"):
            ServiceConfig(slos=("not a spec",)).validate()
        with pytest.raises(ConfigError, match="recorder"):
            ServiceConfig(recorder_capacity=-1).validate()
        with pytest.raises(ConfigError, match="ops_port"):
            ServiceConfig(ops_port=70000).validate()

    def test_ops_layer_is_off_by_default(self):
        from tests.test_serve import StubPipeline

        with TranslationService(
            StubPipeline(),
            ServiceConfig(workers=1),
            registry=MetricsRegistry(),
        ) as service:
            assert service.slo_engine is None
            assert service.recorder is None
            assert service.ops_url is None
            assert service.ops_address is None
            with pytest.raises(ConfigError, match="recorder"):
                service.dump_bundle("nowhere.json")

    def test_config_slos_build_an_engine_on_the_service(self):
        from tests.test_serve import StubPipeline

        registry = MetricsRegistry()
        with TranslationService(
            StubPipeline(),
            ServiceConfig(workers=1, slos=default_slos()),
            registry=registry,
        ) as service:
            service.translate("q", _tiny_db(), timeout=10)
            statuses = {s.slo: s for s in service._slo_statuses()}
        assert statuses["availability"].total == 1
        assert statuses["availability"].bad == 0
        assert registry.get("metasql_slo_events_total").labels(
            slo="availability", tenant="", outcome="good"
        ).value == 1

    def test_recorder_captures_faulted_requests_only(self):
        from tests.test_serve import StubPipeline

        registry = MetricsRegistry()
        with TranslationService(
            StubPipeline(script=["ok", "fatal", "ok"]),
            ServiceConfig(workers=1, recorder_capacity=8),
            registry=registry,
        ) as service:
            db = _tiny_db()
            for question in ("a", "b", "c"):
                service.translate(question, db, timeout=10)
            entries = service.recorder.entries()
        assert [e["reason"] for e in entries] == ["fault"]
        assert entries[0]["record"]["question"] == "b"
        # The full report (span tree included) rode along.
        assert "faults" in entries[0]["report"]

    def test_ops_endpoint_serves_the_live_service(self, tmp_path):
        from tests.test_serve import StubPipeline

        registry = MetricsRegistry()
        with TranslationService(
            StubPipeline(script=["ok", "fatal"]),
            ServiceConfig(
                workers=1,
                slos=default_slos(),
                recorder_capacity=8,
                ops_port=0,
            ),
            registry=registry,
        ) as service:
            url = service.ops_url
            assert url is not None
            db = _tiny_db()
            service.translate("good", db, timeout=10)
            service.translate("bad", db, timeout=10)
            status, body = _get(f"{url}/metrics")
            assert status == 200
            assert body == service.metrics()  # byte-identical
            status, body = _get(f"{url}/healthz")
            health = json.loads(body)
            assert status == 200 and health["completed"] == 2
            assert _get(f"{url}/readyz")[0] == 200
            status, body = _get(f"{url}/slo")
            assert status == 200
            assert {s["slo"] for s in json.loads(body)["slos"]} == {
                "latency",
                "availability",
                "verify_demotion",
            }
            _status, body = _get(f"{url}/debug/flightrecorder")
            assert json.loads(body)["count"] == 1
            bundle_path = service.dump_bundle(tmp_path / "b.json")
        # Shutdown closed the endpoint.
        with pytest.raises(OSError):
            urllib.request.urlopen(f"{url}/healthz", timeout=0.5)
        bundle = load_bundle(bundle_path)
        assert bundle["health"]["completed"] == 2
        assert len(bundle["entries"]) == 1

    def test_swap_rollback_is_flight_recorded(self):
        from tests.test_serve import StubPipeline

        def corrupt_loader():
            raise CheckpointCorrupt("manifest checksum mismatch")

        with TranslationService(
            StubPipeline(),
            ServiceConfig(workers=1, recorder_capacity=4),
            registry=MetricsRegistry(),
        ) as service:
            with pytest.raises(TenantSwapError):
                service.swap(corrupt_loader)
            reasons = [e["reason"] for e in service.recorder.entries()]
        assert reasons == ["swap_rollback"]


# ----------------------------------------------------------------------
# End-to-end acceptance: real pipeline, ops endpoint, faults, deadlines.


class TestOpsEndToEnd:
    def test_service_under_fire_alerts_records_and_reports(
        self, trained_pipeline, tiny_benchmark, tmp_path
    ):
        examples = tiny_benchmark.dev.examples[:6]
        dbs = {
            example.db_id: tiny_benchmark.dev.database(example.db_id)
            for example in examples
        }
        registry = MetricsRegistry()
        journal = Journal(tmp_path / "ops.jsonl", fsync=False)
        clock = FakeClock()
        engine = SloEngine(
            default_slos(latency_threshold=30.0),
            clock=clock,
            journal=journal,
            registry=registry,
        )
        recorder = FlightRecorder(capacity=16, registry=registry)
        # The shared session pipeline carries a BreakerBoard; the fault
        # volume below opens the stage1 breaker, so restore it for the
        # tests that run after this one.
        try:
            self._drive_and_assert(
                trained_pipeline, examples, dbs, registry, journal,
                clock, engine, recorder, tmp_path,
            )
        finally:
            if trained_pipeline.breakers is not None:
                trained_pipeline.breakers.reset()

    def _drive_and_assert(
        self, trained_pipeline, examples, dbs, registry, journal,
        clock, engine, recorder, tmp_path,
    ):
        with TranslationService(
            trained_pipeline,
            ServiceConfig(workers=2, ops_port=0),
            registry=registry,
            journal=journal,
            slo_engine=engine,
            recorder=recorder,
        ) as service:
            url = service.ops_url

            def drive(deadline=None) -> None:
                for example in examples:
                    service.translate(
                        example.question,
                        dbs[example.db_id],
                        deadline=deadline,
                        timeout=60,
                    )

            # Phase 1 — healthy traffic: endpoint up, nothing firing.
            drive()
            assert _get(f"{url}/healthz")[0] == 200
            assert _get(f"{url}/readyz")[0] == 200
            assert not engine.alerting()

            # Phase 2 — injected stage faults plus a deadline-violating
            # burst, all inside the fast window on the synthetic clock.
            clock.advance(10.0)
            with FAULTS.inject("stage1.rank", times=None):
                drive()
                drive()
            drive(deadline=Deadline(1e-6))
            status, body = _get(f"{url}/slo")
            assert status == 200
            assert "availability" in json.loads(body)["firing"]
            assert engine.alerting()

            # Every faulted/degraded/deadline request was captured,
            # within the capacity bound.
            interesting = [
                record
                for record in read_journal(journal.path)
                if record.get("event") == "translate"
                and (
                    record.get("faults")
                    or record.get("degraded")
                    or record.get("deadline_expired")
                )
            ]
            captured = recorder.entries()
            assert interesting and captured
            assert len(captured) <= 16
            assert len(captured) == min(16, len(interesting))
            captured_questions = {
                entry["record"]["question"] for entry in captured
            }
            for record in interesting[-len(captured):]:
                assert record["question"] in captured_questions

            # /metrics is byte-identical to the in-process rendering.
            status, body = _get(f"{url}/metrics")
            assert status == 200 and body == service.metrics()
            assert "metasql_slo_alert_active" in body
            assert "metasql_recorder_entries" in body

            # Phase 3 — recovery: the bad events age out of every
            # window on the synthetic clock and the alert resolves.
            clock.advance(25000.0)
            engine.evaluate()
            assert not engine.alerting()
            _status, body = _get(f"{url}/slo")
            assert json.loads(body)["firing"] == []

            bundle_path = service.dump_bundle(tmp_path / "bundle.json")

        # The journal recorded the full alert lifecycle.
        events = read_journal(journal.path)
        alert_states = [
            (e["severity"], e["state"])
            for e in events
            if e["event"] == "slo_alert" and e["slo"] == "availability"
        ]
        assert ("page", "firing") in alert_states
        assert ("page", "resolved") in alert_states

        # The bundle + opsctl name the failing stage.
        report = opsctl.render_bundle(load_bundle(bundle_path))
        assert "dominant failing stage: stage1" in report
        out = io.StringIO()
        assert opsctl.render(bundle_path, out=out) == 0
        assert "stage1" in out.getvalue()
