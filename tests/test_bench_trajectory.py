"""The perf trajectory: ``scripts/bench_trajectory.py`` and ``BENCH_e2e.json``."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(path, scale, correct=True):
    """A ``run.py`` output whose every metric reads *scale* times its index."""
    metrics = {
        f"{workload['name']}.{metric['name']}": {
            "value": scale * (index + 1),
            "unit": metric["unit"],
        }
        for workload in SPEC["workloads"]
        for index, metric in enumerate(SPEC["end_to_end"])
    }
    summary = {"correct": correct, "attempted": 1000, "failed": 0, "metrics": metrics}
    path.write_text("== table lines come first\n" + json.dumps(summary) + "\n")
    return path


def test_two_runs_round_trip(tmp_path):
    script = load_script()
    parent = [run_output(tmp_path / f"p{i}.txt", scale) for i, scale in enumerate((1.0, 3.0))]
    change = [run_output(tmp_path / f"c{i}.txt", scale) for i, scale in enumerate((2.0, 4.0))]
    out = tmp_path / "BENCH_e2e.json"
    args = ["--commit", "bbb", "--parent-commit", "aaa", "--out", str(out)]
    paths = ["--parent", *map(str, parent), "--change", *map(str, change)]
    assert script.main(args + paths) == 0
    assert script.main(args + paths) == 0  # a second call appends

    entries = json.loads(out.read_text())["entries"]
    assert len(entries) == 2 and entries[0] == entries[1]
    entry = entries[0]
    assert (entry["commit"], entry["parent"], entry["pairs"]) == ("bbb", "aaa", 2)
    throughput = entry["metrics"]["serve-chatgpt"]["throughput_per_kref"]
    assert throughput["parent"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert throughput["change"] == {"q1": 2.5, "median": 3.0, "q3": 3.5}
    assert throughput["change_wins"] == 2  # higher is better
    # Lower is better for latency: the larger change values lose both pairs.
    assert entry["metrics"]["spider-lgesql"]["latency_p50_ref"]["change_wins"] == 0


def test_a_run_with_changed_answers_is_refused(tmp_path):
    script = load_script()
    good = run_output(tmp_path / "good.txt", 1.0)
    bad = run_output(tmp_path / "bad.txt", 1.0, correct=False)
    with pytest.raises(SystemExit):
        script.main([
            "--commit", "b", "--parent-commit", "a", "--out", str(tmp_path / "o.json"),
            "--parent", str(good), "--change", str(bad),
        ])


def test_committed_trajectory_parses():
    trajectory = json.loads((ROOT / "BENCH_e2e.json").read_text())
    assert trajectory["entries"]
    names = {metric["name"] for metric in SPEC["end_to_end"]}
    for entry in trajectory["entries"]:
        assert entry["commit"] and entry["parent"] and entry["pairs"] >= 10
        assert set(entry["metrics"]) == {w["name"] for w in SPEC["workloads"]}
        for metrics in entry["metrics"].values():
            assert set(metrics) == names
            for row in metrics.values():
                for side in ("parent", "change"):
                    assert row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
