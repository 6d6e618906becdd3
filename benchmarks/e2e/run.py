"""End-to-end benchmark of the MetaSQL pipeline.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace [0|1]]

Each workload runs in a fresh ``workload.py`` process with
``PYTHONHASHSEED=0`` (answers depend on it) and one BLAS thread.  The
metrics printed are the ones ``BENCHMARK.json`` names: its end-to-end
list by default, its per-layer list with ``--trace``.  Every answer is
checked against ``expected.json``; the last line of output is one JSON
object, and the exit code is non-zero when an answer changed or a
workload could not run.  ``--pin`` rewrites ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170
#: ``--pin`` answers every pool question three times over.
PIN_TIMEOUT_S = 900


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run ``workload.py`` with *args*; its stdout, or SystemExit on failure."""
    command = [sys.executable, str(HERE / "workload.py"), *args]
    # A session of its own, so stopping it also stops the traced run's twin.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, __ = process.communicate(timeout=timeout)
    except BaseException as exc:  # timed out or interrupted: stop the session
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"workload timed out after {timeout} s: {args}") from None
        raise
    if process.returncode != 0:
        raise SystemExit(f"workload exited with {process.returncode}: {args}")
    return out


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, wanted: dict) -> dict:
    """Print one workload's numbers; returns the metrics BENCHMARK.json names."""
    metrics = result["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise SystemExit(f"{result['workload']}: no value for {missing}")
    for name, unit in wanted.items():
        if metrics[name]["unit"] != unit:
            raise SystemExit(f"{name}: unit {metrics[name]['unit']} is not {unit}")
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"seconds={result['seconds']}  trace={result['trace']}  "
        f"PYTHONHASHSEED={result['hash_seed']}"
    )
    extra = [name for name in metrics if name not in wanted]
    for name in [*wanted, *extra]:
        mark = "" if name in wanted else "  (table only)"
        print(f"  {name:36s} {fmt(metrics[name]['value']):>12s} {metrics[name]['unit']}{mark}")
    changed = result["mismatches"]
    print(
        f"  answers: {result['answers_checked']} checked against expected.json, "
        f"{result['answers_changed']} changed" + (f", first pool ids {changed}" if changed else "")
    )
    print(
        f"  requests: {result['attempted']} sent, {result['failed']} failed;  "
        f"top-1 EX {result['ex']:.4f}  EM {result['em']:.4f} "
        f"over {result['samples']} answers"
    )
    return {name: metrics[name] for name in wanted}


def main(argv=None) -> int:
    if not (SRC / "repro" / "core" / "pipeline.py").is_file():
        print(f"error: no pipeline source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if args.pin:
        run_child(["--pin"], timeout=PIN_TIMEOUT_S)
        return 0

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in listed}
    RESULTS.mkdir(parents=True, exist_ok=True)
    results = []
    for name in args.workload:
        out = run_child([
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        result = json.loads(out.strip().splitlines()[-1])
        suffix = "-trace" if args.trace else ""
        (RESULTS / f"{name}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(result, indent=1) + "\n"
        )
        results.append((result, report(result, wanted)))

    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {
            f"{result['workload']}.{name}": value
            for result, chosen in results
            for name, value in chosen.items()
        }
    correct = all(result["correct"] for result, __ in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result, __ in results),
        "failed": sum(result["failed"] for result, __ in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
