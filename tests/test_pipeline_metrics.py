"""Golden exposition of the pipeline's request metrics.

The small trained pipeline (``tests/conftest.py``) answers a fixed mix of
requests under a scoped :class:`MetricsRegistry`, traced by one
:class:`Tracer` whose clock advances one second per read, and the
registry's Prometheus text must equal ``tests/golden/pipeline_metrics.prom``
byte for byte.  The mix reaches every ``metasql_*`` family a request can
write: plain requests (some with lint-rejected candidates), an injected
stage-1 fault, a stage-2 breaker tripped open, refusing a call, then
reset, deadlines expiring at ``classify`` and at ``stage1``, and
executor failures that make verify demote and repair run, once failing
and once succeeding.  A stage fault degrades on its first occurrence:
nothing is retried.

Training runs outside the scoped registry, so only served requests count.
The answers depend on the string hash seed, so the exposition is taken
in a child process with ``PYTHONHASHSEED=0``.  To print it::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.test_pipeline_metrics
"""

from __future__ import annotations

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "pipeline_metrics.prom"

pytestmark = pytest.mark.obs


def exposition() -> str:
    from repro.core.resilience import FAULTS, Deadline
    from repro.core.verify import VerifyConfig
    from repro.obs import MetricsRegistry, Tracer, registry_scope, trace_scope
    from repro.sqlkit.errors import SqlExecutionError
    from tests.conftest import build_tiny_benchmark, train_small_pipeline

    benchmark = build_tiny_benchmark()
    pipeline = train_small_pipeline(benchmark)
    dev = benchmark.dev
    examples = dev.examples

    def ask(index: int, deadline: Deadline | None = None):
        example = examples[index]
        return pipeline.translate_ranked_report(
            example.question, dev.database(example.db_id), deadline=deadline
        )

    def failing_execution():
        return SqlExecutionError("injected execution failure")

    # Every candidate of the last request fails verification; the
    # repaired ones then execute.
    ranked = len(ask(26).translations)

    registry = MetricsRegistry()
    tracer = Tracer(clock=itertools.count().__next__)
    with registry_scope(registry), trace_scope(tracer):
        for index in range(13):
            ask(index)
        with FAULTS.inject("stage1.rank"):
            ask(13)
        ask(14)
        ask(15)

        with FAULTS.inject("stage2.rank", times=None):
            for index in range(16, 22):
                ask(index)
        pipeline.breakers["stage2"].reset()
        ask(22)

        ask(23, deadline=Deadline(0.0))
        ask(24, deadline=Deadline(3.0, clock=itertools.count().__next__))

        # Verify every ranked candidate, so a failing top-1 cannot hide
        # behind an unverified one and repair runs.
        pipeline.config.verify = VerifyConfig(top_k=10)
        with FAULTS.inject(
            "executor.execute", times=None, exc=failing_execution
        ):
            ask(25)
        with FAULTS.inject(
            "executor.execute", times=ranked, exc=failing_execution
        ):
            ask(26)
    return registry.render_prometheus()


@pytest.fixture(scope="module")
def rendered() -> str:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=src if not path else os.pathsep.join((src, path)),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_pipeline_metrics"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_request_metrics_match_golden_file(rendered):
    assert rendered == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(exposition())
