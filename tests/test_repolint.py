"""repolint: per-rule unit tests, pragma handling, src/ enforcement.

The final test is the enforcement gate: the repo's own ``src/`` tree must
stay clean under every repolint rule, so an invariant regression fails
tier-1 rather than waiting for CI.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.lint

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "repolint.py"

spec = importlib.util.spec_from_file_location("repolint", TOOL)
repolint = importlib.util.module_from_spec(spec)
sys.modules["repolint"] = repolint  # dataclasses resolve the module by name
spec.loader.exec_module(repolint)


def rules_of(source: str) -> list[str]:
    return [f.rule for f in repolint.lint_source(textwrap.dedent(source))]


# ----------------------------------------------------------------------
# wall-clock


def test_wall_clock_call_flagged():
    assert rules_of("import time\nstamp = time.time()\n") == ["wall-clock"]


def test_datetime_now_flagged():
    source = "import datetime\nnow = datetime.datetime.now()\n"
    assert rules_of(source) == ["wall-clock"]


def test_clock_reference_as_default_allowed():
    source = """
        import time

        def __init__(self, clock=None):
            self._clock = clock if clock is not None else time.time
    """
    assert rules_of(source) == []


def test_perf_counter_not_flagged():
    # Monotonic duration measurement is fine; the rule targets wall time.
    assert rules_of("import time\nt = time.perf_counter()\n") == []


# ----------------------------------------------------------------------
# broad-except


def test_broad_except_flagged():
    source = """
        try:
            pass
        except Exception:
            pass
    """
    assert rules_of(source) == ["broad-except"]


def test_bare_except_flagged():
    assert rules_of("try:\n    pass\nexcept:\n    pass\n") == ["broad-except"]


def test_narrow_except_allowed():
    assert rules_of("try:\n    pass\nexcept ValueError:\n    pass\n") == []


def test_pragma_on_line_suppresses():
    source = """
        try:
            pass
        except Exception:  # repolint: allow[broad-except] — isolation
            pass
    """
    assert rules_of(source) == []


def test_pragma_on_line_above_suppresses():
    source = """
        try:
            pass
        # repolint: allow[broad-except] — isolation boundary
        except Exception:
            pass
    """
    assert rules_of(source) == []


def test_pragma_for_other_rule_does_not_suppress():
    source = """
        try:
            pass
        except Exception:  # repolint: allow[wall-clock]
            pass
    """
    assert rules_of(source) == ["broad-except"]


# ----------------------------------------------------------------------
# contextvar-reset


def test_token_without_reset_flagged():
    source = """
        def use(tracer):
            token = _TRACER.set(tracer)
            work()
    """
    assert rules_of(source) == ["contextvar-reset"]


def test_token_reset_in_finally_allowed():
    source = """
        def use(tracer):
            token = _TRACER.set(tracer)
            try:
                work()
            finally:
                _TRACER.reset(token)
    """
    assert rules_of(source) == []


def test_non_token_set_call_ignored():
    assert rules_of("def f(s):\n    found = s.set(1)\n    return found\n") == []


# ----------------------------------------------------------------------
# fsync-rename


def test_rename_without_fsync_flagged():
    source = """
        import os

        def promote(a, b):
            os.replace(a, b)
    """
    assert rules_of(source) == ["fsync-rename"]


def test_rename_with_fsync_allowed():
    source = """
        import os

        def promote(handle, a, b):
            os.fsync(handle.fileno())
            os.replace(a, b)
    """
    assert rules_of(source) == []


def test_rename_with_fsync_helper_allowed():
    source = """
        import os

        def promote(a, b):
            os.rename(a, b)
            _fsync_dir(b)
    """
    assert rules_of(source) == []


# ----------------------------------------------------------------------
# unseeded-random


def test_module_level_random_flagged():
    assert rules_of("import random\nx = random.random()\n") == [
        "unseeded-random"
    ]


def test_unseeded_random_instance_flagged():
    assert rules_of("import random\nrng = random.Random()\n") == [
        "unseeded-random"
    ]


def test_seeded_random_instance_allowed():
    assert rules_of("import random\nrng = random.Random(7)\n") == []


def test_unseeded_default_rng_flagged():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert rules_of(source) == ["unseeded-random"]


def test_seeded_default_rng_allowed():
    source = "import numpy as np\nrng = np.random.default_rng(11)\n"
    assert rules_of(source) == []


def test_legacy_numpy_global_rng_flagged():
    source = "import numpy as np\nx = np.random.rand(3)\n"
    assert rules_of(source) == ["unseeded-random"]


# ----------------------------------------------------------------------
# Finding plumbing + CLI.


def test_findings_sorted_and_rendered():
    source = "import time\nb = time.time()\na = time.time()\n"
    findings = repolint.lint_source(source, "mod.py")
    assert [f.line for f in findings] == [2, 3]
    assert findings[0].render().startswith("mod.py:2: [wall-clock]")
    assert findings[0].as_dict()["rule"] == "wall-clock"


def test_cli_clean_run(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 finding(s)" in proc.stdout


def test_cli_json_output(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nx = time.time()\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(bad), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "wall-clock"
    assert payload["findings"][0]["line"] == 2


def test_cli_list_rules():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for rule in repolint.RULES:
        assert rule in proc.stdout


# ----------------------------------------------------------------------
# Enforcement: the repo's own source tree must stay clean.


def test_src_tree_is_clean():
    findings = repolint.lint_paths([str(REPO / "src")])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"repolint findings in src/:\n{rendered}"


def test_tools_tree_is_clean():
    findings = repolint.lint_paths([str(REPO / "tools")])
    assert findings == [], [f.render() for f in findings]


# ----------------------------------------------------------------------
# metric-catalog (opt-in via --metrics-doc)


def test_collect_metric_names_only_sees_factory_calls(tmp_path):
    source = textwrap.dedent(
        """
        registry.counter("metasql_good_total", "h").inc()
        registry.gauge("metasql_depth", "h", labelnames=("t",))
        registry.histogram("metasql_lat_seconds", "h")
        name = "metasql_not_a_metric"          # plain string: ignored
        lookup = registry.get("metasql_fetched")  # not a factory: ignored
        registry.counter(dynamic_name, "h")       # non-literal: ignored
        """
    )
    (tmp_path / "mod.py").write_text(source)
    names = repolint.collect_metric_names([str(tmp_path)])
    assert sorted(names) == [
        "metasql_depth",
        "metasql_good_total",
        "metasql_lat_seconds",
    ]
    path, line = names["metasql_good_total"][0]
    assert path.endswith("mod.py") and line == 2


def test_metric_catalog_flags_undocumented_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        'registry.counter("metasql_documented_total", "h")\n'
        'registry.counter("metasql_missing_total", "h")\n'
    )
    doc = tmp_path / "DESIGN.md"
    doc.write_text("| `metasql_documented_total` | counts things |\n")
    findings = repolint.check_metric_catalog(
        [str(tmp_path)], [str(doc)]
    )
    assert [f.rule for f in findings] == ["metric-catalog"]
    assert "metasql_missing_total" in findings[0].message
    assert findings[0].line == 2


def test_metric_catalog_flags_stale_rows(tmp_path):
    (tmp_path / "mod.py").write_text(
        'registry.counter("metasql_live_total", "h")\n'
    )
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "| Metric | Type |\n"
        "| `metasql_live_total` | counter |\n"
        "| `metasql_gone_total` | counter |\n"
    )
    findings = repolint.check_metric_catalog(
        [str(tmp_path)], [str(doc)]
    )
    assert [f.rule for f in findings] == ["metric-catalog"]
    assert "metasql_gone_total" in findings[0].message
    assert (findings[0].path, findings[0].line) == (str(doc), 3)


def test_metric_catalog_checks_rows_without_the_metasql_prefix(tmp_path):
    (tmp_path / "mod.py").write_text(
        'registry.histogram("serve_live_seconds", "h")\n'
        'registry.counter("checkpoint_undocumented_total", "h")\n'
    )
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "| metric | kind |\n"
        "| `serve_live_seconds` | histogram |\n"
        "| `serve_gone_total` | counter |\n"
        "| `serve_note` | a table row that is not a metric |\n"
    )
    findings = repolint.check_metric_catalog(
        [str(tmp_path)], [str(doc)]
    )
    assert [(f.path, f.line) for f in findings] == [
        (str(doc), 3),
        (str(tmp_path / "mod.py"), 2),
    ]
    assert "serve_gone_total" in findings[0].message
    assert "checkpoint_undocumented_total" in findings[1].message


def test_metric_catalog_clean_when_documented(tmp_path):
    (tmp_path / "mod.py").write_text(
        'registry.counter("metasql_documented_total", "h")\n'
    )
    doc = tmp_path / "DESIGN.md"
    doc.write_text("`metasql_documented_total` is documented here\n")
    assert (
        repolint.check_metric_catalog([str(tmp_path)], [str(doc)]) == []
    )


def test_cli_metrics_doc_flag(tmp_path):
    (tmp_path / "mod.py").write_text(
        'registry.counter("metasql_orphan_total", "h")\n'
    )
    doc = tmp_path / "DESIGN.md"
    doc.write_text("no metrics here\n")
    proc = subprocess.run(
        [
            sys.executable,
            str(TOOL),
            str(tmp_path),
            "--metrics-doc",
            str(doc),
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "metric-catalog"


def test_every_constructed_metric_is_catalogued():
    findings = repolint.check_metric_catalog(
        [str(REPO / "src")], [str(REPO / "DESIGN.md")]
    )
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"undocumented metrics:\n{rendered}"


# ----------------------------------------------------------------------
# event-catalog (opt-in via --events-doc)


def test_collect_event_names_only_sees_dict_literals(tmp_path):
    source = textwrap.dedent(
        """
        journal.append({"event": "swap", "outcome": o})
        journal.append({"event": "translate", "ok": True})
        kind = record.get("event")            # read, not emission
        other = {"type": "not_an_event"}      # different key: ignored
        dyn = {"event": name}                 # non-literal: ignored
        """
    )
    (tmp_path / "mod.py").write_text(source)
    names = repolint.collect_event_names([str(tmp_path)])
    assert sorted(names) == ["swap", "translate"]
    path, line = names["swap"][0]
    assert path.endswith("mod.py") and line == 2


def test_event_catalog_flags_undocumented_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        'a = {"event": "documented"}\nb = {"event": "mystery"}\n'
    )
    doc = tmp_path / "DESIGN.md"
    doc.write_text("| `documented` | emitted on every request |\n")
    findings = repolint.check_event_catalog([str(tmp_path)], [str(doc)])
    assert [f.rule for f in findings] == ["event-catalog"]
    assert "mystery" in findings[0].message
    assert findings[0].line == 2


def test_event_catalog_flags_stale_rows(tmp_path):
    (tmp_path / "mod.py").write_text('a = {"event": "translate"}\n')
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "| event | emitted by | when |\n"
        "| `translate` | `serve/service.py` | every request |\n"
        "| `swap` | `serve/service.py` | every hot swap |\n"
        "| `swap` | (root) | a span row, not an event row |\n"
    )
    findings = repolint.check_event_catalog([str(tmp_path)], [str(doc)])
    assert [f.rule for f in findings] == ["event-catalog"]
    assert "'swap'" in findings[0].message
    assert (findings[0].path, findings[0].line) == (str(doc), 3)


def test_event_catalog_requires_code_formatting(tmp_path):
    # "eval" is an English word; prose mentions must not satisfy the
    # catalog — the doc has to carry the name as code.
    (tmp_path / "mod.py").write_text('a = {"event": "eval"}\n')
    doc = tmp_path / "DESIGN.md"
    doc.write_text("we evaluate things during evaluation\n")
    findings = repolint.check_event_catalog([str(tmp_path)], [str(doc)])
    assert [f.rule for f in findings] == ["event-catalog"]


def test_cli_events_doc_flag(tmp_path):
    (tmp_path / "mod.py").write_text('a = {"event": "orphan_event"}\n')
    doc = tmp_path / "DESIGN.md"
    doc.write_text("no events here\n")
    proc = subprocess.run(
        [
            sys.executable,
            str(TOOL),
            str(tmp_path),
            "--events-doc",
            str(doc),
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "event-catalog"


def test_every_emitted_event_is_catalogued():
    findings = repolint.check_event_catalog(
        [str(REPO / "src")], [str(REPO / "DESIGN.md")]
    )
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"undocumented journal events:\n{rendered}"


# ----------------------------------------------------------------------
# stale-pragma (opt-in via --strict-pragmas)


def test_stale_pragma_flagged():
    source = """
        x = 1  # repolint: allow[wall-clock]
    """
    findings = repolint.lint_source(
        textwrap.dedent(source), strict_pragmas=True
    )
    assert [f.rule for f in findings] == ["stale-pragma"]
    assert "wall-clock" in findings[0].message


def test_useful_pragma_not_stale():
    source = """
        import time
        stamp = time.time()  # repolint: allow[wall-clock]
    """
    assert (
        repolint.lint_source(textwrap.dedent(source), strict_pragmas=True)
        == []
    )


def test_pragma_above_finding_not_stale():
    source = """
        import time
        # repolint: allow[wall-clock]
        stamp = time.time()
    """
    assert (
        repolint.lint_source(textwrap.dedent(source), strict_pragmas=True)
        == []
    )


def test_unknown_rule_pragma_flagged():
    source = "x = 1  # repolint: allow[no-such-rule]\n"
    findings = repolint.lint_source(source, strict_pragmas=True)
    assert [f.rule for f in findings] == ["stale-pragma"]
    assert "unknown rule" in findings[0].message


def test_catalog_rule_pragma_always_stale():
    # metric-catalog is doc-driven and never honours pragmas, so a
    # pragma naming it is dead weight.
    source = 'registry.counter("metasql_x_total", "h")  # repolint: allow[metric-catalog]\n'
    findings = repolint.lint_source(source, strict_pragmas=True)
    assert [f.rule for f in findings] == ["stale-pragma"]
    assert "no effect" in findings[0].message


def test_pragma_in_string_not_parsed():
    # Pragma-shaped text inside a string is neither honoured as a
    # suppression nor flagged as stale.
    source = (
        "import time\n"
        'doc = "# repolint: allow[wall-clock]"\n'
        "stamp = time.time()\n"
    )
    findings = repolint.lint_source(source, strict_pragmas=True)
    assert [f.rule for f in findings] == ["wall-clock"]


def test_cli_strict_pragmas_flag(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1  # repolint: allow[broad-except]\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), "--strict-pragmas"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "stale-pragma" in proc.stdout


def test_src_and_tools_have_no_stale_pragmas():
    findings = repolint.lint_paths(
        [str(REPO / "src"), str(REPO / "tools")], strict_pragmas=True
    )
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"stale pragmas:\n{rendered}"
