"""locklint: per-code unit tests, interprocedural cases, src/ gate.

Mirrors ``test_repolint.py``: synthetic modules exercise each ``CCnnn``
diagnostic plus the resolution machinery (self calls, attribute-typed
calls, condition-wait exemptions, queue typing), then the enforcement
gate pins the repo's own ``src/`` tree clean — so every one of its six
locks stays a leaf — and its lock set exact: lock discipline that
regresses fails tier-1, not CI.
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
TOOL = REPO / "tools" / "locklint.py"

spec = importlib.util.spec_from_file_location("locklint", TOOL)
locklint = importlib.util.module_from_spec(spec)
sys.modules["locklint"] = locklint  # dataclasses resolve the module by name
spec.loader.exec_module(locklint)


def codes_of(source: str, strict: bool = False) -> list[str]:
    findings = locklint.lint_source(
        textwrap.dedent(source), strict_pragmas=strict
    )
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# CC001: a lock acquired while a lock is held (every lock is a leaf).


CYCLE = """
    import threading

    class A:
        def __init__(self):
            self._lock = threading.Lock()
            self.b = B()

        def forward(self):
            with self._lock:
                self.b.leaf()

        def leaf(self):
            with self._lock:
                pass

    class B:
        def __init__(self):
            self._lock = threading.Lock()
            self.a = A()

        def leaf(self):
            with self._lock:
                pass

        def backward(self):
            with self._lock:
                self.a.leaf()
"""


def test_opposite_order_across_classes_is_a_cycle():
    # Both halves of the cycle are nested acquisitions, each flagged.
    findings = locklint.lint_source(textwrap.dedent(CYCLE))
    assert [(f.rule, f.line) for f in findings] == [
        ("CC001", 11),  # forward: self.b.leaf()
        ("CC001", 28),  # backward: self.a.leaf()
    ]


def test_cycle_message_names_both_locks():
    findings = locklint.lint_source(textwrap.dedent(CYCLE))
    assert "A._lock" in findings[0].message
    assert "B._lock" in findings[0].message


NESTED_THROUGH_CALL = """
    import threading

    class Outer:
        def __init__(self):
            self._lock = threading.Lock()
            self.inner = Inner()

        def run(self):
            with self._lock:
                self.inner.leaf()

    class Inner:
        def __init__(self):
            self._lock = threading.Lock()

        def leaf(self):
            with self._lock:
                pass
"""


def test_lock_taken_through_call_under_lock_flagged():
    # One consistent order is still a nested acquisition.
    findings = locklint.lint_source(
        textwrap.dedent(NESTED_THROUGH_CALL), path="mod.py"
    )
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("CC001", "mod.py", 11)  # the resolving call line
    ]
    assert "Inner.leaf" in findings[0].message  # the call chain is named
    assert "Inner._lock" in findings[0].message
    assert "Outer._lock" in findings[0].message


def test_lock_taken_after_release_is_clean():
    source = """
        import threading

        class Outer:
            def __init__(self):
                self._lock = threading.Lock()
                self.inner = Inner()

            def run(self):
                with self._lock:
                    pending = list(self.items)
                self.inner.leaf(pending)

        class Inner:
            def __init__(self):
                self._lock = threading.Lock()

            def leaf(self, pending):
                with self._lock:
                    self.items = pending
    """
    assert codes_of(source) == []


def test_nested_with_same_lock_flagged():
    source = """
        import threading

        class Bad:
            def __init__(self):
                self._lock = threading.Lock()

            def once(self):
                with self._lock:
                    with self._lock:
                        pass
    """
    assert codes_of(source) == ["CC001"]


def test_reacquire_via_self_call_flagged():
    source = """
        import threading

        class Bad:
            def __init__(self):
                self._lock = threading.Lock()

            def outer(self):
                with self._lock:
                    self._inner()

            def _inner(self):
                with self._lock:
                    pass
    """
    assert codes_of(source) == ["CC001"]


def test_rlock_reacquire_flagged():
    # The leaf rule ignores lock kind: a reentrant lock is no exception.
    source = """
        import threading

        class Fine:
            def __init__(self):
                self._lock = threading.RLock()

            def outer(self):
                with self._lock:
                    self._inner()

            def _inner(self):
                with self._lock:
                    pass
    """
    assert codes_of(source) == ["CC001"]


def test_peer_instance_same_class_flagged():
    # self.peer is a *different* instance of the same class; taking its
    # lock under ours nests two locks all the same.
    source = """
        import threading

        class Worker:
            def __init__(self, peer=None):
                self._lock = threading.Lock()
                self.peer = peer if peer is not None else Worker()

            def chain(self):
                with self._lock:
                    self.peer.poke()

            def poke(self):
                with self._lock:
                    pass
    """
    findings = locklint.lint_source(textwrap.dedent(source))
    assert [(f.rule, f.line) for f in findings] == [("CC001", 11)]
    assert "Worker.poke" in findings[0].message


# ----------------------------------------------------------------------
# CC002: blocking while holding a lock.


def test_sleep_under_lock_flagged():
    source = """
        import threading
        import time

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(1)
    """
    assert codes_of(source) == ["CC002"]


def test_blocking_reached_through_helper_flagged():
    # The dataflow generalization: append itself looks innocent; the
    # fsync lives two calls down.
    source = """
        import os
        import threading

        class Log:
            def __init__(self):
                self._lock = threading.Lock()

            def append(self, line):
                with self._lock:
                    self._write(line)

            def _write(self, line):
                self._sync()

            def _sync(self):
                os.fsync(3)
    """
    findings = locklint.lint_source(textwrap.dedent(source))
    assert [f.rule for f in findings] == ["CC002"]
    assert "os.fsync" in findings[0].message
    assert "Log._write" in findings[0].message  # the call chain is named


def test_blocking_outside_lock_is_clean():
    source = """
        import os
        import threading

        class Log:
            def __init__(self):
                self._lock = threading.Lock()

            def append(self, line):
                with self._lock:
                    self._pending.append(line)
                os.fsync(3)
    """
    assert codes_of(source) == []


def test_queue_get_under_lock_flagged():
    source = """
        import queue
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.jobs = queue.Queue()

            def take(self):
                with self._lock:
                    return self.jobs.get()
    """
    assert codes_of(source) == ["CC002"]


def test_nonblocking_queue_get_is_clean():
    source = """
        import queue
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.jobs = queue.Queue()

            def take(self):
                with self._lock:
                    first = self.jobs.get_nowait()
                    second = self.jobs.get(block=False)
                    return first, second
    """
    assert codes_of(source) == []


def test_dict_get_is_not_a_queue_wait():
    source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self.items = {}

            def lookup(self, key):
                with self._lock:
                    return self.items.get(key)
    """
    assert codes_of(source) == []


def test_wait_on_own_condition_is_exempt():
    # Waiting releases the condition you hold: that is the designed use.
    source = """
        import threading

        class Guard:
            def __init__(self):
                self._cond = threading.Condition()

            def drain(self):
                with self._cond:
                    self._cond.wait_for(lambda: True)
    """
    assert codes_of(source) == []


def test_wait_while_holding_another_lock_flagged():
    source = """
        import threading

        class Guard:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition()

            def drain(self):
                with self._lock:
                    with self._cond:
                        self._cond.wait()
    """
    # Taking the condition under the lock is itself a nested acquisition.
    assert codes_of(source) == ["CC001", "CC002"]


# ----------------------------------------------------------------------
# CC004: callbacks under a lock, directly or through helpers.


def test_direct_callback_under_lock_flagged():
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                with self._lock:
                    self.on_transition("open")
    """
    assert codes_of(source) == ["CC004"]


def test_callback_through_helper_flagged():
    # The callback is one call away from the lock.
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                with self._lock:
                    self._drain()

            def _drain(self):
                self.on_transition("open")
    """
    findings = locklint.lint_source(textwrap.dedent(source))
    assert [f.rule for f in findings] == ["CC004"]
    assert "Breaker._drain" in findings[0].message


def test_queue_then_flush_outside_is_clean():
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                with self._lock:
                    self._pending.append("open")
                self.on_transition("open")
    """
    assert codes_of(source) == []


def test_callback_under_lock_flagged():
    # Re-entrancy does not excuse a callback: an RLock is still held.
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.RLock()

            def trip(self):
                with self._lock:
                    self.on_transition("open")
    """
    findings = locklint.lint_source(textwrap.dedent(source))
    assert [f.rule for f in findings] == ["CC004"]
    assert "Breaker._lock" in findings[0].message


def test_callback_after_lock_allowed():
    # The helper that calls back runs after the lock is released.
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                with self._lock:
                    self._pending.append("open")
                self._flush()

            def _flush(self):
                self.on_transition("open")
    """
    assert codes_of(source) == []


def test_notify_under_lock_flagged():
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                with self._lock:
                    self._notify()
    """
    assert codes_of(source) == ["CC004"]


def test_nested_function_resets_lock_context():
    # A function *defined* inside a with-lock body runs later, outside
    # the lock; calls in its body must not be flagged.
    source = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()

            def submit(self):
                with self._lock:
                    def done():
                        self.on_finish()
                    self._callbacks.append(done)
    """
    assert codes_of(source) == []


def test_callback_under_bare_acquire_flagged():
    # acquire(); try: ... finally: release() holds the lock like a with.
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                self._lock.acquire()
                try:
                    self.on_transition("open")
                finally:
                    self._lock.release()
    """
    findings = locklint.lint_source(textwrap.dedent(source))
    assert [f.rule for f in findings] == ["CC004"]
    assert findings[0].line == 11


def test_callback_after_bare_release_allowed():
    source = """
        import threading

        class Breaker:
            def __init__(self):
                self._lock = threading.Lock()

            def trip(self):
                if self._armed:
                    self._lock.acquire()
                    try:
                        self._pending.append("open")
                    finally:
                        self._lock.release()
                    self.on_transition("open")
    """
    assert codes_of(source) == []


def test_bare_acquire_under_with_flagged():
    source = """
        import threading

        class Board:
            def __init__(self):
                self._lock = threading.Lock()
                self._other = threading.Lock()

            def move(self):
                with self._lock:
                    self._other.acquire()
                    self._other.release()
    """
    assert codes_of(source) == ["CC001"]


# ----------------------------------------------------------------------
# Pragmas + CC006.


def test_pragma_suppresses_finding():
    source = """
        import threading
        import time

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(1)  # locklint: allow[CC002] — justified
    """
    assert codes_of(source) == []


def test_stale_pragma_flagged_in_strict_mode():
    source = "x = 1  # locklint: allow[CC002]\n"
    findings = locklint.lint_source(source, strict_pragmas=True)
    assert [f.rule for f in findings] == ["CC006"]
    assert "stale" in findings[0].message


def test_unknown_code_pragma_flagged_in_strict_mode():
    source = "x = 1  # locklint: allow[CC999]\n"
    findings = locklint.lint_source(source, strict_pragmas=True)
    assert [f.rule for f in findings] == ["CC006"]
    assert "unknown" in findings[0].message


def test_useful_pragma_not_stale():
    source = """
        import threading
        import time

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(1)  # locklint: allow[CC002] — justified
    """
    assert codes_of(source, strict=True) == []


# ----------------------------------------------------------------------
# Inventory.


def test_inventory_lists_locks_and_sites(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent(NESTED_THROUGH_CALL))
    inventory = locklint.build_inventory([str(tmp_path)])
    assert set(inventory) == {"locks"}
    assert set(inventory["locks"]) == {"Outer._lock", "Inner._lock"}
    outer = inventory["locks"]["Outer._lock"]
    assert outer["kind"] == "lock"
    assert outer["declared"].endswith("mod.py:6")
    assert any("Outer.run" in site for site in outer["sites"])


# ----------------------------------------------------------------------
# CLI.


def test_cli_list_codes():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for code in locklint.CODES:
        assert code in proc.stdout


def test_cli_clean_run(tmp_path):
    (tmp_path / "good.py").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 finding(s)" in proc.stdout


def test_cli_json_output(tmp_path):
    (tmp_path / "bad.py").write_text(
        textwrap.dedent(
            """
            import threading
            import time

            class W:
                def __init__(self):
                    self._lock = threading.Lock()

                def f(self):
                    with self._lock:
                        time.sleep(1)
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "CC002"


def test_cli_inventory_flag(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import threading\n\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
    )
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), "--inventory"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "C._lock" in json.loads(proc.stdout)["locks"]


# ----------------------------------------------------------------------
# Enforcement: the repo's own source tree must stay clean.


def test_src_tree_is_clean():
    # CC001 included: every lock in src/ is a leaf.
    findings = locklint.lint_paths([str(REPO / "src")])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"locklint findings in src/:\n{rendered}"


def test_src_tree_has_no_stale_locklint_pragmas():
    findings = locklint.lint_paths(
        [str(REPO / "src")], strict_pragmas=True
    )
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"strict locklint findings:\n{rendered}"


def test_src_inventory_covers_the_known_lock_set():
    # The documented lock inventory (DESIGN.md §14).  A new lock in
    # src/ must be added both there and here — that is the point.
    inventory = locklint.build_inventory([str(REPO / "src")])
    assert set(inventory["locks"]) == {
        "CircuitBreaker._lock",
        "Journal._lock",
        "LRUCache._lock",
        "MetricsRegistry._lock",
        "TranslationService._lock",
        "_Family._lock",
    }
