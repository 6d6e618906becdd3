"""Runtime lock-order witness (the dynamic half of ``tools/locklint.py``).

Linux-kernel ``lockdep`` in miniature: while a :func:`lockdep_scope` is
active, the ``new_lock``/``new_rlock``/``new_condition`` factories hand
out *instrumented* primitives that record, per thread, which lock
classes are held when each lock is taken.  Edges are keyed by lock
**name** (``"ClassName.attr"``, matching the static identity used by
locklint), not by instance, so one run of a chaos test generalizes over
every instance of a class — observing ``A`` held while taking ``B`` in
one thread and ``B`` held while taking ``A`` in another is reported as
an **inversion** even if the two threads never actually deadlocked in
this schedule.

Detected at runtime:

- **order inversions** — a reverse held-before edge already exists in
  the graph; the witness carries the acquisition stacks of *both*
  edges;
- **self-deadlock** — a thread re-acquiring a non-reentrant ``Lock`` it
  already holds raises :class:`LockdepViolation` immediately instead of
  hanging the test run;
- **hold-time outliers** — locks held longer than ``hold_threshold``
  seconds (measured with an injectable clock).

Nesting two *different instances* under the same name (e.g. two
``CircuitBreaker._lock`` objects) is counted (``same_key_nesting``) but
does not create a self-edge: instance order among peers is a policy
question, not an automatic deadlock.

The disabled path is free: with no ambient scope the factories return
plain :mod:`threading` primitives, so production code pays nothing —
the opt-in happens at *construction* time, which is why tests must
build the objects under test **inside** ``lockdep_scope()``::

    with lockdep_scope() as dep:
        service = TranslationService(...)   # locks are instrumented
        ... hammer it from many threads ...
        dep.assert_clean(witness_path="lockdep-witness.json")
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import threading
import time
import traceback
from typing import Callable, Iterator

__all__ = [
    "LockDep",
    "LockdepViolation",
    "lockdep_scope",
    "new_condition",
    "new_lock",
    "new_rlock",
]

#: The ambient witness.  A plain module global (not a ``ContextVar``):
#: worker threads spawned inside the scope must observe it too.
_ACTIVE: "LockDep | None" = None

_STACK_LIMIT = 12
_SELF = str(pathlib.Path(__file__).resolve())


class LockdepViolation(AssertionError):
    """A lock-discipline violation observed at runtime."""


def _capture_stack() -> list[str]:
    """The current acquisition stack, minus lockdep's own frames."""
    frames = traceback.extract_stack(limit=_STACK_LIMIT + 4)
    return [
        f"{frame.filename}:{frame.lineno} in {frame.name}"
        for frame in frames
        if frame.filename != _SELF
    ][-_STACK_LIMIT:]


class LockDep:
    """The witness: per-thread held stacks plus the global edge graph."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        hold_threshold: float | None = None,
    ) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.hold_threshold = hold_threshold
        # Leaf guard for the witness's own state; never exposed.
        self._guard = threading.Lock()
        #: thread ident -> [(name, id(lock), acquire timestamp), ...]
        self._held: dict[int, list[tuple[str, int, float]]] = {}
        #: (held_name, then_name) -> acquisition stack of the first
        #: observation of that edge.
        self._edges: dict[tuple[str, str], list[str]] = {}
        self.inversions: list[dict] = []
        self.violations: list[dict] = []
        self.hold_outliers: list[dict] = []
        self.same_key_nesting: int = 0
        #: Liveness probes: regression tests assert on these to prove a
        #: run was genuinely instrumented (an accidentally-empty scope
        #: would otherwise pass vacuously).
        self.acquisitions: int = 0
        self.seen: set[str] = set()

    # -- instrumentation callbacks (called by the wrapper classes) -----

    def _stack_for(self, ident: int) -> list[tuple[str, int, float]]:
        with self._guard:
            return self._held.setdefault(ident, [])

    def check_before_acquire(self, name: str, obj: int) -> None:
        """Raise instead of letting a thread self-deadlock."""
        ident = threading.get_ident()
        held = self._stack_for(ident)
        if any(h_obj == obj for _h, h_obj, _t in held):
            stack = _capture_stack()
            record = {
                "kind": "self-deadlock",
                "lock": name,
                "thread": threading.current_thread().name,
                "stack": stack,
            }
            with self._guard:
                self.violations.append(record)
            raise LockdepViolation(
                f"thread {record['thread']!r} re-acquired non-reentrant "
                f"lock {name!r} it already holds"
            )

    def on_acquired(self, name: str, obj: int) -> None:
        ident = threading.get_ident()
        held = self._stack_for(ident)
        now = self._clock()
        stack: list[str] | None = None
        with self._guard:
            self.acquisitions += 1
            self.seen.add(name)
            for held_name, held_obj, _t in held:
                if held_name == name:
                    # A sibling instance of the same lock class; peer
                    # order is policy, not an automatic deadlock.
                    self.same_key_nesting += 1
                    continue
                edge = (held_name, name)
                reverse = (name, held_name)
                if reverse in self._edges:
                    if stack is None:
                        stack = _capture_stack()
                    self.inversions.append(
                        {
                            "edge": list(edge),
                            "prior_edge": list(reverse),
                            "prior_stack": self._edges[reverse],
                            "stack": stack,
                            "thread": threading.current_thread().name,
                        }
                    )
                if edge not in self._edges:
                    if stack is None:
                        stack = _capture_stack()
                    self._edges[edge] = stack
        held.append((name, obj, now))

    def on_released(self, name: str, obj: int) -> None:
        ident = threading.get_ident()
        held = self._stack_for(ident)
        now = self._clock()
        for index in range(len(held) - 1, -1, -1):
            held_name, held_obj, acquired_at = held[index]
            if held_obj == obj:
                del held[index]
                duration = now - acquired_at
                if (
                    self.hold_threshold is not None
                    and duration > self.hold_threshold
                ):
                    with self._guard:
                        self.hold_outliers.append(
                            {
                                "lock": name,
                                "held_seconds": duration,
                                "thread": (
                                    threading.current_thread().name
                                ),
                            }
                        )
                return

    # -- reporting ------------------------------------------------------

    def edges(self) -> set[tuple[str, str]]:
        """The observed held-before edges, as (held, then) name pairs."""
        with self._guard:
            return set(self._edges)

    def report(self) -> dict:
        with self._guard:
            return {
                "edges": [
                    {"held": a, "then": b, "stack": stack}
                    for (a, b), stack in sorted(self._edges.items())
                ],
                "inversions": list(self.inversions),
                "violations": list(self.violations),
                "hold_outliers": list(self.hold_outliers),
                "same_key_nesting": self.same_key_nesting,
                "acquisitions": self.acquisitions,
                "locks_seen": sorted(self.seen),
            }

    def assert_clean(
        self, witness_path: str | pathlib.Path | None = None
    ) -> None:
        """Raise :class:`LockdepViolation` if anything bad was seen.

        When *witness_path* is given, the full report (acquisition
        stacks for both edges of every inversion) is dumped there as
        JSON before raising, so CI failures are actionable.
        """
        report = self.report()
        problems = report["inversions"] or report["violations"]
        if not problems:
            return
        if witness_path is not None:
            path = pathlib.Path(witness_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report, indent=2))
        first = problems[0]
        detail = (
            f"{first['edge'][0]} -> {first['edge'][1]} inverts "
            f"{first['prior_edge'][0]} -> {first['prior_edge'][1]}"
            if "edge" in first
            else first.get("lock", "?")
        )
        raise LockdepViolation(
            f"{len(report['inversions'])} lock-order inversion(s), "
            f"{len(report['violations'])} violation(s); first: {detail}"
            + (f" (witness: {witness_path})" if witness_path else "")
        )


# ----------------------------------------------------------------------
# Instrumented primitives.


class _DepLock:
    """A ``threading.Lock`` that reports to the owning :class:`LockDep`."""

    _reentrant = False

    def __init__(self, dep: LockDep, name: str) -> None:
        self._dep = dep
        self._name = name
        self._real = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking and timeout < 0:
            # The only variant that can hang forever on self-deadlock.
            self._dep.check_before_acquire(self._name, id(self))
        ok = self._real.acquire(blocking, timeout)
        if ok:
            self._dep.on_acquired(self._name, id(self))
        return ok

    def release(self) -> None:
        self._dep.on_released(self._name, id(self))
        self._real.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class _DepRLock:
    """A ``threading.RLock`` wrapper; re-acquires record no edges."""

    def __init__(self, dep: LockDep, name: str) -> None:
        self._dep = dep
        self._name = name
        self._real = threading.RLock()
        self._counts: dict[int, int] = {}  # thread ident -> depth

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._real.acquire(blocking, timeout)
        if ok:
            ident = threading.get_ident()
            depth = self._counts.get(ident, 0)
            self._counts[ident] = depth + 1
            if depth == 0:
                self._dep.on_acquired(self._name, id(self))
        return ok

    def release(self) -> None:
        ident = threading.get_ident()
        depth = self._counts.get(ident, 0) - 1
        if depth <= 0:
            self._counts.pop(ident, None)
            self._dep.on_released(self._name, id(self))
        else:
            self._counts[ident] = depth
        self._real.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class _DepCondition:
    """A ``threading.Condition`` wrapper.

    Entering the condition is a lock acquisition; ``wait``/``wait_for``
    release the underlying lock while blocked, and the held-stack
    bookkeeping mirrors that so edges recorded *after* a wait do not
    claim the condition was held through it.
    """

    def __init__(self, dep: LockDep, name: str) -> None:
        self._dep = dep
        self._name = name
        self._real = threading.Condition()

    def acquire(self, *args) -> bool:
        ok = self._real.acquire(*args)
        if ok:
            self._dep.on_acquired(self._name, id(self))
        return ok

    def release(self) -> None:
        self._dep.on_released(self._name, id(self))
        self._real.release()

    def __enter__(self) -> bool:
        self.acquire()
        return True

    def __exit__(self, *exc_info) -> None:
        self.release()

    def wait(self, timeout: float | None = None) -> bool:
        self._dep.on_released(self._name, id(self))
        try:
            return self._real.wait(timeout)
        finally:
            self._dep.on_acquired(self._name, id(self))

    def wait_for(self, predicate, timeout: float | None = None):
        self._dep.on_released(self._name, id(self))
        try:
            return self._real.wait_for(predicate, timeout)
        finally:
            self._dep.on_acquired(self._name, id(self))

    def notify(self, n: int = 1) -> None:
        self._real.notify(n)

    def notify_all(self) -> None:
        self._real.notify_all()


# ----------------------------------------------------------------------
# The factory seam production code imports.


def new_lock(name: str):
    """A named mutex: plain ``threading.Lock`` unless a scope is active."""
    dep = _ACTIVE
    if dep is None:
        return threading.Lock()
    return _DepLock(dep, name)


def new_rlock(name: str):
    """A named reentrant lock; instrumented under an active scope."""
    dep = _ACTIVE
    if dep is None:
        return threading.RLock()
    return _DepRLock(dep, name)


def new_condition(name: str):
    """A named condition variable; instrumented under an active scope."""
    dep = _ACTIVE
    if dep is None:
        return threading.Condition()
    return _DepCondition(dep, name)


@contextlib.contextmanager
def lockdep_scope(
    clock: Callable[[], float] | None = None,
    hold_threshold: float | None = None,
) -> Iterator[LockDep]:
    """Install a :class:`LockDep` witness for the duration of the block.

    Only locks *constructed* inside the scope are instrumented; build
    the objects under test inside it.  Scopes do not nest — the inner
    scope wins until it exits (last-in, restored on exit).
    """
    global _ACTIVE
    previous = _ACTIVE
    dep = LockDep(clock=clock, hold_threshold=hold_threshold)
    _ACTIVE = dep
    try:
        yield dep
    finally:
        _ACTIVE = previous
