#!/usr/bin/env python
"""Whole-repo lock-discipline analysis for MetaSQL: every lock a leaf.

The serving stack is concurrent: worker threads, the service's
counters, breaker boards, the metrics registry and the journal share
state under six ``threading.Lock`` sites, and the design rule is that
no code path takes a lock while holding another.  This tool checks
that rule with an AST-based **interprocedural** pass over the whole
source tree:

1. **Inventory** — every lock object (``self._x = threading.Lock()``)
   gets a stable identity ``ClassName.attr``; every ``with``/
   ``.acquire()`` site that takes it is recorded.
2. **Summaries** — calls made while a lock is held are resolved
   through a module-level call graph (``self`` methods, base classes,
   attribute types inferred from constructor assignments and
   annotations, module functions, annotated return types for chained
   calls); each function's summary holds the locks it may take, the
   blocking calls and the callbacks it may reach.
3. **Diagnostics** (stable ``CCnnn`` codes):

   ``CC001`` lock-under-lock
       A lock acquired while a lock is held, directly (``with`` inside
       ``with``) or through a resolved call — whatever the lock kind,
       and whether it is the same lock, another instance's or another
       class's.  Every lock must be a leaf.
   ``CC002`` blocking-under-lock
       A known-blocking operation (queue ``get``/``put``, ``wait`` on a
       *different* condition, ``sleep``, ``join``, ``Future.result``,
       file/socket I/O, ``open``, ``os.fsync``/``os.replace``, a
       journal append) is reachable while a lock is held.
       Waiting on the condition you hold is the designed use of
       ``Condition`` (the wait releases it) and is exempt.
   ``CC004`` callback-under-lock
       An observer callback (``self.on_*`` / ``self._notify``) invoked
       — directly or through helpers — while a lock is held.  The repo
       idiom is queue-under-lock, flush-outside.
   ``CC006`` stale-pragma
       (``--strict-pragmas``) a ``# locklint: allow[...]`` pragma that
       no longer suppresses anything.

Suppressing a finding
---------------------
Put ``# locklint: allow[CC002]`` (comma-separated codes allowed) on the
offending line or the line directly above it, with a justification::

    with self._lock:  # locklint: allow[CC002] — append IS the fsync point

Usage
-----
::

    python tools/locklint.py src/ [more paths...] [--format text|json]
    python tools/locklint.py src/ --inventory
    python tools/locklint.py src/ --strict-pragmas
    python tools/locklint.py --list

Exit status is 1 when any finding is reported, 0 when clean.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
from dataclasses import dataclass, field

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repolint import (  # noqa: E402  (path bootstrap above)
    Finding,
    _dotted,
    apply_pragmas,
    iter_python_files,
    parse_pragmas,
)

#: code -> one-line description (the ``--list`` output).
CODES: dict[str, str] = {
    "CC001": "lock acquired while a lock is held (every lock is a leaf)",
    "CC002": "known-blocking call reachable while a lock is held",
    "CC004": "observer callback invoked while a lock is held",
    "CC006": "stale '# locklint: allow[...]' pragma (--strict-pragmas)",
}

#: Lock constructor call names -> lock kind.
_LOCK_FACTORIES: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
}

#: Dotted-call names that always block (module-level functions).
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "time.sleep",
    "os.fsync": "os.fsync",
    "os.fdatasync": "os.fdatasync",
    "os.replace": "os.replace",
    "os.rename": "os.rename",
    "open": "open (file I/O)",
    "socket.create_connection": "socket I/O",
}

#: Method names that block regardless of receiver type.
_BLOCKING_ATTRS: dict[str, str] = {
    "result": "Future.result",
    "recv": "socket recv",
    "send": "socket send",
    "sendall": "socket sendall",
    "accept": "socket accept",
    "connect": "socket connect",
    "sleep": "sleep",  # injectable self._sleep idiom
}

#: queue.Queue methods that block unless told not to.
_QUEUE_BLOCKING = {"get", "put"}


def _lock_factory_kind(node: ast.AST) -> str | None:
    """The lock kind constructed by *node*, or None.

    Looks through conditional expressions so idioms like
    ``threading.Lock() if flag else other`` still register.
    """
    if isinstance(node, ast.IfExp):
        return _lock_factory_kind(node.body) or _lock_factory_kind(
            node.orelse
        )
    if not isinstance(node, ast.Call):
        return None
    return _LOCK_FACTORIES.get(_dotted(node.func) or "")


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Bare class names mentioned in an annotation (handles unions,
    subscripts, and string annotations like ``"MetaSQL | None"``)."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names - {"None", "Optional", "Union", "str", "int", "float",
                    "bool", "dict", "list", "tuple", "set", "object"}


# ----------------------------------------------------------------------
# Per-function event model.


@dataclass
class _Acquire:
    """A ``with <lock>:`` region, or a bare ``.acquire()`` up to its release."""

    lock_id: str
    kind: str
    line: int
    body: list = field(default_factory=list)


@dataclass
class _CallSite:
    """A call whose effects must be resolved interprocedurally."""

    receiver: str | None  # "self" | attr name on self | None (module fn)
    chain: tuple[str, ...]  # method chain, e.g. ("registry", "counter")
    line: int


@dataclass
class _Blocking:
    desc: str
    line: int


@dataclass
class _Wait:
    """``.wait()``/``.wait_for()`` on a known condition attribute."""

    lock_id: str
    line: int


@dataclass
class _Callback:
    name: str
    line: int


@dataclass
class _FuncInfo:
    qualname: str  # "Class.method" or "function"
    cls: "_ClassInfo | None"
    path: str
    events: list = field(default_factory=list)
    # Fixpoint summaries: value is (witness line, call chain tuple).
    acquired: dict[str, tuple] = field(default_factory=dict)
    blocking: dict[str, tuple] = field(default_factory=dict)
    callbacks: dict[str, tuple] = field(default_factory=dict)


@dataclass
class _ClassInfo:
    name: str
    module: str
    path: str
    bases: list[str] = field(default_factory=list)
    #: lock attr -> (lock_id, kind, line)
    locks: dict[str, tuple] = field(default_factory=dict)
    #: attr -> candidate type names (class names or "queue.Queue")
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    methods: dict[str, _FuncInfo] = field(default_factory=dict)
    #: method -> return-annotation class-name candidates
    returns: dict[str, set[str]] = field(default_factory=dict)


@dataclass
class _LockSite:
    lock_id: str
    kind: str
    path: str
    line: int
    func: str


# ----------------------------------------------------------------------
# Phase 1: parse every module into classes/functions/events.


class _ModuleCollector(ast.NodeVisitor):
    """Collect classes, lock declarations, attr types, and functions.

    Runs in two phases over every module so that declarations (class
    names, lock attributes, attribute types) from *any* file are visible
    before *any* function body is analyzed:

    - phase ``"decls"`` registers classes, scans ``self.x = ...``
      assignments for lock declarations and attribute types, and records
      method return annotations;
    - phase ``"events"`` builds the per-function event trees, which may
      reference locks and types declared anywhere in the universe.
    """

    def __init__(
        self, path: str, module: str, universe: "_Universe", phase: str
    ):
        self.path = path
        self.module = module
        self.universe = universe
        self.phase = phase

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.phase == "decls":
            info = _ClassInfo(
                name=node.name,
                module=self.module,
                path=self.path,
                bases=[
                    base.id
                    if isinstance(base, ast.Name)
                    else (
                        base.attr
                        if isinstance(base, ast.Attribute)
                        else ""
                    )
                    for base in node.bases
                ],
            )
            self.universe.add_class(info)
        else:
            info = self.universe.get_class(node.name)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self.phase == "decls":
                    self._scan_self_assignments(info, item)
                    if item.returns is not None:
                        info.returns[item.name] = _annotation_names(
                            item.returns
                        )
                elif info is not None:
                    func = self._collect_function(info, item)
                    info.methods.setdefault(item.name, func)
        # Nested classes are rare here; walk them independently.
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                self.visit_ClassDef(item)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self.phase == "events":
            self._collect_function(None, node)

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- helpers --------------------------------------------------------

    def _collect_function(self, cls, node) -> _FuncInfo:
        qual = f"{cls.name}.{node.name}" if cls else node.name
        func = _FuncInfo(qualname=qual, cls=cls, path=self.path)
        annotations = _param_annotations(node)
        func.events = _EventBuilder(
            cls, annotations, self.universe
        ).build(node.body)
        self.universe.add_function(self.module, func, node.name)
        return func

    def _scan_self_assignments(self, cls: _ClassInfo, node) -> None:
        annotations = _param_annotations(node)
        for child in ast.walk(node):
            target, value, ann = None, None, None
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target, value = child.targets[0], child.value
            elif isinstance(child, ast.AnnAssign):
                target, value, ann = child.target, child.value, child.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            kind = _lock_factory_kind(value) if value is not None else None
            if kind is not None:
                cls.locks[attr] = (f"{cls.name}.{attr}", kind, child.lineno)
                continue
            types = set(_annotation_names(ann))
            if value is not None:
                types |= self._value_types(value, annotations)
            if types:
                cls.attr_types.setdefault(attr, set()).update(types)

    def _value_types(self, value: ast.AST, annotations: dict) -> set[str]:
        """Candidate type names for an assigned expression."""
        if isinstance(value, ast.IfExp):
            return self._value_types(value.body, annotations) | (
                self._value_types(value.orelse, annotations)
            )
        if isinstance(value, ast.Call):
            name = _dotted(value.func) or (
                value.func.id if isinstance(value.func, ast.Name) else None
            )
            if name is None:
                return set()
            if name in ("queue.Queue", "Queue"):
                return {"queue.Queue"}
            simple = name.rsplit(".", 1)[-1]
            if self.universe.has_class(simple):
                return {simple}
            returns = self.universe.function_returns(simple)
            if returns:
                return set(returns)
            return set()
        if isinstance(value, ast.Name):
            return set(annotations.get(value.id, set()))
        return set()


def _param_annotations(node) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        names = _annotation_names(arg.annotation)
        if names:
            out[arg.arg] = names
    return out


class _EventBuilder:
    """Turn one function body into the nested event tree."""

    def __init__(self, cls, annotations, universe):
        self.cls = cls
        self.annotations = annotations
        self.universe = universe

    def build(self, body: list) -> list:
        events: list = []
        self._block(body, events)
        return events

    # -- statement walk (preserves with-nesting, skips nested defs) ----

    def _block(self, stmts: list, out: list) -> None:
        """Walk one statement list.

        A bare ``self.<lock>.acquire()`` statement holds the lock for the
        rest of the list, up to and including the first statement that
        calls ``self.<lock>.release()`` (typically the ``try`` whose
        ``finally`` releases it).
        """
        held: list[tuple[str, list]] = []  # (lock_id, out to restore)
        for stmt in stmts:
            lock = (
                self._lock_call(stmt.value, "acquire")
                if isinstance(stmt, ast.Expr)
                else None
            )
            if lock is not None:
                acquire = _Acquire(
                    lock_id=lock[0], kind=lock[1], line=stmt.lineno
                )
                out.append(acquire)
                held.append((lock[0], out))
                out = acquire.body
                continue
            self._stmt(stmt, out)
            released = self._released(stmt) if held else set()
            while held and held[-1][0] in released:
                out = held.pop()[1]

    def _released(self, stmt: ast.AST) -> set[str]:
        """Ids of the locks whose ``.release()`` *stmt* calls."""
        return {
            lock[0]
            for node in ast.walk(stmt)
            if (lock := self._lock_call(node, "release")) is not None
        }

    def _lock_call(self, node: ast.AST, method: str):
        """(lock_id, kind) when *node* is a call ``self.<lock>.<method>()``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            return self._lock_attr(node.func.value)
        return None

    def _stmt(self, stmt: ast.AST, out: list) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # runs later, outside any currently-held lock
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt, out)
            return
        for __, value in ast.iter_fields(stmt):
            if isinstance(value, ast.AST):
                self._expr(value, out)
            elif isinstance(value, list) and value:
                if isinstance(value[0], ast.stmt):
                    self._block(value, out)
                else:
                    for node in value:
                        if isinstance(node, ast.AST):
                            self._expr(node, out)

    def _with(self, stmt, out: list) -> None:
        locks: list[tuple[str, str, int]] = []
        for item in stmt.items:
            lock = self._lock_attr(item.context_expr)
            if lock is not None:
                locks.append((lock[0], lock[1], stmt.lineno))
            else:
                self._expr(item.context_expr, out)
        inner = out
        for lock_id, kind, line in locks:
            acquire = _Acquire(lock_id=lock_id, kind=kind, line=line)
            inner.append(acquire)
            inner = acquire.body
        self._block(stmt.body, inner)

    # -- expression walk ------------------------------------------------

    def _expr(self, node: ast.AST, out: list) -> None:
        for call in [n for n in ast.walk(node) if isinstance(n, ast.Call)]:
            self._call(call, out)

    def _lock_attr(self, node: ast.AST) -> tuple[str, str] | None:
        """(lock_id, kind) when *node* is a known ``self.<lock>`` attr."""
        if (
            self.cls is not None
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            decl = self._lookup_lock(node.attr)
            if decl is not None:
                return decl[0], decl[1]
        return None

    def _lookup_lock(self, attr: str):
        cls = self.cls
        seen = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            if attr in cls.locks:
                return cls.locks[attr]
            cls = next(
                (
                    self.universe.get_class(base)
                    for base in cls.bases
                    if self.universe.has_class(base)
                ),
                None,
            )
        return None

    def _call(self, call: ast.Call, out: list) -> None:
        func = call.func
        dotted = _dotted(func)
        line = call.lineno
        # Direct module-level blocking calls.
        if dotted in _BLOCKING_CALLS:
            out.append(_Blocking(_BLOCKING_CALLS[dotted], line))
            return
        if isinstance(func, ast.Name):
            if func.id == "open":
                out.append(_Blocking(_BLOCKING_CALLS["open"], line))
                return
            out.append(_CallSite(receiver=None, chain=(func.id,), line=line))
            return
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if "fsync" in attr:
            out.append(_Blocking(f"{attr} (fsync helper)", line))
            return
        # Callback idiom: self.on_*() / self._notify().
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and (attr.startswith("on_") or attr == "_notify")
        ):
            out.append(_Callback(attr, line))
            return
        # Condition wait / generic wait.
        if attr in ("wait", "wait_for"):
            lock = self._lock_attr(func.value)
            if lock is not None and lock[1] == "condition":
                out.append(_Wait(lock[0], line))
            else:
                out.append(_Blocking(f".{attr}()", line))
            return
        if attr == "join" and not call.args:
            out.append(_Blocking("join", line))
            return
        if attr in _BLOCKING_ATTRS and attr != "sleep":
            out.append(_Blocking(_BLOCKING_ATTRS[attr], line))
            return
        if attr == "sleep":
            out.append(_Blocking("sleep", line))
            return
        # Queue get/put resolved by receiver type.
        receiver_chain = self._receiver_chain(func.value)
        if attr in _QUEUE_BLOCKING and receiver_chain is not None:
            rtype = self._receiver_types(receiver_chain)
            if "queue.Queue" in rtype and not _nonblocking_queue_call(call):
                out.append(_Blocking(f"queue.Queue.{attr}", line))
                return
        if receiver_chain is None:
            return  # unresolvable receiver (locals, subscripts, ...)
        head, *rest = receiver_chain
        if head != "self":
            return  # only self-rooted chains resolve to known objects
        out.append(
            _CallSite(
                receiver="self" if not rest else rest[0],
                chain=tuple(rest) + (attr,),
                line=line,
            )
        )

    def _receiver_chain(self, node: ast.AST) -> list[str] | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        return None

    def _receiver_types(self, chain: list[str]) -> set[str]:
        if self.cls is None or chain[0] != "self" or len(chain) != 2:
            return set()
        return self.cls.attr_types.get(chain[1], set())


def _nonblocking_queue_call(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "block" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
        if kw.arg == "timeout":
            return True
    return False


# ----------------------------------------------------------------------
# Phase 2: the analysis universe + interprocedural fixpoint.


class _Universe:
    """Every class and function across the analyzed paths."""

    def __init__(self) -> None:
        self.classes: dict[str, _ClassInfo] = {}
        self.known_classes: set[str] = set()  # names seen in the pre-pass
        self.functions: dict[str, _FuncInfo] = {}  # simple name -> info
        self.all_funcs: list[_FuncInfo] = []
        self._returns: dict[str, set[str]] = {}

    def add_class(self, info: _ClassInfo) -> None:
        self.classes.setdefault(info.name, info)

    def note_class_name(self, name: str) -> None:
        self.known_classes.add(name)

    def has_class(self, name: str) -> bool:
        return name in self.classes or name in self.known_classes

    def get_class(self, name: str) -> _ClassInfo | None:
        return self.classes.get(name)

    def add_function(self, module: str, func: _FuncInfo, name: str) -> None:
        self.all_funcs.append(func)
        if func.cls is None:
            self.functions.setdefault(name, func)

    def function_returns(self, name: str) -> set[str]:
        return self._returns.get(name, set())

    def note_function_returns(self, name: str, types: set[str]) -> None:
        if types:
            self._returns.setdefault(name, set()).update(types)

    # -- method resolution ---------------------------------------------

    def resolve_method(
        self, cls: _ClassInfo | None, name: str
    ) -> _FuncInfo | None:
        seen: set[str] = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            if name in cls.methods:
                return cls.methods[name]
            cls = next(
                (
                    self.classes[base]
                    for base in cls.bases
                    if base in self.classes
                ),
                None,
            )
        return None

    def method_returns(self, cls: _ClassInfo | None, name: str) -> set[str]:
        seen: set[str] = set()
        while cls is not None and cls.name not in seen:
            seen.add(cls.name)
            if name in cls.returns:
                return cls.returns[name]
            cls = next(
                (
                    self.classes[base]
                    for base in cls.bases
                    if base in self.classes
                ),
                None,
            )
        return set()

    def resolve_call(
        self, func: _FuncInfo, site: _CallSite
    ) -> list[_FuncInfo]:
        """Target functions a call site may reach (possibly several)."""
        if site.receiver in (None, "self"):
            target = (
                self.functions.get(site.chain[0])
                if site.receiver is None
                else self.resolve_method(func.cls, site.chain[-1])
            )
            return [] if target is None else [target]
        targets: list[_FuncInfo] = []
        # self.attr.m1().m2()... — walk the chain through attr types and
        # return annotations.
        if func.cls is None:
            return targets
        current: set[str] = set(
            func.cls.attr_types.get(site.chain[0], set())
        )
        for step in site.chain[1:-1]:
            nxt: set[str] = set()
            for cls_name in current:
                cls = self.classes.get(cls_name)
                if cls is None:
                    continue
                nxt |= self.method_returns(cls, step)
            current = nxt
        for cls_name in current:
            cls = self.classes.get(cls_name)
            if cls is None:
                continue
            target = self.resolve_method(cls, site.chain[-1])
            if target is not None:
                targets.append(target)
        return targets


def _summarize(universe: _Universe) -> None:
    """Fixpoint over function summaries (sets only grow -> terminates)."""
    changed = True
    while changed:
        changed = False
        for func in universe.all_funcs:
            if _fold_events(universe, func, func.events, chain=()):
                changed = True


def _fold_events(universe, func: _FuncInfo, events, chain) -> bool:
    changed = False
    for event in events:
        if isinstance(event, _Acquire):
            if event.lock_id not in func.acquired:
                func.acquired[event.lock_id] = (event.line, chain)
                changed = True
            if _fold_events(universe, func, event.body, chain):
                changed = True
        elif isinstance(event, _Blocking):
            if event.desc not in func.blocking:
                func.blocking[event.desc] = (event.line, chain)
                changed = True
        elif isinstance(event, _Wait):
            desc = f"wait on {event.lock_id}"
            if desc not in func.blocking:
                func.blocking[desc] = (event.line, chain)
                changed = True
        elif isinstance(event, _Callback):
            if event.name not in func.callbacks:
                func.callbacks[event.name] = (event.line, chain)
                changed = True
        elif isinstance(event, _CallSite):
            for target in universe.resolve_call(func, event):
                step = (target.qualname,)
                for lock_id, (line, sub) in target.acquired.items():
                    if lock_id not in func.acquired:
                        func.acquired[lock_id] = (event.line, step + sub)
                        changed = True
                for desc, (line, sub) in target.blocking.items():
                    if desc not in func.blocking:
                        func.blocking[desc] = (event.line, step + sub)
                        changed = True
                for name, (line, sub) in target.callbacks.items():
                    if name not in func.callbacks:
                        func.callbacks[name] = (event.line, step + sub)
                        changed = True
    return changed


# ----------------------------------------------------------------------
# Phase 3: findings.


class _Analyzer:
    """Whole-repo analysis: build, summarize, then emit findings."""

    def __init__(self) -> None:
        self.universe = _Universe()
        self.sites: list[_LockSite] = []
        self.findings: list[Finding] = []
        self._seen: set[tuple[str, str, int]] = set()

    # -- loading --------------------------------------------------------

    def load(self, sources: dict[str, str]) -> None:
        """Parse every module (path -> source text) into the universe."""
        parsed = [
            (path, pathlib.Path(path).stem, ast.parse(source, filename=path))
            for path, source in sources.items()
        ]
        # Pre-pass: class names and module-function return annotations
        # must be visible before any declaration scan (attr type
        # inference, e.g. `self.registry = get_registry()` with
        # `def get_registry() -> MetricsRegistry`).
        for _path, _module, tree in parsed:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.universe.note_class_name(node.name)
                elif (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns is not None
                ):
                    self.universe.note_function_returns(
                        node.name, _annotation_names(node.returns)
                    )
        for phase in ("decls", "events"):
            for path, module, tree in parsed:
                _ModuleCollector(path, module, self.universe, phase).visit(
                    tree
                )

    # -- analysis -------------------------------------------------------

    def analyze(self) -> list[Finding]:
        _summarize(self.universe)
        for func in self.universe.all_funcs:
            self._walk(func, func.events, held=[])
        return self.findings

    def _report(self, code: str, path: str, line: int, message: str):
        key = (code, path, line)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(rule=code, path=path, line=line, message=message)
        )

    def _walk(self, func: _FuncInfo, events, held: list[str]) -> None:
        """Emit findings for *events*; *held* lists the held lock ids."""
        for event in events:
            if isinstance(event, _Acquire):
                self.sites.append(
                    _LockSite(
                        lock_id=event.lock_id,
                        kind=event.kind,
                        path=func.path,
                        line=event.line,
                        func=func.qualname,
                    )
                )
                if held:
                    self._nested_finding(
                        func, held, event.lock_id, event.line, ()
                    )
                self._walk(func, event.body, held + [event.lock_id])
            elif isinstance(event, _Blocking):
                if held:
                    self._blocking_finding(
                        func, held, event.desc, event.line, ()
                    )
            elif isinstance(event, _Wait):
                others = [h for h in held if h != event.lock_id]
                if others:
                    self._blocking_finding(
                        func,
                        others,
                        f"Condition.wait on {event.lock_id} while other "
                        "locks are held",
                        event.line,
                        (),
                    )
            elif isinstance(event, _Callback):
                if held:
                    self._report(
                        "CC004",
                        func.path,
                        event.line,
                        f"callback self.{event.name}() invoked under "
                        f"{held[-1]} in {func.qualname}; queue the "
                        "event and flush after releasing the lock",
                    )
            elif isinstance(event, _CallSite) and held:
                self._apply_call_summary(func, event, held)

    def _apply_call_summary(self, func, event: _CallSite, held) -> None:
        for target in self.universe.resolve_call(func, event):
            chain = (target.qualname,)
            for lock_id, (line, sub) in target.acquired.items():
                self._nested_finding(
                    func, held, lock_id, event.line, chain + sub
                )
            for desc, (line, sub) in target.blocking.items():
                if desc.startswith("wait on "):
                    waited = desc[len("wait on "):]
                    others = [h for h in held if h != waited]
                    if not others:
                        continue
                    self._blocking_finding(
                        func, others, desc, event.line, chain + sub
                    )
                    continue
                self._blocking_finding(
                    func, held, desc, event.line, chain + sub
                )
            for name, (line, sub) in target.callbacks.items():
                self._report(
                    "CC004",
                    func.path,
                    event.line,
                    f"callback {name}() reachable under {held[-1]} "
                    f"via {' -> '.join(chain + sub)} in {func.qualname}",
                )

    def _nested_finding(self, func, held, lock_id, line, chain) -> None:
        via = f" via {' -> '.join(chain)}" if chain else ""
        self._report(
            "CC001",
            func.path,
            line,
            f"{lock_id} acquired{via} while holding {held[-1]} in "
            f"{func.qualname}; every lock must be a leaf",
        )

    def _blocking_finding(self, func, held, desc, line, chain) -> None:
        via = f" via {' -> '.join(chain)}" if chain else ""
        self._report(
            "CC002",
            func.path,
            line,
            f"blocking {desc} while holding {held[-1]}{via} in "
            f"{func.qualname}; release the lock before blocking",
        )

    # -- inventory ------------------------------------------------------

    def inventory(self) -> dict:
        locks: dict[str, dict] = {}
        for cls in sorted(
            self.universe.classes.values(), key=lambda c: c.name
        ):
            for attr, (lock_id, kind, line) in sorted(
                cls.locks.items()
            ):
                locks[lock_id] = {
                    "kind": kind,
                    "declared": f"{cls.path}:{line}",
                    "sites": [],
                }
        for site in sorted(
            self.sites, key=lambda s: (s.lock_id, s.path, s.line)
        ):
            entry = locks.setdefault(
                site.lock_id,
                {"kind": site.kind, "declared": None, "sites": []},
            )
            entry["sites"].append(
                f"{site.path}:{site.line} ({site.func})"
            )
        return {"locks": locks}


# ----------------------------------------------------------------------
# Public entry points (mirroring repolint's API shape).


def _read_sources(paths: list[str]) -> dict[str, str]:
    """Path -> source text of every ``.py`` file under *paths*."""
    return {
        str(file): file.read_text(encoding="utf-8")
        for file in iter_python_files(paths)
    }


def _lint_sources(
    sources: dict[str, str], strict_pragmas: bool
) -> list[Finding]:
    """Analyze *sources* as one universe, then apply their pragmas."""
    analyzer = _Analyzer()
    analyzer.load(sources)
    return apply_pragmas(
        analyzer.analyze(),
        {
            path: parse_pragmas(source, tool="locklint")
            for path, source in sources.items()
        },
        strict=strict_pragmas,
        known=CODES,
        stale_rule="CC006",
    )


def lint_paths(
    paths: list[str], strict_pragmas: bool = False
) -> list[Finding]:
    """Analyze every ``.py`` file under *paths* as one universe."""
    return _lint_sources(_read_sources(paths), strict_pragmas)


def lint_source(
    source: str, path: str = "<string>", strict_pragmas: bool = False
) -> list[Finding]:
    """Analyze one module's source text (unit-test entry point)."""
    return _lint_sources({path: source}, strict_pragmas)


def build_inventory(paths: list[str]) -> dict:
    """The lock inventory for *paths*: every lock and the sites that
    take it (JSON-ready)."""
    analyzer = _Analyzer()
    analyzer.load(_read_sources(paths))
    analyzer.analyze()
    return analyzer.inventory()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="locklint", description=__doc__.splitlines()[0]
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--list", action="store_true", help="list diagnostic codes"
    )
    parser.add_argument(
        "--inventory",
        action="store_true",
        help="print the lock inventory (locks and their sites) as JSON",
    )
    parser.add_argument(
        "--strict-pragmas",
        action="store_true",
        help="flag allow[...] pragmas that no longer suppress anything",
    )
    args = parser.parse_args(argv)

    if args.list:
        for code, summary in sorted(CODES.items()):
            print(f"{code:8s} {summary}")
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list)")

    if args.inventory:
        print(json.dumps(build_inventory(args.paths), indent=2))
        return 0

    findings = lint_paths(args.paths, strict_pragmas=args.strict_pragmas)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in findings],
                    "count": len(findings),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
