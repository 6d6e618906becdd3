#!/usr/bin/env python
"""Repo-invariant self-lint for the MetaSQL reproduction codebase.

The PR-1..3 layers (resilience, serving, observability) rely on a handful
of coding invariants that plain style checkers cannot see.  This tool
walks Python sources with :mod:`ast` and enforces them:

``wall-clock``
    No direct calls to ``time.time()`` / ``datetime.now()`` /
    ``datetime.utcnow()``.  Every timestamp must flow through an
    injectable clock (the ``clock=`` constructor idiom) so tests can run
    deterministically.  *References* without a call — e.g.
    ``clock or time.time`` as a default — are fine.

``broad-except``
    ``except Exception`` / ``except BaseException`` / bare ``except``
    must carry an explicit pragma.  Fault isolation is deliberate in this
    repo, so broad handlers are allowed — but only when annotated with a
    justification the linter can see.

``contextvar-reset``
    A ``token = <var>.set(...)`` assignment must be paired with a
    ``.reset(token)`` inside a ``finally`` block of the same function, so
    ambient state (tracer, registry, deadline, budget) never leaks across
    translations.  Only names ending in ``token`` are treated as
    ContextVar tokens.

``fsync-rename``
    A function that calls ``os.rename`` / ``os.replace`` (the atomic
    promote step of a persist path) must also call ``os.fsync`` — or a
    helper whose name contains ``fsync`` — so the renamed content is
    durable before the pointer flips.

``unseeded-random``
    No unseeded randomness: ``random.<fn>()`` module-level calls,
    zero-argument ``random.Random()``, zero-argument
    ``np.random.default_rng()``, and legacy ``np.random.<fn>`` globals
    are all flagged.  Every RNG must be seeded or injected so runs are
    reproducible.

``metric-catalog``
    Opt-in (``--metrics-doc DESIGN.md``): every metric name passed
    literally to a registry factory (``.counter``/``.gauge``/
    ``.histogram``) in the linted sources must appear in the given
    catalog doc(s) — a new metric that skips the catalog is silent
    metric drift for operators.  The check runs both ways: a catalog
    row (`` | `name` | counter | ``, kind ``counter``/``gauge``/
    ``histogram``) whose name no linted source constructs is a stale
    row for a metric that no longer exists.

``event-catalog``
    Opt-in (``--events-doc DESIGN.md``): every journal event name — the
    literal string value of an ``"event"`` key in a dict literal — must
    appear in the given catalog doc(s).  Journal consumers (the replay
    analyzer, dashboards) key on these strings; an undocumented
    event is silent schema drift.  The check runs both ways: an
    event-table row (`` | `name` | `module.py` | ``) whose name no
    linted source emits is a stale row for an event that is gone.

``stale-pragma``
    Opt-in (``--strict-pragmas``): an ``allow[...]`` pragma that no
    longer suppresses any finding, or that names an unknown rule.
    Stale pragmas hide real regressions when the code under them
    changes.

Suppressing a finding
---------------------
Put ``# repolint: allow[rule-name]`` (comma-separated list allowed) on
the offending line or the line directly above it::

    except Exception:  # repolint: allow[broad-except] — observer isolation

Only real comments count: pragma-shaped text inside strings or
docstrings (like the example above) is ignored.

Usage
-----
::

    python tools/repolint.py src/ [more paths...] [--format text|json]
    python tools/repolint.py src/ --strict-pragmas
    python tools/repolint.py --list

Exit status is 1 when any finding is reported, 0 when clean.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import pathlib
import re
import sys
import tokenize
from collections.abc import Collection
from dataclasses import dataclass

#: rule-name -> one-line description (the ``--list`` output).
RULES: dict[str, str] = {
    "wall-clock": (
        "direct time.time()/datetime.now() call; use an injectable clock"
    ),
    "broad-except": (
        "broad except handler without a repolint pragma justifying it"
    ),
    "contextvar-reset": (
        "ContextVar token is never reset in a finally block"
    ),
    "fsync-rename": (
        "os.rename/os.replace without an fsync in the same function"
    ),
    "unseeded-random": (
        "unseeded RNG (module-level random.*, Random(), default_rng())"
    ),
    "metric-catalog": (
        "metric name constructed in code but missing from the "
        "metrics catalog doc, or catalogued but never constructed "
        "(pass --metrics-doc)"
    ),
    "event-catalog": (
        "journal event name emitted in code but missing from the "
        "journal-event catalog doc, or catalogued but never emitted "
        "(pass --events-doc)"
    ),
    "stale-pragma": (
        "allow[...] pragma that suppresses nothing "
        "(pass --strict-pragmas)"
    ),
}

#: Registry factory methods whose literal first argument is a metric name.
_METRIC_FACTORIES = {"counter", "gauge", "histogram"}

#: A metrics-catalog table row: ``| `name` | counter | ...``.
_CATALOG_ROW = re.compile(
    r"^\s*\|\s*`(\w+)`\s*\|\s*(?:counter|gauge|histogram)\s*\|"
)

#: A journal-event catalog table row: ``| `name` | `module.py` | ...``.
_EVENT_ROW = re.compile(r"^\s*\|\s*`(\w+)`\s*\|\s*`[\w./]+\.py`\s*\|")


def pragma_pattern(tool: str) -> "re.Pattern[str]":
    """The ``# <tool>: allow[...]`` pragma regex for one lint tool.

    Shared with :mod:`locklint`, whose diagnostic codes are uppercase
    (``CC001``), so the rule-list charset covers both naming styles.
    """
    return re.compile(rf"#\s*{tool}:\s*allow\[([A-Za-z0-9\-,\s]+)\]")


_PRAGMA = pragma_pattern("repolint")

#: Wall-clock callables that must never be invoked directly.
_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: random-module helpers whose module-level call is unseeded by design.
_RANDOM_MODULE_FNS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "betavariate",
    "expovariate",
    "triangular",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file location."""

    rule: str
    path: str
    line: int
    message: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_pragmas(
    source: str, tool: str = "repolint"
) -> dict[int, set[str]]:
    """Line number -> set of rule names allowed on that line.

    Only *real* ``#`` comments count (found via :mod:`tokenize`), so a
    pragma-shaped example inside a string or docstring neither
    suppresses findings nor registers as stale under
    ``--strict-pragmas``.
    """
    pattern = _PRAGMA if tool == "repolint" else pragma_pattern(tool)
    allowed: dict[int, set[str]] = {}
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = pattern.search(tok.string)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")}
        allowed.setdefault(tok.start[0], set()).update(
            rule for rule in rules if rule
        )
    return allowed


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Checker(ast.NodeVisitor):
    """Single-pass AST walker applying every rule to one module."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    # -- reporting ------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                message=message,
            )
        )

    # -- structural visitors -------------------------------------------

    def _visit_function(self, node) -> None:
        self.generic_visit(node)
        self._check_contextvar_tokens(node)
        self._check_fsync_rename(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- broad-except ---------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if broad:
            caught = node.type.id if node.type is not None else "bare"
            self.report(
                "broad-except",
                node,
                f"broad except ({caught}) needs "
                "'# repolint: allow[broad-except]' with a justification",
            )
        self.generic_visit(node)

    # -- call-driven rules ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        self._check_wall_clock(node, dotted)
        self._check_unseeded_random(node, dotted)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, dotted: str | None) -> None:
        if dotted is None:
            return
        parts = tuple(dotted.split("."))
        if parts[-2:] in _WALL_CLOCK_CALLS or dotted in (
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
        ):
            self.report(
                "wall-clock",
                node,
                f"direct {dotted}() call; route timestamps through an "
                "injectable clock",
            )

    def _check_unseeded_random(
        self, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted is None:
            return
        unseeded = not node.args and not node.keywords
        if dotted == "random.Random" and unseeded:
            self.report(
                "unseeded-random",
                node,
                "random.Random() without a seed; pass an explicit seed",
            )
        elif dotted.startswith("random.") and (
            dotted.split(".", 1)[1] in _RANDOM_MODULE_FNS
        ):
            self.report(
                "unseeded-random",
                node,
                f"module-level {dotted}() uses the shared unseeded RNG; "
                "use a seeded random.Random instance",
            )
        elif dotted.endswith("random.default_rng") and unseeded:
            self.report(
                "unseeded-random",
                node,
                "default_rng() without a seed; pass an explicit seed",
            )
        elif (
            (".random." in dotted or dotted.startswith("numpy.random."))
            and not dotted.endswith("default_rng")
            and dotted.rsplit(".", 2)[-2] == "random"
        ):
            self.report(
                "unseeded-random",
                node,
                f"legacy numpy global-state RNG {dotted}(); use a seeded "
                "np.random.default_rng Generator",
            )

    # -- function-scoped rules -----------------------------------------

    def _check_contextvar_tokens(self, node) -> None:
        token_sets: dict[str, ast.AST] = {}
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and child.targets[0].id.lower().endswith("token")
                and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Attribute)
                and child.value.func.attr == "set"
            ):
                token_sets[child.targets[0].id] = child
        if not token_sets:
            return
        reset_names: set[str] = set()
        for child in ast.walk(node):
            if not isinstance(child, ast.Try) or not child.finalbody:
                continue
            for stmt in child.finalbody:
                for call in ast.walk(stmt):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "reset"
                        and len(call.args) == 1
                        and isinstance(call.args[0], ast.Name)
                    ):
                        reset_names.add(call.args[0].id)
        for name, assign in token_sets.items():
            if name not in reset_names:
                self.report(
                    "contextvar-reset",
                    assign,
                    f"ContextVar token '{name}' is set but never "
                    "reset in a finally block",
                )

    def _check_fsync_rename(self, node) -> None:
        renames: list[ast.Call] = []
        synced = False
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            dotted = _dotted(child.func)
            name = (
                dotted
                if dotted is not None
                else (
                    child.func.id
                    if isinstance(child.func, ast.Name)
                    else ""
                )
            )
            if name in ("os.rename", "os.replace"):
                renames.append(child)
            elif "fsync" in name.rsplit(".", 1)[-1]:
                synced = True
        if renames and not synced:
            for call in renames:
                self.report(
                    "fsync-rename",
                    call,
                    f"{_dotted(call.func)}() without an os.fsync in the "
                    "same function; the rename may promote torn data",
                )


#: Rules that are doc- or flag-driven and therefore never honour
#: inline ``allow[...]`` pragmas; a pragma naming one is always stale.
_PRAGMA_IMMUNE = {"metric-catalog", "event-catalog", "stale-pragma"}


def apply_pragmas(
    findings: list[Finding],
    pragmas_by_path: dict[str, dict[int, set[str]]],
    *,
    strict: bool,
    known: dict[str, str],
    stale_rule: str,
    immune: Collection[str] = (),
) -> list[Finding]:
    """Drop the findings an ``allow[...]`` pragma covers, sorted.

    A pragma covers a finding of its rule on its own line or the line
    below.  With *strict*, every pragma that covered nothing becomes a
    *stale_rule* finding: it names a rule missing from *known*, a rule
    in *immune* (one that never honours pragmas), or a rule that simply
    did not fire there.  Shared by repolint and locklint.
    """
    kept: list[Finding] = []
    used: set[tuple[str, int, str]] = set()
    for finding in findings:
        allowed = pragmas_by_path.get(finding.path, {})
        suppressed = False
        for line in (finding.line, finding.line - 1):
            if finding.rule in allowed.get(line, set()):
                used.add((finding.path, line, finding.rule))
                suppressed = True
        if not suppressed:
            kept.append(finding)
    if strict:
        for path, allowed in pragmas_by_path.items():
            for line, rules in sorted(allowed.items()):
                for rule in sorted(rules):
                    if (path, line, rule) in used:
                        continue
                    if rule not in known:
                        message = f"pragma allows unknown rule {rule!r}"
                    elif rule in immune:
                        message = (
                            f"allow[{rule}] has no effect; the rule is "
                            "doc/flag-driven and ignores pragmas"
                        )
                    else:
                        message = (
                            f"stale pragma: allow[{rule}] suppresses "
                            "nothing on this line; remove it"
                        )
                    kept.append(
                        Finding(
                            rule=stale_rule,
                            path=path,
                            line=line,
                            message=message,
                        )
                    )
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule))


def lint_source(
    source: str, path: str = "<string>", strict_pragmas: bool = False
) -> list[Finding]:
    """Lint one module's source text, honouring inline pragmas."""
    tree = ast.parse(source, filename=path)
    checker = _Checker(path)
    checker.visit(tree)
    return apply_pragmas(
        checker.findings,
        {path: parse_pragmas(source)},
        strict=strict_pragmas,
        known=RULES,
        stale_rule="stale-pragma",
        immune=_PRAGMA_IMMUNE,
    )


def iter_python_files(paths: list[str]) -> list[pathlib.Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    files: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: list[str], strict_pragmas: bool = False
) -> list[Finding]:
    """Lint every ``.py`` file under *paths*."""
    findings: list[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(
            lint_source(
                file.read_text(encoding="utf-8"),
                str(file),
                strict_pragmas=strict_pragmas,
            )
        )
    return findings


def collect_metric_names(
    paths: list[str],
) -> dict[str, list[tuple[str, int]]]:
    """Every metric name constructed under *paths*.

    A metric name is the literal first argument of a
    ``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` call —
    the registry factory idiom — so ContextVar names, dict keys, and
    other strings that merely look like metric names are not collected.
    Returns name -> list of ``(path, line)`` construction sites.
    """
    names: dict[str, list[tuple[str, int]]] = {}
    for file in iter_python_files(paths):
        tree = ast.parse(
            file.read_text(encoding="utf-8"), filename=str(file)
        )
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_FACTORIES
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            names.setdefault(node.args[0].value, []).append(
                (str(file), node.lineno)
            )
    return names


def _stale_rows(
    texts: dict[str, str],
    row: "re.Pattern[str]",
    known: dict,
    rule: str,
    message: str,
) -> list[Finding]:
    """A finding for every doc line shaped like *row* whose name is not
    in *known*; *message* is formatted with that ``name``."""
    findings = []
    for doc, text in texts.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = row.match(line)
            if match is None or match.group(1) in known:
                continue
            findings.append(
                Finding(
                    rule=rule,
                    path=doc,
                    line=lineno,
                    message=message.format(name=match.group(1)),
                )
            )
    return findings


def check_metric_catalog(
    paths: list[str], docs: list[str]
) -> list[Finding]:
    """Findings for constructed metric names absent from every doc, and
    for catalog rows naming a metric nothing under *paths* constructs."""
    texts = {
        doc: pathlib.Path(doc).read_text(encoding="utf-8") for doc in docs
    }
    catalog = "".join(texts.values())
    constructed = collect_metric_names(paths)
    findings = _stale_rows(
        texts,
        _CATALOG_ROW,
        constructed,
        "metric-catalog",
        f"catalog row for metric {{name!r}} but no factory call under "
        f"{', '.join(paths)} constructs it",
    )
    for name, sites in sorted(constructed.items()):
        if name in catalog:
            continue
        path, line = sites[0]
        findings.append(
            Finding(
                rule="metric-catalog",
                path=path,
                line=line,
                message=(
                    f"metric {name!r} is constructed here but not "
                    f"documented in {', '.join(docs)}"
                ),
            )
        )
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def collect_event_names(
    paths: list[str],
) -> dict[str, list[tuple[str, int]]]:
    """Every journal event name emitted under *paths*.

    An event name is the literal string value of an ``"event"`` key in
    a dict literal — the ``journal.append({"event": ..., ...})`` idiom —
    so reads like ``record.get("event")`` are not collected.
    Returns name -> list of ``(path, line)`` emission sites.
    """
    names: dict[str, list[tuple[str, int]]] = {}
    for file in iter_python_files(paths):
        tree = ast.parse(
            file.read_text(encoding="utf-8"), filename=str(file)
        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "event"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    names.setdefault(value.value, []).append(
                        (str(file), value.lineno)
                    )
    return names


def check_event_catalog(
    paths: list[str], docs: list[str]
) -> list[Finding]:
    """Findings for emitted event names absent from every doc, and for
    event-table rows naming an event nothing under *paths* emits.

    Event names are short English words (``eval``, ``translate``), so a
    bare substring match would trivially pass; the doc must carry the
    name as code — ``` `name` ``` or ``"name"`` — to count.
    """
    texts = {
        doc: pathlib.Path(doc).read_text(encoding="utf-8") for doc in docs
    }
    catalog = "".join(texts.values())
    emitted = collect_event_names(paths)
    findings = _stale_rows(
        texts,
        _EVENT_ROW,
        emitted,
        "event-catalog",
        f"catalog row for journal event {{name!r}} but nothing under "
        f"{', '.join(paths)} emits it",
    )
    for name, sites in sorted(emitted.items()):
        if f"`{name}`" in catalog or f'"{name}"' in catalog:
            continue
        path, line = sites[0]
        findings.append(
            Finding(
                rule="event-catalog",
                path=path,
                line=line,
                message=(
                    f"journal event {name!r} is emitted here but not "
                    f"documented in {', '.join(docs)}"
                ),
            )
        )
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repolint", description=__doc__.splitlines()[0]
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--list", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--metrics-doc",
        action="append",
        default=[],
        metavar="DOC",
        help="metrics catalog doc(s); enables the metric-catalog rule "
        "over the given source paths (repeatable)",
    )
    parser.add_argument(
        "--events-doc",
        action="append",
        default=[],
        metavar="DOC",
        help="journal-event catalog doc(s); enables the event-catalog "
        "rule over the given source paths (repeatable)",
    )
    parser.add_argument(
        "--strict-pragmas",
        action="store_true",
        help="flag allow[...] pragmas that no longer suppress anything",
    )
    args = parser.parse_args(argv)

    if args.list:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule:18s} {summary}")
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list)")

    findings = lint_paths(args.paths, strict_pragmas=args.strict_pragmas)
    if args.metrics_doc:
        findings = sorted(
            findings + check_metric_catalog(args.paths, args.metrics_doc),
            key=lambda f: (f.path, f.line, f.rule),
        )
    if args.events_doc:
        findings = sorted(
            findings + check_event_catalog(args.paths, args.events_doc),
            key=lambda f: (f.path, f.line, f.rule),
        )
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
