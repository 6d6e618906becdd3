"""Typed diagnostics emitted by the schema-aware semantic analyzer.

Every finding of :mod:`repro.sqlkit.analyze` is a :class:`Diagnostic`
carrying a stable code (``SQL001``, ``SQL002``, ...), a severity, a
human-readable message and the AST path of the offending node, so
consumers (the candidate gate, eval reports, tests) can key on codes
without parsing messages.

Codes are partitioned by severity: ``SQL0xx`` are **errors** (the query
cannot be valid against the schema) and ``SQL1xx`` are **warnings**
(legal but suspicious constructs).  The inventory is documented in
DESIGN.md §11 and frozen by a golden-rendering test; new codes may be
added, existing codes must never be renumbered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Severity levels, ordered from least to most severe.
WARNING = "warning"
ERROR = "error"
SEVERITIES = (WARNING, ERROR)


@dataclass(frozen=True)
class DiagnosticCode:
    """One registered diagnostic code: identity, severity and meaning."""

    code: str  # stable identifier, e.g. "SQL002"
    name: str  # short kebab-case slug, e.g. "unknown-column"
    severity: str  # default severity for the code
    summary: str  # one-line description for docs / --list output


#: The full inventory of codes the analyzer can emit.
DIAGNOSTIC_CODES: dict[str, DiagnosticCode] = {
    spec.code: spec
    for spec in (
        DiagnosticCode(
            "SQL001",
            "unknown-table",
            ERROR,
            "FROM or a column qualifier references a table the schema "
            "does not define",
        ),
        DiagnosticCode(
            "SQL002",
            "unknown-column",
            ERROR,
            "a column reference resolves to no column of any table in "
            "scope",
        ),
        DiagnosticCode(
            "SQL003",
            "ambiguous-column",
            ERROR,
            "an unqualified column name exists in more than one table in "
            "scope",
        ),
        DiagnosticCode(
            "SQL004",
            "type-mismatch",
            ERROR,
            "a predicate or arithmetic expression combines incompatible "
            "text/number operands",
        ),
        DiagnosticCode(
            "SQL005",
            "join-type-mismatch",
            ERROR,
            "an equi-join condition compares columns of different types",
        ),
        DiagnosticCode(
            "SQL006",
            "ungrouped-projection",
            ERROR,
            "the SELECT list mixes aggregates with columns that are not "
            "in GROUP BY",
        ),
        DiagnosticCode(
            "SQL007",
            "having-without-group-by",
            ERROR,
            "HAVING appears on a query with no GROUP BY clause",
        ),
        DiagnosticCode(
            "SQL008",
            "set-arity-mismatch",
            ERROR,
            "the two sides of a UNION/INTERSECT/EXCEPT project different "
            "column counts",
        ),
        DiagnosticCode(
            "SQL009",
            "subquery-arity",
            ERROR,
            "a subquery used as a predicate operand projects more than "
            "one column",
        ),
        DiagnosticCode(
            "SQL010",
            "ungrouped-order-by",
            ERROR,
            "ORDER BY references a non-aggregated column outside GROUP BY "
            "on a grouped query",
        ),
        DiagnosticCode(
            "SQL011",
            "nested-aggregate",
            ERROR,
            "an aggregate function is applied to another aggregate",
        ),
        DiagnosticCode(
            "SQL012",
            "aggregate-in-where",
            ERROR,
            "an aggregate function appears in the WHERE clause",
        ),
        DiagnosticCode(
            "SQL101",
            "limit-without-order-by",
            WARNING,
            "LIMIT without ORDER BY returns an arbitrary subset of rows",
        ),
        DiagnosticCode(
            "SQL102",
            "duplicate-select-item",
            WARNING,
            "the SELECT list repeats an identical expression",
        ),
        DiagnosticCode(
            "SQL103",
            "self-comparison",
            WARNING,
            "a predicate compares a column against itself",
        ),
    )
}

#: Codes whose presence makes a query statically invalid.
ERROR_CODES: frozenset[str] = frozenset(
    code
    for code, spec in DIAGNOSTIC_CODES.items()
    if spec.severity == ERROR
)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to an AST path.

    ``path`` is a dotted/indexed locator into the analyzed query
    (``"select[1]"``, ``"where.predicates[0].right"``, ``"left.having"``
    for set queries), stable across runs for identical input.
    """

    code: str
    severity: str
    message: str
    path: str = ""

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unregistered diagnostic code: {self.code}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity}")

    @property
    def name(self) -> str:
        """The code's kebab-case slug (``unknown-column``)."""
        return DIAGNOSTIC_CODES[self.code].name

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        """Compiler-style one-line rendering."""
        location = f" at {self.path}" if self.path else ""
        return f"{self.severity}[{self.code}] {self.message}{location}"


def make_diagnostic(code: str, message: str, path: str = "") -> Diagnostic:
    """A :class:`Diagnostic` with the code's registered severity."""
    return Diagnostic(
        code=code,
        severity=DIAGNOSTIC_CODES[code].severity,
        message=message,
        path=path,
    )


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any diagnostic in the collection is error-severity."""
    return any(d.is_error for d in diagnostics)


def error_codes(diagnostics: Iterable[Diagnostic]) -> list[str]:
    """The codes of the error-severity diagnostics, in emission order."""
    return [d.code for d in diagnostics if d.is_error]


def render_diagnostics(diagnostics: Iterable[Diagnostic]) -> str:
    """Multi-line rendering of a diagnostic list (one finding per line)."""
    lines = [diagnostic.render() for diagnostic in diagnostics]
    if not lines:
        return "no diagnostics"
    return "\n".join(lines)
