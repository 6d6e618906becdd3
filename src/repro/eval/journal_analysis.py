"""Offline aggregation of observability journals.

:func:`evaluate_metasql` (with ``journal=``) and the serving layer both
append one JSONL record per translation to a
:class:`repro.obs.journal.Journal`.  This module turns those journals back
into the paper's breakdown axes — accuracy and latency per hardness level,
latency per pipeline stage — without re-running any model: the journal is
the single artifact a run leaves behind, and everything here is derived
from it.

Only ``event == "eval"`` records carry accuracy flags; serving records
(``event == "translate"``) contribute latency and degradation counts but
are excluded from EM/EX rates.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.obs.journal import iter_journal

#: Percentiles reported for every latency distribution.
PERCENTILES = (50.0, 90.0, 99.0)


@dataclass
class LatencySummary:
    """Order statistics over one latency series (seconds)."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @classmethod
    def of(cls, values: list[float]) -> "LatencySummary":
        if not values:
            return cls()
        data = np.asarray(values, dtype=np.float64)
        p50, p90, p99 = np.percentile(data, PERCENTILES)
        return cls(
            count=len(values),
            mean=float(data.mean()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
        )


@dataclass
class HardnessBucket:
    """Accuracy + latency for one hardness level."""

    total: int = 0
    em_hits: int = 0
    ex_hits: int = 0
    degraded: int = 0
    #: Candidates the verify stage demoted (sum over records).
    verify_demoted: int = 0
    #: Records with at least one verify demotion.
    demoted_records: int = 0
    repair_attempts: int = 0
    #: Records that attempted at least one repair.
    repair_records: int = 0
    repair_succeeded: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def em(self) -> float:
        return self.em_hits / self.total if self.total else 0.0

    @property
    def ex(self) -> float:
        return self.ex_hits / self.total if self.total else 0.0

    @property
    def demotion_rate(self) -> float:
        """Fraction of records the verify stage reordered."""
        return self.demoted_records / self.total if self.total else 0.0

    @property
    def repair_success_rate(self) -> float:
        """Fraction of repair-attempting records that succeeded."""
        if not self.repair_records:
            return 0.0
        return self.repair_succeeded / self.repair_records


@dataclass
class JournalSummary:
    """Aggregated view over every request record in one or more journals."""

    total: int = 0
    eval_records: int = 0
    serve_records: int = 0
    degraded: int = 0
    deadline_expired: int = 0
    lint_rejected: int = 0
    lint_codes: dict[str, int] = field(default_factory=dict)
    verify_demoted: int = 0
    verify_outcomes: dict[str, int] = field(default_factory=dict)
    repair_attempts: int = 0
    repair_succeeded: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    by_hardness: dict[str, HardnessBucket] = field(default_factory=dict)
    stage_latencies: dict[str, list[float]] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable breakdown table."""
        lines = [
            f"Journal summary over {self.total} records "
            f"({self.eval_records} eval, {self.serve_records} serve):",
            f"  degraded {self.degraded}, "
            f"deadline expired {self.deadline_expired}",
        ]
        if self.lint_rejected:
            codes = ", ".join(
                f"{code}={count}"
                for code, count in sorted(self.lint_codes.items())
            )
            lines.append(
                f"  lint rejected {self.lint_rejected} candidates"
                + (f" ({codes})" if codes else "")
            )
        if self.verify_demoted or self.verify_outcomes:
            outcomes = ", ".join(
                f"{outcome}={count}"
                for outcome, count in sorted(self.verify_outcomes.items())
            )
            lines.append(
                f"  verify demoted {self.verify_demoted} candidates"
                + (f" ({outcomes})" if outcomes else "")
            )
        if self.repair_attempts:
            lines.append(
                f"  repair attempts {self.repair_attempts}, "
                f"succeeded {self.repair_succeeded}"
            )
        if self.fault_counts:
            faults = ", ".join(
                f"{stage}={count}"
                for stage, count in sorted(
                    self.fault_counts.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            )
            lines.append(f"  faults by stage: {faults}")
        overall = LatencySummary.of(self.latencies)
        lines.append(
            f"  latency p50/p90/p99: {overall.p50 * 1e3:.2f}/"
            f"{overall.p90 * 1e3:.2f}/{overall.p99 * 1e3:.2f} ms"
        )
        if self.by_hardness:
            lines.append("  by hardness:")
            for level, bucket in sorted(self.by_hardness.items()):
                latency = LatencySummary.of(bucket.latencies)
                lines.append(
                    f"    {level:10s} n={bucket.total:<5d} "
                    f"EM={bucket.em:.3f} EX={bucket.ex:.3f} "
                    f"demote={bucket.demotion_rate:.3f} "
                    f"repair={bucket.repair_success_rate:.3f} "
                    f"p90={latency.p90 * 1e3:.2f}ms"
                )
        if self.stage_latencies:
            lines.append("  by stage:")
            for stage, values in sorted(self.stage_latencies.items()):
                latency = LatencySummary.of(values)
                lines.append(
                    f"    {stage:10s} n={latency.count:<5d} "
                    f"mean={latency.mean * 1e3:.2f}ms "
                    f"p90={latency.p90 * 1e3:.2f}ms"
                )
        return "\n".join(lines)


def aggregate_journal(
    *paths: str | pathlib.Path, events: tuple[str, ...] | None = None
) -> JournalSummary:
    """Fold one or more journal files into a :class:`JournalSummary`.

    *events* optionally restricts which ``event`` values are counted
    (e.g. ``("eval",)``); by default both eval and serve records are
    aggregated.  Only request records (``eval``, ``translate``) are
    folded and counted; every other event (an older journal's
    ``checkpoint_skipped`` or ``swap``) is skipped.  Records missing
    expected keys contribute what they have — a journal from an older
    schema never makes aggregation fail.
    """
    summary = JournalSummary()
    for path in paths:
        for record in iter_journal(path):
            event = record.get("event")
            if events is not None and event not in events:
                continue
            if event == "eval":
                summary.eval_records += 1
                _fold_eval(summary, record)
            elif event == "translate":
                summary.serve_records += 1
            else:
                continue
            summary.total += 1
            _fold_common(summary, record)
    return summary


def _fold_eval(summary: JournalSummary, record: dict) -> None:
    level = record.get("hardness", "unknown")
    bucket = summary.by_hardness.setdefault(level, HardnessBucket())
    bucket.total += 1
    bucket.em_hits += bool(record.get("em"))
    bucket.ex_hits += bool(record.get("ex"))
    bucket.degraded += bool(record.get("degraded"))
    demoted = record.get("verify_demoted")
    if isinstance(demoted, int) and demoted > 0:
        bucket.verify_demoted += demoted
        bucket.demoted_records += 1
    attempts = record.get("repair_attempts")
    if isinstance(attempts, int) and attempts > 0:
        bucket.repair_attempts += attempts
        bucket.repair_records += 1
        bucket.repair_succeeded += bool(record.get("repair_succeeded"))
    latency = record.get("latency_s")
    if isinstance(latency, (int, float)):
        bucket.latencies.append(float(latency))


def _fold_common(summary: JournalSummary, record: dict) -> None:
    summary.degraded += bool(record.get("degraded"))
    summary.deadline_expired += bool(record.get("deadline_expired"))
    lint_rejected = record.get("lint_rejected")
    if isinstance(lint_rejected, int):
        summary.lint_rejected += lint_rejected
    lint_codes = record.get("lint_codes")
    if isinstance(lint_codes, dict):
        for code, count in lint_codes.items():
            if isinstance(count, int):
                summary.lint_codes[code] = (
                    summary.lint_codes.get(code, 0) + count
                )
    demoted = record.get("verify_demoted")
    if isinstance(demoted, int):
        summary.verify_demoted += demoted
    verify_outcomes = record.get("verify_outcomes")
    if isinstance(verify_outcomes, dict):
        for outcome, count in verify_outcomes.items():
            if isinstance(count, int):
                summary.verify_outcomes[outcome] = (
                    summary.verify_outcomes.get(outcome, 0) + count
                )
    attempts = record.get("repair_attempts")
    if isinstance(attempts, int):
        summary.repair_attempts += attempts
        summary.repair_succeeded += bool(record.get("repair_succeeded"))
    for fault in record.get("faults", ()):
        if isinstance(fault, dict):
            stage = fault.get("stage", "unknown")
            summary.fault_counts[stage] = (
                summary.fault_counts.get(stage, 0) + 1
            )
    latency = record.get("latency_s")
    if isinstance(latency, (int, float)):
        summary.latencies.append(float(latency))
    stages = record.get("stages")
    if isinstance(stages, dict):
        for stage, seconds in stages.items():
            if isinstance(seconds, (int, float)):
                summary.stage_latencies.setdefault(stage, []).append(
                    float(seconds)
                )
