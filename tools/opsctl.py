#!/usr/bin/env python
"""Operator console for a running (or crashed) MetaSQL service.

Three subcommands over the PR-8 operational-intelligence layer:

``poll``
    GET an ops endpoint (``/slo`` by default) one or more times and
    print each response — the smallest possible liveness/SLO watch::

        python tools/opsctl.py poll --url http://127.0.0.1:9100
        python tools/opsctl.py poll --url ... --endpoint /metrics
        python tools/opsctl.py poll --url ... --endpoint /readyz --tenant acme

``render``
    Turn a debug bundle written by ``FlightRecorder.dump_bundle()`` /
    ``TranslationService.dump_bundle()`` into a human-readable incident
    report: capture reasons, the dominant failing stage, firing SLOs,
    readiness, and the slowest captured requests::

        python tools/opsctl.py render bundle.json

``tail``
    Follow a live request journal (``iter_journal(follow=True)``),
    printing one line per event — bounded by ``--timeout`` and/or
    ``--max-records`` so a watch always terminates::

        python tools/opsctl.py tail events.jsonl --timeout 30

The module is importable (``render_bundle`` is used by tests and can be
reused by other tooling); only :func:`main` touches stdout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import urllib.error
import urllib.parse
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # pragma: no cover — direct-script convenience
    sys.path.insert(0, str(SRC))

from repro.obs.journal import iter_journal  # noqa: E402
from repro.obs.recorder import load_bundle  # noqa: E402


# ----------------------------------------------------------------------
# poll


def fetch(url: str, timeout: float = 5.0) -> tuple[int, str]:
    """GET *url*; returns ``(status, body)`` (non-2xx is not an error)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def poll(
    url: str,
    endpoint: str = "/slo",
    count: int = 1,
    interval: float = 1.0,
    tenant: str | None = None,
    sleep=time.sleep,
    out=None,
) -> int:
    """Poll one endpoint *count* times; exit 0 iff every poll got a 2xx."""
    out = out if out is not None else sys.stdout
    target = url.rstrip("/") + endpoint
    if tenant is not None:
        joiner = "&" if "?" in endpoint else "?"
        target += f"{joiner}tenant={urllib.parse.quote(tenant)}"
    worst = 0
    for index in range(count):
        if index:
            sleep(interval)
        try:
            status, body = fetch(target)
        except OSError as exc:
            print(f"[{index + 1}/{count}] {target} unreachable: {exc}",
                  file=out)
            worst = 1
            continue
        print(f"[{index + 1}/{count}] {target} -> {status}", file=out)
        print(body.rstrip("\n"), file=out)
        if not 200 <= status < 300:
            worst = 1
    return worst


# ----------------------------------------------------------------------
# render


def _failing_stages(entries: list[dict]) -> dict[str, int]:
    """Fault counts per stage across the captured entries.

    Prefers the full report's fault records (they carry error types);
    falls back to the summary record's fault list.
    """
    stages: dict[str, int] = {}
    for entry in entries:
        faults = entry.get("report", {}).get("faults") or entry.get(
            "record", {}
        ).get("faults", [])
        for fault in faults:
            if isinstance(fault, dict):
                stage = str(fault.get("stage", "unknown"))
                stages[stage] = stages.get(stage, 0) + 1
    return stages


def render_bundle(bundle: dict) -> str:
    """A human-readable incident report for one debug bundle."""
    lines = ["MetaSQL incident report"]
    recorder = bundle.get("recorder", {})
    entries = bundle.get("entries", [])
    lines.append(
        f"  bundle v{bundle.get('version', '?')}, "
        f"{recorder.get('entries', len(entries))} captured entries "
        f"(capacity {recorder.get('capacity', '?')}, "
        f"evicted {recorder.get('evicted', 0)})"
    )
    health = bundle.get("health") or {}
    if health:
        tenants = health.get("tenants") or {}
        lines.append(
            f"  health: ready={health.get('ready')} "
            f"accepting={health.get('accepting')} "
            f"queue={health.get('queue_depth')}/"
            f"{health.get('queue_capacity')} "
            f"degraded_rate={health.get('degraded_rate')}"
        )
        open_tenants = sorted(
            tenant
            for tenant, section in tenants.items()
            if section.get("breaker_open")
        )
        if open_tenants:
            lines.append(
                "  tenants with open breakers: " + ", ".join(open_tenants)
            )
    firing = [
        status
        for status in bundle.get("slo") or []
        if status.get("firing")
    ]
    if firing:
        lines.append("  firing SLOs:")
        for status in firing:
            label = status.get("slo", "?")
            if status.get("tenant"):
                label += f"[{status['tenant']}]"
            # ``alerts`` is the SloStatus severity -> latched mapping.
            severities = ",".join(
                sorted(
                    severity
                    for severity, latched in (
                        status.get("alerts") or {}
                    ).items()
                    if latched
                )
            )
            lines.append(
                f"    {label}: compliance={status.get('compliance')} "
                f"severity={severities or '?'}"
            )
    else:
        lines.append("  firing SLOs: none")
    reasons: dict[str, int] = {}
    for entry in entries:
        reason = str(entry.get("reason", "unknown"))
        reasons[reason] = reasons.get(reason, 0) + 1
    if reasons:
        lines.append(
            "  capture reasons: "
            + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(
                    reasons.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
        )
    stages = _failing_stages(entries)
    if stages:
        ranked = sorted(stages.items(), key=lambda kv: (-kv[1], kv[0]))
        top_stage, top_count = ranked[0]
        lines.append(
            f"  dominant failing stage: {top_stage} "
            f"({top_count} faults across captured requests)"
        )
        if len(ranked) > 1:
            lines.append(
                "  other faulting stages: "
                + ", ".join(f"{stage}={count}" for stage, count in ranked[1:])
            )
    else:
        lines.append("  dominant failing stage: none (no captured faults)")
    slowest = sorted(
        (
            entry
            for entry in entries
            if isinstance(
                entry.get("record", {}).get("latency_s"), (int, float)
            )
        ),
        key=lambda entry: entry["record"]["latency_s"],
        reverse=True,
    )[:3]
    if slowest:
        lines.append("  slowest captured requests:")
        for entry in slowest:
            record = entry["record"]
            lines.append(
                f"    {record['latency_s'] * 1e3:8.2f} ms "
                f"reason={entry.get('reason')} "
                f"tenant={record.get('tenant', '?')} "
                f"q={str(record.get('question', ''))[:48]!r}"
            )
    return "\n".join(lines)


def render(path: str | pathlib.Path, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        bundle = load_bundle(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read bundle {path}: {exc}", file=out)
        return 1
    print(render_bundle(bundle), file=out)
    return 0


# ----------------------------------------------------------------------
# tail


def tail(
    path: str | pathlib.Path,
    timeout: float | None = None,
    max_records: int | None = None,
    poll_interval: float = 0.2,
    out=None,
) -> int:
    out = out if out is not None else sys.stdout
    if timeout is None and max_records is None:
        timeout = 10.0  # a watch must terminate
    for record in iter_journal(
        path,
        follow=True,
        poll_interval=poll_interval,
        timeout=timeout,
        max_records=max_records,
    ):
        print(json.dumps(record, sort_keys=True), file=out)
    return 0


# ----------------------------------------------------------------------
# CLI


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="opsctl", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poll = sub.add_parser("poll", help="GET an ops endpoint")
    p_poll.add_argument("--url", required=True, help="base ops URL")
    p_poll.add_argument("--endpoint", default="/slo")
    p_poll.add_argument("--count", type=int, default=1)
    p_poll.add_argument("--interval", type=float, default=1.0)
    p_poll.add_argument("--tenant", default=None)

    p_render = sub.add_parser("render", help="render a debug bundle")
    p_render.add_argument("bundle", help="path to a dump_bundle() JSON")

    p_tail = sub.add_parser("tail", help="follow a live journal")
    p_tail.add_argument("journal", help="path to a JSONL journal")
    p_tail.add_argument("--timeout", type=float, default=None)
    p_tail.add_argument("--max-records", type=int, default=None)
    p_tail.add_argument("--poll-interval", type=float, default=0.2)

    args = parser.parse_args(argv)
    if args.command == "poll":
        return poll(
            args.url,
            endpoint=args.endpoint,
            count=args.count,
            interval=args.interval,
            tenant=args.tenant,
        )
    if args.command == "render":
        return render(args.bundle)
    return tail(
        args.journal,
        timeout=args.timeout,
        max_records=args.max_records,
        poll_interval=args.poll_interval,
    )


if __name__ == "__main__":
    raise SystemExit(main())
