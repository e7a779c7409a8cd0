"""Render telemetry export documents as Table-1-style text.

Run: ``python -m repro.telemetry.report out.json``

One renderer for every producer (``redfat harden --metrics``, the bench
harnesses, the fault campaign), so timings and Table-1 numbers always
come from the same source of truth instead of scattered print calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Counter -> human label for the Table-1 block.
TABLE1_COUNTERS = [
    ("checks.inserted", "checks inserted"),
    ("checks.eliminated", "checks eliminated (syntactic)"),
    ("checks.eliminated_provenance", "checks eliminated (provenance)"),
    ("checks.eliminated_range", "checks eliminated (range)"),
    ("checks.batched", "checks batched away"),
    ("checks.merged", "checks merged away"),
    ("liveness.spills_avoided", "spills avoided"),
]


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1000:8.3f}ms"


def render_spans(data: Dict[str, Any]) -> List[str]:
    spans = sorted(data.get("spans", []), key=lambda s: s.get("start_s", 0.0))
    if not spans:
        return []
    lines = ["phase timings:"]
    total = sum(s["duration_s"] for s in spans if s.get("depth", 0) == 0)
    for span in spans:
        indent = "  " * (span.get("depth", 0) + 1)
        share = (
            f" ({100 * span['duration_s'] / total:5.1f}%)"
            if total and span.get("depth", 0) > 0 else ""
        )
        attrs = span.get("attrs") or {}
        suffix = (
            " [" + " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
            if attrs else ""
        )
        lines.append(
            f"{indent}{span['name']:<14s} {_format_duration(span['duration_s'])}"
            f"{share}{suffix}"
        )
    return lines


def render_counters(data: Dict[str, Any]) -> List[str]:
    counters = data.get("counters", {})
    if not counters:
        return []
    lines = []
    table1 = [(label, counters[name]) for name, label in TABLE1_COUNTERS
              if name in counters]
    if table1:
        lines.append("Table-1 counters:")
        for label, value in table1:
            lines.append(f"  {label:<30s} {value:>10}")
    shown = {name for name, _ in TABLE1_COUNTERS}
    rest = sorted(name for name in counters if name not in shown)
    if rest:
        lines.append("counters:")
        for name in rest:
            lines.append(f"  {name:<38s} {counters[name]:>12}")
    return lines


def render_gauges(data: Dict[str, Any]) -> List[str]:
    gauges = data.get("gauges", {})
    if not gauges:
        return []
    lines = ["gauges:"]
    for name in sorted(gauges):
        value = gauges[name]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<38s} {rendered:>12}")
    return lines


def render_histograms(data: Dict[str, Any]) -> List[str]:
    histograms = data.get("histograms", {})
    if not histograms:
        return []
    lines = ["histograms:"]
    for name in sorted(histograms):
        h = histograms[name]
        lines.append(
            f"  {name}: n={h['count']} mean={h['mean']:.1f} "
            f"min={h['min']:g} max={h['max']:g}"
        )
    return lines


def render_events(data: Dict[str, Any], tail: int = 10) -> List[str]:
    events = data.get("events", [])
    lines = []
    if events:
        lines.append(f"events ({len(events)} recorded, showing last {min(tail, len(events))}):")
        for event in events[-tail:]:
            fields = event.get("fields", {})
            rendered = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"  [{event['t_s']:9.4f}s] {event['name']} {rendered}".rstrip())
    dropped = data.get("dropped_events", 0)
    if dropped:
        lines.append(f"  ({dropped} event(s) dropped by the bounded log)")
    return lines


def render(data: Dict[str, Any]) -> str:
    """The full human-readable report for one telemetry document."""
    meta = data.get("meta", {})
    kind = meta.get("kind", "telemetry")
    title = f"== {kind} report =="
    blocks = [
        [title],
        [f"  {key}: {value}" for key, value in sorted(meta.items())
         if key != "kind"],
    ]
    if data.get("degraded"):
        blocks.append([
            f"!! telemetry degraded: {data.get('degraded_reason', 'unknown')}"
        ])
    blocks.extend([
        render_spans(data),
        render_counters(data),
        render_gauges(data),
        render_histograms(data),
        render_events(data),
    ])
    return "\n".join("\n".join(block) for block in blocks if block)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("report", help="telemetry JSON document to render")
    arguments = parser.parse_args(argv)
    try:
        data = json.loads(Path(arguments.report).read_text())
    except (OSError, ValueError) as error:
        print(f"report: cannot read {arguments.report}: {error}", file=sys.stderr)
        return 2
    print(render(data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
