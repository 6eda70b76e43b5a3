"""JSON snapshots and CLI rendering for the observability layer.

Two snapshot schemas, both versioned so the trajectory tooling can
``--check`` them:

* :data:`METRICS_SCHEMA` — a :class:`~repro.obs.registry.MetricsRegistry`
  serialized with counters/gauges/histogram summaries, deterministic
  subset and registry digest called out;
* :data:`TRACE_SCHEMA` — a :class:`~repro.obs.trace.TraceSummary` with
  the deterministic trace digest, span totals, and the retained span
  sample.

Snapshots are deterministic by construction (sorted keys, no
timestamps) unless the caller passes ``meta`` — wall-clock context
belongs to the caller, not the schema, mirroring the tracer's
wall-clock-is-opt-in rule.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceSummary

#: Schema tag for metrics snapshots (bump on shape changes).
METRICS_SCHEMA = "repro.obs.metrics/1"

#: Schema tag for trace snapshots (bump on shape changes).
TRACE_SCHEMA = "repro.obs.trace/1"


def metrics_snapshot(registry: MetricsRegistry, *,
                     meta: Mapping | None = None) -> dict:
    """A registry as a self-describing JSON-able snapshot."""
    histograms = {
        name: {"counts": list(histogram.counts),
               **histogram.summary()}
        for name, histogram in sorted(registry.histograms.items())
    }
    snapshot = {
        "schema": METRICS_SCHEMA,
        "counters": dict(sorted(registry.counters.items())),
        "gauges": dict(sorted(registry.gauges.items())),
        "histograms": histograms,
        "deterministic": dict(sorted(
            registry.deterministic_counters().items())),
        "digest": registry.digest_hex(),
    }
    if meta:
        snapshot["meta"] = dict(meta)
    return snapshot


def trace_snapshot(trace: TraceSummary, *,
                   meta: Mapping | None = None) -> dict:
    """A trace summary as a self-describing JSON-able snapshot."""
    snapshot = {"schema": TRACE_SCHEMA, **trace.to_portable()}
    if meta:
        snapshot["meta"] = dict(meta)
    return snapshot


def write_snapshot(path: str | Path, snapshot: Mapping) -> Path:
    """Write a snapshot as pretty, sorted JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot back (schema key included)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- CLI rendering ------------------------------------------------------------


def render_metrics_lines(registry: MetricsRegistry) -> list[str]:
    """The registry as aligned ``name  value`` table lines.

    Counters print as ints, gauges as one-decimal floats, histograms
    as a p50/p95/p99 summary line each — namespaces sort together, so
    the instrument panel groups by subsystem for free.
    """
    rows: list[tuple[str, str]] = []
    for name, value in registry.counters.items():
        rows.append((name, f"{value}"))
    for name, value in registry.gauges.items():
        rows.append((name, f"{value:.1f}"))
    for name, histogram in registry.histograms.items():
        summary = histogram.summary()
        rows.append((
            name,
            f"p50 {summary['p50_ns'] / 1e3:.1f}us  "
            f"p95 {summary['p95_ns'] / 1e3:.1f}us  "
            f"p99 {summary['p99_ns'] / 1e3:.1f}us  "
            f"({int(summary['count'])} samples)",
        ))
    rows.sort()
    width = max((len(name) for name, _ in rows), default=10)
    lines = [f"{'metric':{width}s}  value",
             f"{'-' * width}  {'-' * 10}"]
    lines.extend(f"{name:{width}s}  {value}" for name, value in rows)
    # With no deterministic counter there is nothing to identify: the
    # sha256 of the empty payload would only look like a checksum.
    deterministic = len(registry.deterministic_counters())
    digest = registry.digest_hex() if deterministic else "none"
    lines.append(f"registry digest {digest} "
                 f"({deterministic} deterministic counters)")
    return lines


def render_trace_lines(trace: TraceSummary, *,
                       limit: int = 16) -> list[str]:
    """A trace summary as human-readable lines (digest first)."""
    lines = [
        f"trace digest {trace.digest_hex}",
        f"spans {trace.span_count}  requests {trace.request_count}  "
        f"seed {trace.seed}",
    ]
    spans = (trace.spans or [])[:limit]
    if spans:
        lines.append("")
        lines.append("request  seq  step       span                 "
                     "annotations")
    for span in spans:
        annotations = ", ".join(f"{key}={value}" for key, value
                                in sorted(span["annotations"].items()))
        steps = (f"{span['start_step']}"
                 if span["start_step"] == span["end_step"]
                 else f"{span['start_step']}-{span['end_step']}")
        wall = f"  [{span['wall_ns']}ns]" if "wall_ns" in span else ""
        lines.append(f"{span['request']:7d}  {span['seq']:3d}  "
                     f"{steps:9s}  {span['name']:19s}  "
                     f"{annotations}{wall}")
    remaining = trace.span_count - len(spans)
    if remaining > 0:
        lines.append(f"... {remaining} more spans "
                     f"(all digested; sample bounded by keep_spans)")
    return lines
