"""repro.obs — the observability layer: one instrument panel for the stack.

Three instruments over the serving stack, all composing with the
project's determinism invariant (bit-identical digests across runs,
shard counts, and executors):

* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, the one
  metrics schema (mergeable counters / gauges / pow2 latency
  histograms): every layer writes its own metrics into it under their
  final dot-namespaced names (``serve.*``, ``epoch.*``, ``psl.*``,
  ``queue.*``, ``api.*``, ``cluster.*``, ``chaos.*``, ``net.*``,
  ``workload.*``), and every stats report is a view of it;
* :mod:`repro.obs.trace` — :class:`Tracer`, deterministic per-request
  spans (dispatcher → router → replica/primary → epoch query → PSL
  resolve) with span ids derived from (seed, request index, sequence)
  and logical-clock timestamps, so a seeded run's trace digest is
  bit-identical; :data:`NULL_TRACER` is the default everywhere and
  costs one guard on the hot path;
* :mod:`repro.obs.profile` — :class:`StageProfiler`, attachable
  stage-latency histograms and allocation counters for the known hot
  spots (``QueryResult`` construction, router per-pair splitting).

:mod:`repro.obs.export` renders both as versioned JSON snapshots for
``repro stats`` / ``repro trace`` / ``repro load --metrics-out``.
"""

# The serving layers import ``repro.obs.trace`` and
# ``repro.obs.registry`` at module top (both stdlib-only), so this
# package __init__ must stay weightless: eagerly importing ``profile``
# here would import ``repro.serve`` and close an import cycle back
# into it.  Re-exports resolve lazily via PEP 562 instead.

_EXPORTS = {
    # repro.obs.trace (stdlib-only — safe from any layer)
    "NULL_TRACER": "trace",
    "NullTracer": "trace",
    "Span": "trace",
    "Tracer": "trace",
    "TraceSummary": "trace",
    "span_id": "trace",
    # repro.obs.registry
    "DETERMINISTIC_WORKLOAD_COUNTERS": "registry",
    "LatencyHistogram": "registry",
    "MetricsRegistry": "registry",
    # repro.obs.profile
    "StageProfiler": "profile",
    # repro.obs.export
    "METRICS_SCHEMA": "export",
    "TRACE_SCHEMA": "export",
    "load_snapshot": "export",
    "metrics_snapshot": "export",
    "render_metrics_lines": "export",
    "render_trace_lines": "export",
    "trace_snapshot": "export",
    "write_snapshot": "export",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"repro.obs.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "DETERMINISTIC_WORKLOAD_COUNTERS",
    "LatencyHistogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "StageProfiler",
    "TRACE_SCHEMA",
    "TraceSummary",
    "Tracer",
    "load_snapshot",
    "metrics_snapshot",
    "render_metrics_lines",
    "render_trace_lines",
    "span_id",
    "trace_snapshot",
    "write_snapshot",
]
