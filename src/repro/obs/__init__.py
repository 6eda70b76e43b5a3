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
# into it.

from repro import lazy_exports

_EXPORTS = {
    "repro.obs.trace": ("NULL_TRACER", "NullTracer", "Span", "Tracer",
                        "TraceSummary", "span_id"),
    "repro.obs.registry": ("DETERMINISTIC_WORKLOAD_COUNTERS",
                           "LatencyHistogram", "MetricsRegistry"),
    "repro.obs.profile": ("StageProfiler",),
    "repro.obs.export": ("METRICS_SCHEMA", "TRACE_SCHEMA", "load_snapshot",
                         "metrics_snapshot", "render_metrics_lines",
                         "render_trace_lines", "trace_snapshot",
                         "write_snapshot"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
