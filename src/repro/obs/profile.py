"""Stage-latency profiling hooks for the serving layer's hot spots.

:class:`StageProfiler` attaches to any
:class:`~repro.serve.service.EpochShell` (the primary service or a
:class:`~repro.cluster.Replica`) or :class:`~repro.cluster.Router`
and records, per serving stage:

* a power-of-two-bucket :class:`~repro.obs.registry.LatencyHistogram`
  of wall-clock stage latency (``serve.query``, ``serve.query_batch``,
  ``cluster.route_batch``, ...);
* **allocation counters** for the known per-query allocation hot
  spots — :class:`~repro.serve.index.QueryResult` /
  :class:`~repro.serve.service.QueryVerdict` construction (PR 3
  de-froze both precisely because construction cost was throughput)
  and the :class:`~repro.cluster.Router`'s per-pair batch splitting
  under rendezvous routing.

Attachment is instance-level monkey-wrapping: the wrapped methods are
installed as instance attributes shadowing the class methods, so a
profiler perturbs only the object it is attached to and
:meth:`detach` restores the original behaviour exactly.  This is a
diagnostic instrument, not always-on telemetry — the unattached hot
path is untouched (zero overhead), which is why profiling is a
separate layer from the :mod:`repro.obs.trace` no-op-by-default
tracer.

Results fold into a :class:`~repro.obs.registry.MetricsRegistry`
under ``profile.*`` (:meth:`StageProfiler.fold_into`), keeping the
one-schema contract.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.obs.registry import LatencyHistogram, MetricsRegistry
from repro.serve.service import BATCH_SHAPES

if TYPE_CHECKING:
    from repro.cluster.router import Router
    from repro.serve.service import EpochShell


class StageProfiler:
    """Per-stage latency histograms plus allocation counters."""

    def __init__(self) -> None:
        self.stages: dict[str, LatencyHistogram] = {}
        self.allocations: dict[str, int] = {}
        #: (target object, attribute name) pairs to restore on detach.
        self._attached: list[tuple[object, str]] = []

    # -- primitives -----------------------------------------------------------

    def record(self, stage: str, ns: int) -> None:
        """Record one stage-latency observation (nanoseconds)."""
        histogram = self.stages.get(stage)
        if histogram is None:
            histogram = self.stages[stage] = LatencyHistogram()
        histogram.record(ns)

    def count_alloc(self, name: str, n: int = 1) -> None:
        """Bump an allocation counter."""
        self.allocations[name] = self.allocations.get(name, 0) + n

    # -- attachment -----------------------------------------------------------

    def attach_shell(self, shell: "EpochShell",
                     prefix: str = "serve") -> None:
        """Wrap a shell's two reads with stage timing + alloc counts.

        Wraps ``query`` (stage ``<prefix>.query``) and ``query_batch``,
        whose stage is named after the call's shape in
        :data:`~repro.serve.service.BATCH_SHAPES`
        (``<prefix>.query_batch``, ``.related_batch`` or
        ``.related_sites_batch``); ``related_batch`` reaches the
        wrapper through ``self.query_batch``.  Verdict-answering calls
        count ``alloc.query_verdict`` per
        :class:`~repro.serve.service.QueryVerdict` and
        ``alloc.query_result`` per non-None
        :class:`~repro.serve.index.QueryResult`.
        """
        profiler = self

        query = shell.query
        query_batch = shell.query_batch

        def profiled_query(host_a, host_b):
            started = time.perf_counter_ns()
            verdict = query(host_a, host_b)
            profiler.record(f"{prefix}.query",
                            time.perf_counter_ns() - started)
            profiler.count_alloc("alloc.query_verdict")
            if verdict.result is not None:
                profiler.count_alloc("alloc.query_result")
            return verdict

        def profiled_query_batch(pairs, *, detail=True, resolved=False):
            started = time.perf_counter_ns()
            answers = query_batch(pairs, detail=detail, resolved=resolved)
            shape = BATCH_SHAPES[detail, resolved]
            profiler.record(f"{prefix}.{shape}",
                            time.perf_counter_ns() - started)
            if shape == "query_batch":
                profiler.count_alloc("alloc.query_verdict", len(answers))
                profiler.count_alloc(
                    "alloc.query_result",
                    sum(1 for verdict in answers
                        if verdict.result is not None))
            return answers

        self._install(shell, "query", profiled_query)
        self._install(shell, "query_batch", profiled_query_batch)

    def attach_router(self, router: "Router",
                      prefix: str = "cluster") -> None:
        """Wrap a router's two reads with timing + per-pair counts.

        Wraps ``query`` (stage ``<prefix>.route``) and ``query_batch``
        (stage ``<prefix>.route_batch``, every shape; ``related_batch``
        reaches it through ``self.query_batch``).  Each call counts
        ``alloc.router_pair_route`` once per pair routed (the per-pair
        splitting/reassembly hot spot under rendezvous routing).
        """
        profiler = self

        query = router.query
        query_batch = router.query_batch

        def profiled_query(host_a, host_b):
            started = time.perf_counter_ns()
            verdict = query(host_a, host_b)
            profiler.record(f"{prefix}.route",
                            time.perf_counter_ns() - started)
            profiler.count_alloc("alloc.router_pair_route")
            return verdict

        def profiled_query_batch(pairs, *, detail=True, resolved=False):
            started = time.perf_counter_ns()
            answers = query_batch(pairs, detail=detail, resolved=resolved)
            profiler.record(f"{prefix}.route_batch",
                            time.perf_counter_ns() - started)
            profiler.count_alloc("alloc.router_pair_route", len(pairs))
            return answers

        self._install(router, "query", profiled_query)
        self._install(router, "query_batch", profiled_query_batch)

    def _install(self, target: object, name: str, wrapper) -> None:
        # Instance-attribute shadowing: the class method stays intact,
        # so detach is just deleting the instance attribute.
        setattr(target, name, wrapper)
        self._attached.append((target, name))

    def detach(self) -> None:
        """Remove every wrapper, restoring original behaviour."""
        for target, name in self._attached:
            try:
                delattr(target, name)
            except AttributeError:
                pass  # already detached (double detach is harmless)
        self._attached.clear()

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """A flat ``{name: value}`` view: stage percentiles + allocs."""
        flat: dict[str, float] = {
            name: float(value)
            for name, value in sorted(self.allocations.items())
        }
        for stage, histogram in sorted(self.stages.items()):
            for key, value in histogram.summary().items():
                flat[f"{stage}.{key}"] = value
        return flat

    def fold_into(self, registry: MetricsRegistry,
                  namespace: str = "profile") -> None:
        """Fold stages and counters into a registry under one namespace."""
        for name, value in self.allocations.items():
            registry.count(f"{namespace}.{name}", value)
        for stage, histogram in self.stages.items():
            registry.histogram(f"{namespace}.{stage}").merge(histogram)
