"""The metrics registry: the one report shape of every layer.

Every component writes its own metrics into a :class:`MetricsRegistry`
— once, when a report is taken, under their final dot-namespaced names
and with the kind the component knows:

* **counters** — monotonic ints, merged by addition;
* **gauges** — point-in-time floats (epoch version, index size),
  merged by max (the freshest view of monotone state);
* **histograms** — :class:`LatencyHistogram`, fixed power-of-two
  buckets, merged by element-wise addition.

The writers, by namespace: ``serve.*`` (an
:class:`~repro.serve.service.EpochShell`'s stats cells and served
epoch), ``epoch.*``, ``queue.*`` and ``psl.*`` (the primary
:class:`~repro.serve.service.RwsService`'s write side), ``cluster.*``
(:class:`~repro.cluster.Replica` and :class:`~repro.cluster.Router`),
``chaos.*`` (:class:`~repro.chaos.ChaosRouter`), ``api.*``
(:class:`~repro.api.dispatcher.RequestCounter` and
:class:`~repro.api.dispatcher.LatencyRecorder`), ``net.*`` and
``net.client.*`` (:class:`~repro.net.server.RwsTcpServer` and
:class:`~repro.net.client.TcpApiClient`), ``workload.*`` (the
workload driver) and ``profile.*``
(:class:`~repro.obs.profile.StageProfiler`).  Hot paths keep their own
instruments — lock-free per-thread cells, plain counter dicts — and
write them here only when a report is taken (the latency middleware,
off the default path, records into a registry of its own); every
``stats_report()`` is a registry's :meth:`~MetricsRegistry.as_flat_dict`
(:class:`MetricsSource`).

Determinism is first-class: a counter may be registered as
*deterministic*, meaning its merged value must be bit-identical for a
given (scenario, users, seed) across runs, shard counts, and executors
— exactly the contract the outcome digest has.  :meth:`digest_hex`
hashes only the deterministic subset, so the workload driver can merge
shard-local registries exactly like digests and assert equality.
Wall-clock-derived metrics (latency histograms, resolver cache
hit/miss splits, per-shard bookkeeping) are never deterministic and
never enter the digest.

Like every mergeable structure here, the registry travels between
process shards via :meth:`to_portable`/:meth:`from_portable`.  This
module imports nothing from ``repro`` but the root package's
``sha256``, so any layer may import it.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro import sha256

#: Histogram shape: bucket ``i`` holds latencies whose nanosecond value
#: has bit_length ``i`` (i.e. the range ``[2**(i-1), 2**i)``), clamped
#: at the top.  48 buckets cover ~1 ns .. ~39 hours.
NUM_BUCKETS = 48

#: Workload counters whose merged values are partition-independent for
#: a given (scenario, users, seed) — the decision/outcome counters the
#: digest-equality tests already pin.  Per-shard bookkeeping (resolver
#: hits/misses, warmup resolutions, per-shard update applications) is
#: deliberately absent: those counters vary with how users were
#: partitioned, which the driver documents.
DETERMINISTIC_WORKLOAD_COUNTERS = frozenset({
    "rsa_calls",
    "rsa_for_calls",
    "rsa_granted",
    "rsa_denied",
    "queries",
    "related_hits",
    "page_visits",
})


class LatencyHistogram:
    """A fixed-bucket nanosecond histogram with lossless merge.

    Buckets are powers of two, so resolution is a factor of two —
    coarse for single measurements, plenty for p50/p95/p99 over
    thousands of decisions, and the fixed shape makes shard merging a
    vector add: percentiles computed after a merge are identical no
    matter how the traffic was partitioned.
    """

    __slots__ = ("counts", "total")

    def __init__(self, counts: list[int] | None = None):
        if counts is None:
            self.counts = [0] * NUM_BUCKETS
        else:
            if len(counts) != NUM_BUCKETS:
                raise ValueError(
                    f"histogram shape mismatch: {len(counts)} buckets, "
                    f"expected {NUM_BUCKETS}"
                )
            self.counts = list(counts)
        self.total = sum(self.counts)

    def record(self, ns: int) -> None:
        """Record one latency observation (nanoseconds, >= 0)."""
        index = ns.bit_length() if ns > 0 else 0
        if index >= NUM_BUCKETS:
            index = NUM_BUCKETS - 1
        self.counts[index] += 1
        self.total += 1

    def merge(self, other: LatencyHistogram) -> None:
        """Fold another histogram into this one (element-wise add)."""
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total

    def percentile(self, q: float) -> float:
        """The latency (ns) at quantile ``q`` in [0, 1].

        Returns the geometric midpoint of the bucket containing the
        q-th observation (0.0 for an empty histogram).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, round(q * self.total))
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if i == 0:
                    return 0.5
                # Bucket i covers [2**(i-1), 2**i): geometric midpoint.
                return float(2 ** (i - 1)) * (2 ** 0.5)
        return float(2 ** (NUM_BUCKETS - 1))  # pragma: no cover

    def summary(self) -> dict[str, float]:
        """p50/p95/p99 in nanoseconds, plus the observation count."""
        return {
            "count": float(self.total),
            "p50_ns": self.percentile(0.50),
            "p95_ns": self.percentile(0.95),
            "p99_ns": self.percentile(0.99),
        }


class MetricsRegistry:
    """Namespaced, mergeable counters, gauges, and latency histograms.

    Thread-safe for concurrent registration and updates: metric
    creation happens under a lock, and counter bumps ride
    ``dict``-entry addition under the same lock (a registry is filled
    when a report is taken, not bumped on the hot path — hot paths
    keep their own lock-free instruments and write them in then).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._deterministic: set[str] = set()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -- registration and updates ---------------------------------------------

    def count(self, name: str, n: int = 1, *,
              deterministic: bool = False) -> None:
        """Add ``n`` to a named counter (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            if deterministic:
                self._deterministic.add(name)

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (merge keeps the max)."""
        with self._lock:
            self._gauges[name] = float(value)

    def histogram(self, name: str) -> LatencyHistogram:
        """The named latency histogram (created empty on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            return histogram

    def record_latency(self, name: str, ns: int) -> None:
        """Record one nanosecond observation under a histogram name."""
        self.histogram(name).record(ns)

    # -- reads ----------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """A copy of all counters."""
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        """A copy of all gauges."""
        with self._lock:
            return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, LatencyHistogram]:
        """A shallow copy of the histogram table."""
        with self._lock:
            return dict(self._histograms)

    def counter_value(self, name: str) -> int:
        """One counter's current value (0 when absent)."""
        with self._lock:
            return self._counters.get(name, 0)

    def deterministic_counters(self) -> dict[str, int]:
        """The deterministic counter subset (the digest's input)."""
        with self._lock:
            return {name: self._counters[name]
                    for name in self._deterministic
                    if name in self._counters}

    def as_flat_dict(self) -> dict[str, float]:
        """Everything as one flat ``{name: float}`` mapping.

        Every ``stats_report()`` and the
        :class:`~repro.api.envelopes.StatsResponse` body: counters and
        gauges keep their names; each histogram expands to
        ``<name>.count`` / ``<name>.p50_ns`` / ``<name>.p95_ns`` /
        ``<name>.p99_ns``.
        """
        with self._lock:
            flat: dict[str, float] = {name: float(value)
                                      for name, value in
                                      self._counters.items()}
            flat.update(self._gauges)
            histograms = list(self._histograms.items())
        for name, histogram in histograms:
            for key, value in histogram.summary().items():
                flat[f"{name}.{key}"] = value
        return flat

    # -- merge / transport ----------------------------------------------------

    def merge(self, other: MetricsRegistry) -> None:
        """Fold another registry into this one.

        Counters add, gauges keep the max, histograms vector-add, and
        the deterministic marking is unioned — so merging shard-local
        registries commutes exactly like merging digests.
        """
        with other._lock:
            counters = dict(other._counters)
            deterministic = set(other._deterministic)
            gauges = dict(other._gauges)
            histograms = dict(other._histograms)
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._deterministic |= deterministic
            for name, value in gauges.items():
                mine = self._gauges.get(name)
                self._gauges[name] = value if mine is None \
                    else max(mine, value)
        for name, histogram in histograms.items():
            self.histogram(name).merge(histogram)

    def to_portable(self) -> dict:
        """A picklable/JSON-able plain-data form."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "deterministic": sorted(self._deterministic),
                "gauges": dict(self._gauges),
                "histograms": {name: list(histogram.counts)
                               for name, histogram
                               in self._histograms.items()},
            }

    @classmethod
    def from_portable(cls, data: Mapping) -> MetricsRegistry:
        """Rebuild a registry from :meth:`to_portable` output."""
        registry = cls()
        registry._counters = dict(data["counters"])
        registry._deterministic = set(data["deterministic"])
        registry._gauges = {name: float(value)
                            for name, value in data["gauges"].items()}
        registry._histograms = {
            name: LatencyHistogram(list(counts))
            for name, counts in data["histograms"].items()
        }
        return registry

    def digest_hex(self) -> str:
        """A sha256 over the deterministic counter subset.

        Bit-identical across runs, shard counts, and executors for a
        seeded workload — the registry's analogue of the outcome
        digest.  Only counters registered deterministic participate;
        timing histograms, gauges, and partition-dependent bookkeeping
        are excluded by construction.
        """
        payload = "\n".join(
            f"{name}={value}"
            for name, value in sorted(self.deterministic_counters().items())
        )
        return sha256(payload.encode("utf-8")).hexdigest()


class MetricsSource:
    """Mixin: a component's report views over its :meth:`write_metrics`.

    A component implements :meth:`write_metrics` — its own metrics,
    written once under their final names — and inherits the two views
    every report reads.
    """

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """Write this component's metrics into ``registry``."""
        raise NotImplementedError

    def stats_registry(self) -> MetricsRegistry:
        """A fresh registry holding this component's metrics."""
        registry = MetricsRegistry()
        self.write_metrics(registry)
        return registry

    def stats_report(self) -> dict[str, float]:
        """:meth:`stats_registry` flattened to ``{name: float}`` — the
        :class:`~repro.api.envelopes.StatsResponse` body."""
        return self.stats_registry().as_flat_dict()
