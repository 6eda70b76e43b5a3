"""Tests for the observability layer (repro.obs).

The layer's contract is determinism-first: merged metrics and trace
digests must be bit-identical for a seeded workload across runs, shard
counts, and executors — exactly like the outcome digest — while
wall-clock timing stays an opt-in annotation that never enters any
digest.
"""

import json
import threading

from repro.api import BatchQueryRequest, Dispatcher
from repro.cluster import Router
from repro.data import build_rws_list
from repro.obs import (
    DETERMINISTIC_WORKLOAD_COUNTERS,
    METRICS_SCHEMA,
    NULL_TRACER,
    MetricsRegistry,
    StageProfiler,
    TRACE_SCHEMA,
    Tracer,
    TraceSummary,
    fold_api_counter,
    fold_psl_stats,
    fold_queue_stats,
    fold_stats_report,
    fold_workload_metrics,
    load_snapshot,
    metrics_snapshot,
    registry_for_backend,
    render_metrics_lines,
    render_trace_lines,
    trace_snapshot,
    write_snapshot,
)
from repro.obs.trace import span_id
from repro.psl import PublicSuffixList
from repro.serve import RwsService
from repro.workload import replicated, run_workload
from repro.workload.metrics import WorkloadMetrics
from repro.workload.scenarios import _seed_v2


class TestMetricsRegistry:
    def test_counters_add_on_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.count("serve.queries", 2, deterministic=True)
        right.count("serve.queries", 3, deterministic=True)
        right.count("serve.publishes", 1)
        left.merge(right)
        assert left.counter_value("serve.queries") == 5
        assert left.counter_value("serve.publishes") == 1
        assert left.deterministic_counters() == {"serve.queries": 5}

    def test_gauges_keep_max_on_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.gauge("serve.epoch", 3.0)
        right.gauge("serve.epoch", 5.0)
        right.gauge("serve.index_sets", 41.0)
        left.merge(right)
        assert left.gauges == {"serve.epoch": 5.0,
                               "serve.index_sets": 41.0}

    def test_histograms_vector_add_on_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.record_latency("workload.latency.rsa", 100)
        right.record_latency("workload.latency.rsa", 100_000)
        left.merge(right)
        merged = left.histograms["workload.latency.rsa"]
        assert merged.total == 2
        assert merged.percentile(0.0) < merged.percentile(1.0)

    def test_portable_round_trip_preserves_digest(self):
        registry = MetricsRegistry()
        registry.count("workload.queries", 7, deterministic=True)
        registry.gauge("serve.epoch", 2.0)
        registry.record_latency("api.latency.query", 1500)
        clone = MetricsRegistry.from_portable(registry.to_portable())
        assert clone.digest_hex() == registry.digest_hex()
        assert clone.as_flat_dict() == registry.as_flat_dict()

    def test_digest_covers_only_deterministic_counters(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry, noise in ((left, 10), (right, 99)):
            registry.count("workload.queries", 7, deterministic=True)
            registry.count("serve.resolver_hits", noise)
            registry.gauge("serve.epoch", float(noise))
            registry.record_latency("api.latency.query", noise * 100)
        assert left.digest_hex() == right.digest_hex()
        left.count("workload.queries", 1, deterministic=True)
        assert left.digest_hex() != right.digest_hex()

    def test_merge_commutes(self):
        def build(queries, hits):
            registry = MetricsRegistry()
            registry.count("workload.queries", queries,
                           deterministic=True)
            registry.count("workload.related_hits", hits,
                           deterministic=True)
            return registry

        ab = build(3, 1)
        ab.merge(build(5, 2))
        ba = build(5, 2)
        ba.merge(build(3, 1))
        assert ab.digest_hex() == ba.digest_hex()
        assert ab.counters == ba.counters


class TestRegistryAdapters:
    def test_fold_psl_stats_namespaces_and_gauges(self):
        registry = MetricsRegistry()
        fold_psl_stats(registry, {"hits": 10, "misses": 2,
                                  "size": 12, "maxsize": 4096})
        assert registry.counter_value("psl.hits") == 10
        assert registry.counter_value("psl.misses") == 2
        assert registry.gauges["psl.size"] == 12.0
        assert registry.gauges["psl.maxsize"] == 4096.0

    def test_fold_queue_stats(self):
        from repro.serve.queue import QueueStats

        registry = MetricsRegistry()
        fold_queue_stats(registry, QueueStats(submitted=4, passed=3,
                                              rejected=1, errored=0))
        assert registry.counter_value("queue.submitted") == 4
        assert registry.counter_value("queue.passed") == 3
        assert registry.counter_value("queue.rejected") == 1

    def test_fold_api_counter(self):
        from repro.api import Dispatcher, QueryRequest, RequestCounter

        service = RwsService()
        service.publish(build_rws_list())
        try:
            counter = RequestCounter()
            dispatcher = Dispatcher(service, middlewares=(counter,))
            dispatcher.dispatch(QueryRequest("timesinternet.in",
                                             "indiatimes.com"))
            registry = MetricsRegistry()
            fold_api_counter(registry, counter)
            assert registry.counter_value("api.requests.query") == 1
        finally:
            service.queue.shutdown()

    def test_fold_workload_metrics_marks_deterministic(self):
        metrics = WorkloadMetrics()
        metrics.count("queries", 5)
        metrics.count("resolver_hits", 9)
        metrics.record_latency("rsa", 2000)
        registry = MetricsRegistry()
        fold_workload_metrics(registry, metrics)
        assert registry.deterministic_counters() == \
            {"workload.queries": 5}
        assert registry.counter_value("workload.resolver_hits") == 9
        assert "workload.latency.rsa" in registry.histograms
        assert "queries" in DETERMINISTIC_WORKLOAD_COUNTERS

    def test_fold_stats_report_namespaces(self):
        registry = MetricsRegistry()
        fold_stats_report(registry, {
            "queries": 12.0, "epoch": 3.0, "psl_hits": 7.0,
            "queue_submitted": 2.0, "replicas": 4.0,
            "replica_catch_ups": 1.0,
        })
        assert registry.counter_value("serve.queries") == 12
        assert registry.gauges["serve.epoch"] == 3.0
        assert registry.counter_value("psl.hits") == 7
        assert registry.counter_value("queue.submitted") == 2
        assert registry.gauges["cluster.replicas"] == 4.0
        assert registry.counter_value("cluster.replica_catch_ups") == 1

    def test_registry_for_backend_covers_service_report(self):
        service = RwsService()
        service.publish(build_rws_list())
        try:
            service.query("timesinternet.in", "indiatimes.com")
            registry = registry_for_backend(service)
            assert registry.counter_value("serve.queries") == 1
            assert registry.gauges["serve.epoch"] == 1.0
            assert registry.gauges["serve.index_sets"] == 41.0
        finally:
            service.queue.shutdown()


class TestTracerDeterminism:
    @staticmethod
    def _manual_run(seed, *, wall_clock=False):
        tracer = Tracer(seed=seed, wall_clock=wall_clock)
        for index in range(5):
            with tracer.request(index):
                with tracer.span("outer", user=index):
                    tracer.emit("inner", value=index * 2)
        return tracer

    def test_same_seed_same_digest(self):
        first = self._manual_run(7)
        second = self._manual_run(7)
        assert first.digest_hex() == second.digest_hex()
        assert first.span_count == second.span_count == 10

    def test_seed_changes_span_ids_and_digest(self):
        assert self._manual_run(7).digest_hex() \
            != self._manual_run(8).digest_hex()
        assert span_id(7, 0, 0, "outer") != span_id(8, 0, 0, "outer")

    def test_wall_clock_is_excluded_from_the_digest(self):
        logical = self._manual_run(7)
        walled = self._manual_run(7, wall_clock=True)
        assert walled.digest_hex() == logical.digest_hex()
        assert any(span.wall_ns is not None for span in walled.spans())
        assert all(span.wall_ns is None for span in logical.spans())

    def test_spans_outside_requests_are_dropped(self):
        tracer = Tracer(seed=7)
        tracer.emit("orphan")  # warmup/background work: not a request
        with tracer.span("also-orphan"):
            pass
        assert tracer.span_count == 0
        assert int(tracer.digest_hex(), 16) == 0

    def test_summary_merge_equals_single_tracer(self):
        """Shard-local tracers merge to the whole-run digest."""
        whole = self._manual_run(7)
        low, high = Tracer(seed=7), Tracer(seed=7)
        for index in range(5):
            tracer = low if index < 3 else high
            with tracer.request(index):
                with tracer.span("outer", user=index):
                    tracer.emit("inner", value=index * 2)
        merged = low.summary()
        merged.merge(high.summary())
        assert merged.digest_hex == whole.digest_hex()
        assert merged.span_count == whole.span_count
        assert merged.request_count == whole.request_count

    def test_summary_portable_round_trip(self):
        summary = self._manual_run(7).summary()
        clone = TraceSummary.from_portable(summary.to_portable())
        assert clone.digest_hex == summary.digest_hex
        assert clone.span_count == summary.span_count

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.live is False
        with NULL_TRACER.request(0):
            NULL_TRACER.emit("anything", key="value")
            with NULL_TRACER.span("nested"):
                pass
        assert NULL_TRACER.span_count == 0
        assert int(NULL_TRACER.digest_hex(), 16) == 0


class TestWorkloadObservability:
    """The satellite contract: obs digests merge exactly like outcomes."""

    def test_trace_and_registry_digests_partition_independent(self):
        serial = run_workload("steady", 60, seed=11, trace=True)
        sharded = run_workload("steady", 60, shards=3, seed=11,
                               executor="inline", trace=True)
        threaded = run_workload("steady", 60, shards=2, seed=11,
                                executor="thread", trace=True)
        for other in (sharded, threaded):
            assert other.digest == serial.digest
            assert other.trace.digest_hex == serial.trace.digest_hex
            assert other.trace.span_count == serial.trace.span_count
            assert other.registry.digest_hex() \
                == serial.registry.digest_hex()

    def test_outcome_digest_unchanged_by_tracing(self):
        untraced = run_workload("steady", 60, seed=11)
        traced = run_workload("steady", 60, seed=11, trace=True)
        assert traced.digest == untraced.digest
        assert untraced.trace is None
        assert traced.trace.span_count > 0
        assert untraced.registry is not None

    def test_stale_replica_trace_digest_partition_independent(self):
        serial = run_workload("stale-replica", 40, seed=5, trace=True)
        sharded = run_workload("stale-replica", 40, shards=2, seed=5,
                               executor="thread", trace=True)
        assert sharded.trace.digest_hex == serial.trace.digest_hex
        assert sharded.digest == serial.digest

    def test_replicated_lag0_registry_digest_matches_serial(self):
        scenario = replicated("steady", 2, lag=0)
        serial = run_workload(scenario, 50, seed=3, trace=True)
        sharded = run_workload(scenario, 50, shards=2, seed=3,
                               executor="inline", trace=True)
        plain = run_workload("steady", 50, seed=3)
        assert sharded.digest == serial.digest == plain.digest
        assert sharded.registry.digest_hex() \
            == serial.registry.digest_hex() \
            == plain.registry.digest_hex()
        assert sharded.trace.digest_hex == serial.trace.digest_hex

    def test_report_lines_surface_obs_digests(self):
        result = run_workload("steady", 30, seed=2, trace=True)
        text = "\n".join(result.report_lines())
        assert f"metrics digest {result.registry.digest_hex()}" in text
        assert f"trace digest {result.trace.digest_hex}" in text


class TestPublishStormConsistency:
    def test_stats_report_is_a_single_capture(self):
        """Scrapes during a publish storm never mix two epochs.

        The v1 list has 41 sets, every storm publish carries the
        42-set successor — so any report pairing the v1 version with
        the v2 set count (or vice versa) would prove a torn capture.
        """
        service = RwsService()
        service.publish(build_rws_list())  # version 1, 41 sets
        sets_by_generation = {1: 41.0}
        storm_sets = float(len(_seed_v2().sets))

        stop = threading.Event()
        publish_errors = []

        def publish_loop():
            try:
                while not stop.is_set():
                    service.publish(_seed_v2())
            except Exception as exc:  # pragma: no cover - diagnostic
                publish_errors.append(exc)

        workers = [threading.Thread(target=publish_loop)
                   for _ in range(3)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(200):
                registry = service.stats_registry()
                gauges = registry.gauges
                version = gauges["serve.epoch"]
                assert gauges["serve.snapshot_version"] == version
                expected = sets_by_generation.get(version, storm_sets)
                assert gauges["serve.index_sets"] == expected, (
                    f"torn capture: version {version} reported "
                    f"{gauges['serve.index_sets']} sets"
                )
        finally:
            stop.set()
            for worker in workers:
                worker.join()
            service.queue.shutdown()
        assert not publish_errors


class TestStageProfiler:
    def test_attach_detach_restores_behaviour(self):
        service = RwsService()
        service.publish(build_rws_list())
        try:
            profiler = StageProfiler()
            profiler.attach_shell(service)
            verdict = service.query("timesinternet.in", "indiatimes.com")
            assert verdict.related is True
            assert profiler.allocations["alloc.query_verdict"] == 1
            assert profiler.stages["serve.query"].total == 1

            profiler.detach()
            assert "query" not in vars(service)
            service.query("timesinternet.in", "indiatimes.com")
            assert profiler.allocations["alloc.query_verdict"] == 1
        finally:
            service.queue.shutdown()

    def test_fold_into_registry_under_profile_namespace(self):
        profiler = StageProfiler()
        profiler.record("serve.query", 1500)
        profiler.count_alloc("alloc.query_verdict", 3)
        registry = MetricsRegistry()
        profiler.fold_into(registry)
        assert registry.counter_value("profile.alloc.query_verdict") == 3
        assert registry.histograms["profile.serve.query"].total == 1
        report = profiler.report()
        assert report["alloc.query_verdict"] == 3.0
        assert report["serve.query.count"] == 1.0


class TestBatchShapeEmissions:
    """What each :class:`BatchQueryRequest` shape emits, pinned at the
    dispatcher: the span stream with its ``node``/``pairs``/``related``
    annotations, the profiler's stage totals and its ``alloc.*``
    counters, on one service and on a 3-replica router under each
    policy.  Everything goes through the wire envelope, so the pins
    hold however the backends implement the shapes.
    """

    PAIRS = [("www.timesinternet.in", "indiatimes.com"),
             ("cafemedia.com", "M.CafeMediaAssets.net."),
             ("com", "indiatimes.com"),
             ("atlasquest.com", "pixelhearth.com"),
             ("stranger.org", "stranger.org"),
             ("roamly.com", "www.atlasquest.com"),
             ("Gaana.com", "cricbuzz.com"),
             ("verdantmedia.com", "bad..host")]
    SITES = [("timesinternet.in", "indiatimes.com"),
             (None, "indiatimes.com"),
             ("atlasquest.com", "pixelhearth.com"),
             ("roamly.com", "atlasquest.com"),
             ("stranger.org", "stranger.org"),
             ("gaana.com", "cricbuzz.com")]
    PAIR_BITS = [True, True, False, False, True, True, True, False]
    SITE_BITS = [True, False, False, True, True, True]

    def _requests(self) -> list:
        """detail, bits, resolved, resolved with the default ``detail``,
        and an empty batch, in that order."""
        return [BatchQueryRequest(self.PAIRS),
                BatchQueryRequest(self.PAIRS, detail=False),
                BatchQueryRequest(self.SITES, detail=False, resolved=True),
                BatchQueryRequest(self.SITES, resolved=True),
                BatchQueryRequest([])]

    def _run(self, policy: str | None):
        """Dispatch every shape, one traced request each."""
        service = RwsService(psl=PublicSuffixList())
        service.publish(build_rws_list())
        tracer = Tracer(seed=3)
        profiler = StageProfiler()
        if policy is None:
            backend = service
            service.set_tracer(tracer)
            profiler.attach_shell(service)
        else:
            backend = Router(service, replicas=3, policy=policy)
            backend.set_tracer(tracer)
            profiler.attach_router(backend)
            for replica in backend.replicas:
                profiler.attach_shell(replica)
        dispatcher = Dispatcher(backend, tracer=tracer)
        try:
            responses = []
            for index, request in enumerate(self._requests()):
                with tracer.request(index):
                    responses.append(dispatcher.dispatch(request))
        finally:
            service.queue.shutdown()
        bits = [self.PAIR_BITS, self.PAIR_BITS, self.SITE_BITS,
                self.SITE_BITS, []]
        assert [response.related for response in responses] == bits
        # Verdict objects answer the detail shape only.
        assert [len(response.verdicts) if response.verdicts is not None
                else None for response in responses] \
            == [len(self.PAIRS), None, None, None, 0]
        spans = [(span.request_index, span.seq, span.name,
                  dict(span.annotations)) for span in tracer.spans()]
        stages = {stage: histogram.total
                  for stage, histogram in profiler.stages.items()}
        return spans, stages, dict(profiler.allocations)

    @staticmethod
    def _stream(policy: str | None, requests: list) -> list:
        """The expected spans: per request, the router's span (routed
        non-empty batches only), each serve span in emission order,
        then the enclosing ``api.dispatch``."""
        spans = []
        for index, (pairs, serves) in enumerate(requests):
            seq = 1
            if policy is not None and pairs:
                spans.append((index, seq, "cluster.route_batch",
                              {"pairs": str(pairs), "policy": policy}))
                seq += 1
            for name, node, count, related in serves:
                spans.append((index, seq, name,
                              {"node": node, "pairs": str(count),
                               "related": str(related)}))
                seq += 1
            spans.append((index, 0, "api.dispatch", {"op": "batch_query"}))
        return spans

    def test_service(self):
        spans, stages, allocations = self._run(None)
        assert spans == self._stream(None, [
            (8, [("serve.query_batch", "primary", 8, 5)]),
            (8, [("serve.related_batch", "primary", 8, 5)]),
            (6, [("serve.related_sites_batch", "primary", 6, 4)]),
            (6, [("serve.related_sites_batch", "primary", 6, 4)]),
            (0, []),
        ])
        # The empty batch still passes through the profiled read.
        assert stages == {"serve.query_batch": 2, "serve.related_batch": 1,
                          "serve.related_sites_batch": 2}
        assert allocations == {"alloc.query_verdict": 8,
                               "alloc.query_result": 6}

    def test_round_robin_router(self):
        spans, stages, allocations = self._run("round-robin")
        assert spans == self._stream("round-robin", [
            (8, [("serve.query_batch", "replica", 8, 5)]),
            (8, [("serve.related_batch", "replica", 8, 5)]),
            (6, [("serve.related_sites_batch", "replica", 6, 4)]),
            (6, [("serve.related_sites_batch", "replica", 6, 4)]),
            (0, []),
        ])
        assert stages == {"cluster.route_batch": 5, "serve.query_batch": 1,
                          "serve.related_batch": 1,
                          "serve.related_sites_batch": 2}
        assert allocations == {"alloc.query_verdict": 8,
                               "alloc.query_result": 6,
                               "alloc.router_pair_route": 28}

    def test_rendezvous_router(self):
        spans, stages, allocations = self._run("rendezvous")
        hosts = [("replica-2", 3, 1), ("replica-1", 4, 3),
                 ("replica-0", 1, 1)]
        sites = [("replica-2", 2, 1), ("replica-1", 3, 2),
                 ("replica-0", 1, 1)]
        assert spans == self._stream("rendezvous", [
            (8, [("serve.query_batch", *split) for split in hosts]),
            (8, [("serve.related_batch", *split) for split in hosts]),
            (6, [("serve.related_sites_batch", *split) for split in sites]),
            (6, [("serve.related_sites_batch", *split) for split in sites]),
            (0, []),
        ])
        assert stages == {"cluster.route_batch": 5, "serve.query_batch": 3,
                          "serve.related_batch": 3,
                          "serve.related_sites_batch": 6}
        assert allocations == {"alloc.query_verdict": 8,
                               "alloc.query_result": 6,
                               "alloc.router_pair_route": 28}


class TestExport:
    def test_metrics_snapshot_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.count("workload.queries", 9, deterministic=True)
        registry.gauge("serve.epoch", 1.0)
        registry.record_latency("api.latency.query", 2000)
        snapshot = metrics_snapshot(registry, meta={"scenario": "steady"})
        assert snapshot["schema"] == METRICS_SCHEMA
        assert snapshot["digest"] == registry.digest_hex()
        assert snapshot["deterministic"] == {"workload.queries": 9}
        assert snapshot["meta"] == {"scenario": "steady"}

        path = write_snapshot(tmp_path / "metrics.json", snapshot)
        assert load_snapshot(path) == json.loads(
            json.dumps(snapshot))  # JSON-able and stable

    def test_trace_snapshot_schema_and_digest(self, tmp_path):
        tracer = Tracer(seed=4)
        with tracer.request(0):
            tracer.emit("serve.query", related=True)
        snapshot = trace_snapshot(tracer.summary())
        assert snapshot["schema"] == TRACE_SCHEMA
        assert snapshot["digest"] == tracer.digest_hex()
        path = write_snapshot(tmp_path / "trace.json", snapshot)
        assert load_snapshot(path)["digest"] == tracer.digest_hex()

    def test_render_metrics_lines(self):
        registry = MetricsRegistry()
        registry.count("serve.queries", 3)
        registry.record_latency("api.latency.query", 1000)
        lines = render_metrics_lines(registry)
        assert any("serve.queries" in line and "3" in line
                   for line in lines)
        assert any(line.startswith("registry digest ")
                   for line in lines)

    def test_render_trace_lines(self):
        tracer = Tracer(seed=4)
        for index in range(3):
            with tracer.request(index):
                tracer.emit("serve.query", related=bool(index % 2))
        lines = render_trace_lines(tracer.summary(), limit=2)
        assert lines[0] == f"trace digest {tracer.digest_hex()}"
        assert any("serve.query" in line for line in lines)
        assert any("1 more spans" in line for line in lines)
