"""Tests for the observability layer (repro.obs).

The layer's contract is determinism-first: merged metrics and trace
digests must be bit-identical for a seeded workload across runs, shard
counts, and executors — exactly like the outcome digest — while
wall-clock timing stays an opt-in annotation that never enters any
digest.
"""

import json
import random
import re
import threading

from repro.api import (
    BatchQueryRequest,
    Dispatcher,
    LatencyRecorder,
    PollRequest,
    QueryRequest,
    RequestCounter,
    ResolveRequest,
    StatsRequest,
    SubmitRequest,
)
from repro.chaos import ChaosRouter, chaos_plan
from repro.cluster import Router
from repro.data import build_rws_list
from repro.net import RwsTcpServer, ServerThread, TcpApiClient
from repro.obs import (
    DETERMINISTIC_WORKLOAD_COUNTERS,
    METRICS_SCHEMA,
    NULL_TRACER,
    MetricsRegistry,
    StageProfiler,
    TRACE_SCHEMA,
    Tracer,
    TraceSummary,
    load_snapshot,
    metrics_snapshot,
    render_metrics_lines,
    render_trace_lines,
    trace_snapshot,
    write_snapshot,
)
from repro.obs.trace import span_id
from repro.psl import PublicSuffixList
from repro.rws import RelatedWebsiteSet
from repro.serve import RwsService
from repro.workload import replicated, run_workload
from repro.workload.scenarios import _seed_v2


def own_psl_service() -> RwsService:
    """A seed-list service with its own PSL, so ``psl.*`` is its own."""
    service = RwsService(psl=PublicSuffixList(), workers=1)
    service.publish(build_rws_list())
    return service


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


class TestComponentMetrics:
    """Each component writes its own metrics under their final names."""

    def test_service_writes_psl_cache_as_counters_and_gauges(self):
        service = own_psl_service()
        try:
            for _ in range(2):
                service.query("www.timesinternet.in", "indiatimes.com")
            registry = service.stats_registry()
            cache = service.psl.cache_stats()
            assert registry.counter_value("psl.hits") == cache["hits"] == 2
            assert registry.counter_value("psl.misses") == cache["misses"]
            assert registry.gauges["psl.size"] == float(cache["size"])
            assert registry.gauges["psl.maxsize"] == 4096.0
        finally:
            service.queue.shutdown()

    def test_service_writes_all_four_queue_counters(self):
        service = own_psl_service()
        try:
            for rws_set in build_rws_list().sets[:3]:
                service.submit(rws_set)
            service.submit(RelatedWebsiteSet(
                primary="brand-new.com", associated=["brand-new-news.com"]))
            service.drain()
            counters = service.stats_registry().counters
            assert counters["queue.submitted"] == 4
            assert counters["queue.passed"] == 3
            assert counters["queue.rejected"] == 1
            assert counters["queue.errored"] == 0
        finally:
            service.queue.shutdown()

    def test_request_counter_writes_api_namespace(self):
        service = own_psl_service()
        try:
            counter = RequestCounter()
            dispatcher = Dispatcher(service, middlewares=(counter,))
            dispatcher.dispatch(QueryRequest("timesinternet.in",
                                             "indiatimes.com"))
            dispatcher.dispatch(QueryRequest("com", "indiatimes.com"))
            registry = MetricsRegistry()
            counter.write_metrics(registry)
            assert registry.counters == {"api.requests.query": 2,
                                         "api.errors.query": 1}
        finally:
            service.queue.shutdown()

    def test_workload_registry_marks_deterministic_counters(self):
        result = run_workload("steady", 30, seed=2)
        registry = result.registry
        deterministic = registry.deterministic_counters()
        assert deterministic["workload.queries"] == result.count("queries")
        assert set(deterministic) <= {
            f"workload.{name}" for name in DETERMINISTIC_WORKLOAD_COUNTERS}
        assert registry.counter_value("workload.resolver_hits") \
            == result.count("resolver_hits") > 0
        assert "workload.resolver_hits" not in deterministic
        assert "workload.latency.rsa" in registry.histograms
        assert "queries" in DETERMINISTIC_WORKLOAD_COUNTERS

    def test_router_writes_fleet_under_cluster_namespace(self):
        primary = own_psl_service()
        try:
            router = Router(primary, 4, lag=1)
            router.query("timesinternet.in", "indiatimes.com")
            router.publish(_seed_v2())
            router.advance(1)
            registry = router.stats_registry()
            assert registry.counter_value("serve.queries") == 1
            assert registry.gauges["serve.epoch"] == 2.0
            assert registry.counter_value("psl.hits") \
                == primary.psl.cache_stats()["hits"]
            assert registry.counter_value("queue.submitted") == 0
            assert registry.gauges["cluster.replicas"] == 4.0
            assert registry.counter_value("cluster.replica_catch_ups") == 4
        finally:
            primary.queue.shutdown()

    def test_service_registry_covers_serve_namespace(self):
        service = own_psl_service()
        try:
            service.query("timesinternet.in", "indiatimes.com")
            registry = service.stats_registry()
            assert registry.counter_value("serve.queries") == 1
            assert registry.gauges["serve.epoch"] == 1.0
            assert registry.gauges["serve.index_sets"] == 41.0
            assert service.stats_report() == registry.as_flat_dict()
        finally:
            service.queue.shutdown()


# -- the committed name map ---------------------------------------------------
#
# One line per metric: name, kind, and value.  ``*`` leaves a value
# unpinned: a timing, or (in the workload runs, which share the
# process-wide default PSL) a count that depends on what the process
# resolved before.

_SCHEMA_SERVICE = """
api.errors.poll                  counter    1
api.errors.query                 counter    1
api.latency.batch_query          histogram  2
api.latency.poll                 histogram  1
api.latency.query                histogram  20
api.latency.resolve              histogram  1
api.latency.stats                histogram  1
api.latency.submit               histogram  3
api.requests.batch_query         counter    2
api.requests.poll                counter    1
api.requests.query               counter    20
api.requests.resolve             counter    1
api.requests.stats               counter    1
api.requests.submit              counter    3
epoch.encode_ns                  counter    *
epoch.encodes                    counter    1
epoch.load_ns                    counter    *
epoch.loads                      counter    0
psl.errors                       counter    1
psl.hits                         counter    57
psl.maxsize                      gauge      4096
psl.misses                       counter    39
psl.size                         gauge      39
queue.errored                    counter    0
queue.passed                     counter    3
queue.rejected                   counter    0
queue.submitted                  counter    3
serve.epoch                      gauge      1
serve.index_sets                 gauge      41
serve.index_sites                gauge      173
serve.publishes                  counter    1
serve.queries                    counter    40
serve.query_ns                   counter    *
serve.related_hits               counter    5
serve.resolver_errors            counter    1
serve.resolver_hits              counter    43
serve.resolver_misses            counter    38
serve.snapshot_version           gauge      1
"""

_SCHEMA_ROUTER = """
cluster.duplicates_ignored       counter    0
cluster.replica_catch_ups        counter    2
cluster.replica_epoch_max        gauge      2
cluster.replica_epoch_min        gauge      1
cluster.replica_hops_applied     counter    2
cluster.replica_pending_updates  gauge      1
cluster.replicas                 gauge      3
cluster.resyncs                  counter    0
epoch.encode_ns                  counter    *
epoch.encodes                    counter    2
epoch.load_ns                    counter    *
epoch.loads                      counter    0
psl.errors                       counter    9
psl.hits                         counter    194
psl.maxsize                      gauge      4096
psl.misses                       counter    39
psl.size                         gauge      39
queue.errored                    counter    0
queue.passed                     counter    0
queue.rejected                   counter    0
queue.submitted                  counter    0
serve.epoch                      gauge      2
serve.index_sets                 gauge      42
serve.index_sites                gauge      176
serve.publishes                  counter    2
serve.queries                    counter    80
serve.query_ns                   counter    *
serve.related_hits               counter    10
serve.resolver_errors            counter    7
serve.resolver_hits              counter    131
serve.resolver_misses            counter    31
serve.snapshot_version           gauge      2
"""

_SCHEMA_REPLICA = """
cluster.duplicates_ignored       counter    0
cluster.replica                  gauge      2
cluster.replica_catch_ups        counter    0
cluster.replica_hops_applied     counter    0
cluster.replica_pending_updates  gauge      1
cluster.resyncs                  counter    0
epoch.load_ns                    counter    *
epoch.loads                      counter    0
serve.epoch                      gauge      1
serve.index_sets                 gauge      41
serve.index_sites                gauge      173
serve.publishes                  counter    0
serve.queries                    counter    18
serve.query_ns                   counter    *
serve.related_hits               counter    1
serve.resolver_errors            counter    3
serve.resolver_hits              counter    29
serve.resolver_misses            counter    9
serve.snapshot_version           gauge      1
"""

_SCHEMA_CHAOS = """
chaos.bootstrap_hops             counter    1
chaos.bootstrap_snapshots        counter    0
chaos.canary_promotes            counter    0
chaos.canary_rollbacks           counter    0
chaos.drops                      counter    0
chaos.duplicates                 counter    0
chaos.failovers                  counter    1
chaos.joins                      counter    0
chaos.leaves                     counter    0
chaos.rejoins                    counter    1
chaos.reorders                   counter    0
cluster.active_replicas          gauge      4
cluster.availability             gauge      1
cluster.duplicates_ignored       counter    0
cluster.replica_catch_ups        counter    4
cluster.replica_epoch_max        gauge      2
cluster.replica_epoch_min        gauge      2
cluster.replica_hops_applied     counter    4
cluster.replica_pending_updates  gauge      0
cluster.replicas                 gauge      4
cluster.resyncs                  counter    0
epoch.encode_ns                  counter    *
epoch.encodes                    counter    2
epoch.load_ns                    counter    *
epoch.loads                      counter    1
psl.errors                       counter    7
psl.hits                         counter    196
psl.maxsize                      gauge      4096
psl.misses                       counter    39
psl.size                         gauge      39
queue.errored                    counter    0
queue.passed                     counter    0
queue.rejected                   counter    0
queue.submitted                  counter    0
serve.epoch                      gauge      2
serve.index_sets                 gauge      42
serve.index_sites                gauge      176
serve.publishes                  counter    1
serve.queries                    counter    80
serve.query_ns                   counter    *
serve.related_hits               counter    11
serve.resolver_errors            counter    7
serve.resolver_hits              counter    140
serve.resolver_misses            counter    22
serve.snapshot_version           gauge      2
"""

_SCHEMA_TCP = """
epoch.encode_ns                  counter    *
epoch.encodes                    counter    1
epoch.load_ns                    counter    *
epoch.loads                      counter    0
net.backpressure_stalls          counter    0
net.client.backoff_ms            counter    0
net.client.faults_injected       counter    0
net.client.reconnects            counter    1
net.client.requests              counter    25
net.client.responses             counter    25
net.client.retries               counter    0
net.client.transport_errors      counter    0
net.connections_closed           counter    1
net.connections_opened           counter    1
net.connections_peak             gauge      1
net.connections_rejected         counter    0
net.frames_in                    counter    26
net.frames_out                   counter    26
net.idle_timeouts                counter    0
net.malformed                    counter    0
net.max_connections              gauge      64
net.pipeline_depth_peak          gauge      1
net.publishes                    counter    0
net.request_ns                   histogram  25
net.requests                     counter    25
net.responses                    counter    25
net.window                       gauge      32
psl.errors                       counter    3
psl.hits                         counter    43
psl.maxsize                      gauge      4096
psl.misses                       counter    35
psl.size                         gauge      35
queue.errored                    counter    0
queue.passed                     counter    0
queue.rejected                   counter    0
queue.submitted                  counter    0
serve.epoch                      gauge      1
serve.index_sets                 gauge      41
serve.index_sites                gauge      173
serve.publishes                  counter    1
serve.queries                    counter    40
serve.query_ns                   counter    *
serve.related_hits               counter    9
serve.resolver_errors            counter    6
serve.resolver_hits              counter    43
serve.resolver_misses            counter    38
serve.snapshot_version           gauge      1
"""

#: ``steady``, 60 users, seed 3, serial: one query dispatch per
#: decision, each timed.
_SCHEMA_WORKLOAD = """
api.requests.query               counter    369
epoch.encode_ns                  counter    *
epoch.encodes                    counter    0
epoch.load_ns                    counter    *
epoch.loads                      counter    1
psl.errors                       counter    *
psl.hits                         counter    *
psl.maxsize                      gauge      *
psl.misses                       counter    *
psl.size                         gauge      *
queue.errored                    counter    0
queue.passed                     counter    0
queue.rejected                   counter    0
queue.submitted                  counter    0
serve.epoch                      gauge      1
serve.index_sets                 gauge      41
serve.index_sites                gauge      173
serve.publishes                  counter    1
serve.queries                    counter    369
serve.query_ns                   counter    *
serve.related_hits               counter    108
serve.resolver_errors            counter    0
serve.resolver_hits              counter    *
serve.resolver_misses            counter    *
serve.snapshot_version           gauge      1
workload.latency.query           histogram  369
workload.latency.rsa             histogram  369
workload.page_visits             counter    185
workload.queries                 counter    369
workload.related_hits            counter    108
workload.resolver_hits           counter    *
workload.resolver_misses         counter    *
workload.rsa_calls               counter    369
workload.rsa_denied              counter    296
workload.rsa_for_calls           counter    5
workload.rsa_granted             counter    78
"""

#: The same run on three inline shards: one batch dispatch per flush
#: (latency sampled once per flush, rSA latency one in 32), and one
#: epoch load and one publish count per shard.
_SCHEMA_SHARDED = """
api.requests.batch_query         counter    9
epoch.encode_ns                  counter    *
epoch.encodes                    counter    0
epoch.load_ns                    counter    *
epoch.loads                      counter    3
psl.errors                       counter    *
psl.hits                         counter    *
psl.maxsize                      gauge      *
psl.misses                       counter    *
psl.size                         gauge      *
queue.errored                    counter    0
queue.passed                     counter    0
queue.rejected                   counter    0
queue.submitted                  counter    0
serve.epoch                      gauge      1
serve.index_sets                 gauge      41
serve.index_sites                gauge      173
serve.publishes                  counter    3
serve.queries                    counter    369
serve.query_ns                   counter    *
serve.related_hits               counter    108
serve.resolver_errors            counter    0
serve.resolver_hits              counter    *
serve.resolver_misses            counter    *
serve.snapshot_version           gauge      1
workload.latency.query           histogram  9
workload.latency.rsa             histogram  10
workload.page_visits             counter    185
workload.queries                 counter    369
workload.related_hits            counter    108
workload.resolver_hits           counter    *
workload.resolver_misses         counter    *
workload.rsa_calls               counter    369
workload.rsa_denied              counter    296
workload.rsa_for_calls           counter    5
workload.rsa_granted             counter    78
"""


def _schema_table(text: str) -> dict[str, tuple[str, float | None]]:
    table = {}
    for line in text.strip().splitlines():
        name, kind, value = line.split()
        table[name] = (kind, None if value == "*" else float(value))
    return table


def assert_schema(registry: MetricsRegistry, expected_text: str) -> None:
    """The registry's exact name → (kind, value) map, ``*`` unpinned."""
    expected = _schema_table(expected_text)
    actual = {name: ("counter", float(value))
              for name, value in registry.counters.items()}
    actual.update((name, ("gauge", value))
                  for name, value in registry.gauges.items())
    actual.update((name, ("histogram", float(histogram.total)))
                  for name, histogram in registry.histograms.items())
    for name, (kind, value) in expected.items():
        if value is None and name in actual:
            actual[name] = (actual[name][0], None)
    assert actual == expected


def _schema_drive(dispatcher, seed: int) -> None:
    """Seeded reads, a bad host, a resolve and an unknown ticket."""
    rng = random.Random(seed)
    members = [record.site for record in build_rws_list().all_members()]
    hosts = (members[:30] + [f"www.{site}" for site in members[:8]]
             + ["bad..host", "com", "unlisted-site.org"])
    pairs = [(rng.choice(hosts), rng.choice(hosts)) for _ in range(40)]
    for host_a, host_b in pairs[:20]:
        dispatcher.dispatch(QueryRequest(host_a, host_b))
    dispatcher.dispatch(BatchQueryRequest(pairs=pairs[20:30]))
    dispatcher.dispatch(BatchQueryRequest(pairs=pairs[30:], detail=False))
    dispatcher.dispatch(ResolveRequest(host="www.timesinternet.in"))
    dispatcher.dispatch(PollRequest(ticket="sub-none"))


class TestOneSchema:
    """The committed name map: every layer's registry, name by name.

    Each stack serves seeded traffic; each table pins every metric's
    kind and every value that is not a timing.  Services get their own
    PSL, so ``psl.*`` counts only their traffic.
    """

    def test_service_behind_counter_and_latency_recorder(self):
        service = own_psl_service()
        try:
            counter, latency = RequestCounter(), LatencyRecorder()
            dispatcher = Dispatcher(service,
                                    middlewares=(counter, latency))
            _schema_drive(dispatcher, 1)
            for rws_set in build_rws_list().sets[:3]:
                dispatcher.dispatch(SubmitRequest(rws_set=rws_set))
            service.drain()
            dispatcher.dispatch(StatsRequest())
            registry = service.stats_registry()
            counter.write_metrics(registry)
            registry.merge(latency.registry)
            assert_schema(registry, _SCHEMA_SERVICE)
        finally:
            service.queue.shutdown()

    def test_router_and_one_replica(self):
        primary = own_psl_service()
        try:
            router = Router(primary, 3, lag=[0, 2, 4], policy="rendezvous")
            dispatcher = Dispatcher(router)
            _schema_drive(dispatcher, 2)
            router.advance(10)
            router.publish(_seed_v2())
            router.advance(12)  # replica 2 still owes its hop
            _schema_drive(dispatcher, 3)
            assert_schema(router.stats_registry(), _SCHEMA_ROUTER)
            assert_schema(router.replicas[2].stats_registry(),
                          _SCHEMA_REPLICA)
        finally:
            primary.queue.shutdown()

    def test_chaos_router_under_failover(self):
        primary = own_psl_service()
        try:
            router = ChaosRouter(primary, 3,
                                 plan=chaos_plan("failover", 100, 2),
                                 lag=[2, 4, 6])
            dispatcher = Dispatcher(router)
            _schema_drive(dispatcher, 4)
            router.advance(50)
            router.publish(_seed_v2())
            router.advance(100)
            _schema_drive(dispatcher, 5)
            assert_schema(router.stats_registry(), _SCHEMA_CHAOS)
        finally:
            primary.queue.shutdown()

    def test_tcp_server_and_client(self):
        service = own_psl_service()
        harness = ServerThread(RwsTcpServer(service))
        try:
            client = TcpApiClient(*harness.start())
            _schema_drive(client, 6)
            client.dispatch(StatsRequest())
            client.close()
            harness.stop()  # every server count is final
            registry = harness.server.stats_registry()
            client.write_metrics(registry)
            assert_schema(registry, _SCHEMA_TCP)
        finally:
            service.queue.shutdown()

    def test_workload_serial_and_sharded(self):
        deterministic = sorted(f"workload.{name}" for name
                               in DETERMINISTIC_WORKLOAD_COUNTERS)
        serial = run_workload("steady", 60, seed=3).registry
        sharded = run_workload("steady", 60, shards=3, seed=3,
                               executor="inline").registry
        assert_schema(serial, _SCHEMA_WORKLOAD)
        assert_schema(sharded, _SCHEMA_SHARDED)
        assert sorted(serial.deterministic_counters()) == deterministic
        assert sharded.digest_hex() == serial.digest_hex()


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

    def test_render_metrics_lines_prints_no_digest_without_determinism(self):
        # A serving stack's registry has no deterministic counter, and
        # the sha256 of an empty payload would read like a checksum.
        service = own_psl_service()
        for _ in range(3):
            service.query("www.timesinternet.in", "indiatimes.com")
        registry = service.stats_registry()
        assert registry.deterministic_counters() == {}
        lines = render_metrics_lines(registry)
        assert lines[-1] == "registry digest none (0 deterministic counters)"
        assert not any(re.search(r"\b[0-9a-f]{64}\b", line)
                       for line in lines)

    def test_render_metrics_lines_prints_a_workload_registry_digest(self):
        registry = run_workload("steady", 20, seed=5).registry
        deterministic = len(registry.deterministic_counters())
        assert deterministic > 0
        assert render_metrics_lines(registry)[-1] == (
            f"registry digest {registry.digest_hex()} "
            f"({deterministic} deterministic counters)")

    def test_render_trace_lines(self):
        tracer = Tracer(seed=4)
        for index in range(3):
            with tracer.request(index):
                tracer.emit("serve.query", related=bool(index % 2))
        lines = render_trace_lines(tracer.summary(), limit=2)
        assert lines[0] == f"trace digest {tracer.digest_hex()}"
        assert any("serve.query" in line for line in lines)
        assert any("1 more spans" in line for line in lines)
