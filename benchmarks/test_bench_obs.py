"""Bench X9 — observability: the no-op tracer gate and hot-spot profiles.

Not a paper artefact: the acceptance gate for the `repro.obs` layer.
Telemetry that taxes the hot path it observes is a regression in
disguise, so this harness pins the instrumentation's cost directly:

* **the dormant tracer is (nearly) free** — the per-query tracing
  guard (`self._tracer` load + ``.live`` check, false by default)
  costs ≤ 2% of a single :meth:`RwsService.query`, and an
  amortised-per-batch rounding error on the batched read path the
  serve-throughput bench gates.  The guard is timed standalone
  (loop overhead subtracted) and divided by the measured query cost,
  so the figure is the instrumentation's marginal cost, not a noisy
  difference of two totals;
* **live tracing stays honest** — with a live :class:`Tracer` bound,
  verdicts are unchanged and the traced per-op cost is recorded for
  the trajectory file (live tracing is diagnostic, so it carries no
  gate — only the dormant default does);
* **micro-profiles for the known allocation hot spots** —
  :class:`~repro.serve.index.QueryResult` construction and the
  :class:`~repro.cluster.Router`'s per-pair routing, the two paths
  :class:`~repro.obs.profile.StageProfiler` counts allocations for.

The measurement functions are plain callables (no fixtures) so the
``python -m benchmarks.run`` trajectory harness can reuse them.
"""

from __future__ import annotations

import time

from repro.cluster import Router
from repro.data import build_rws_list
from repro.obs import StageProfiler, Tracer
from repro.serve import RwsService
from repro.serve.index import QueryResult


def _bulk_pairs(rws_list) -> list[tuple[str, str]]:
    """A mixed workload: members × (members + unlisted probes)."""
    members = [record.site for record in rws_list.all_members()]
    probes = members + [f"unlisted-{i}.example" for i in range(20)]
    return [(a, b) for a in members[:40] for b in probes]


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def measure_tracer_overhead(rounds: int = 9) -> dict[str, float]:
    """The dormant-tracer guard's cost relative to the serve hot path.

    Times three loops over the same pair workload: the full
    :meth:`RwsService.query` path (which contains the guard), the
    guard alone (``self._tracer`` attribute load + ``.live`` check),
    and an empty loop whose cost is subtracted from the guard loop.
    The asserted figure is the median per-round ``guard / query``
    ratio — both sides are pure CPU, so host-load drift cancels.
    """
    rws_list = build_rws_list()
    service = RwsService()
    service.publish(rws_list)
    try:
        pairs = _bulk_pairs(rws_list)
        count = len(pairs)
        query = service.query

        def run_query() -> float:
            started = time.perf_counter()
            for host_a, host_b in pairs:
                query(host_a, host_b)
            return time.perf_counter() - started

        def run_guard() -> float:
            # The exact instrumentation query() executes when no
            # tracer is bound: one attribute load, one truthiness
            # check on NullTracer.live, one untaken branch.
            started = time.perf_counter()
            for host_a, host_b in pairs:
                tracer = service._tracer
                if tracer.live:
                    pass
            return time.perf_counter() - started

        def run_empty() -> float:
            started = time.perf_counter()
            for host_a, host_b in pairs:
                pass
            return time.perf_counter() - started

        run_query(), run_guard(), run_empty()  # warm caches/code paths
        ratios = []
        query_best = guard_best = float("inf")
        for _ in range(rounds):
            query_time = run_query()
            guard_time = max(run_guard() - run_empty(), 0.0)
            ratios.append(guard_time / query_time)
            query_best = min(query_best, query_time)
            guard_best = min(guard_best, guard_time)
        noop_overhead = sorted(ratios)[len(ratios) // 2]

        batch_time = _best_of(3, lambda: service.related_batch(pairs))

        # Live-tracer figure for the trajectory: per-op cost with a
        # bound Tracer recording spans inside request contexts.
        tracer = Tracer(seed=0)
        service.set_tracer(tracer)
        with tracer.request(0):
            started = time.perf_counter()
            for host_a, host_b in pairs:
                query(host_a, host_b)
            live_time = time.perf_counter() - started

        return {
            "pairs": float(count),
            "query_ns_per_op": query_best / count * 1e9,
            "guard_ns_per_op": guard_best / count * 1e9,
            "noop_overhead_pct": noop_overhead * 100.0,
            "batch_ns_per_op": batch_time / count * 1e9,
            # One guard per batch call, amortised over the whole batch.
            "batch_overhead_pct": (guard_best / count) / batch_time * 100.0,
            "live_ns_per_op": live_time / count * 1e9,
        }
    finally:
        service.queue.shutdown()


def measure_profile_hotspots(count: int = 50_000) -> dict[str, float]:
    """Construction/routing rates for the profiler's allocation spots,
    plus the membership index's batch rate."""
    from repro.serve import MembershipIndex

    rws_list = build_rws_list()

    def construct() -> None:
        for _ in range(count):
            QueryResult("a.example", "b.example", True,
                        "a.example", None, None)

    construct_time = _best_of(3, construct)

    primary = RwsService()
    primary.publish(rws_list)
    try:
        router = Router(primary, replicas=2, policy="rendezvous")
        pairs = _bulk_pairs(rws_list)[:2000]
        route = router.query

        def run_routed() -> None:
            for host_a, host_b in pairs:
                route(host_a, host_b)

        run_routed()  # warm replica resolver caches
        routed_time = _best_of(3, run_routed)
    finally:
        primary.queue.shutdown()

    index = MembershipIndex.from_list(rws_list)
    batch = _bulk_pairs(rws_list)[:2000]
    related_time = _best_of(3, lambda: index.related_batch(batch))

    return {
        "query_result_per_sec": count / construct_time,
        "query_result_ns_per_op": construct_time / count * 1e9,
        "router_pair_per_sec": len(pairs) / routed_time,
        "router_pair_ns_per_op": routed_time / len(pairs) * 1e9,
        "related_per_sec": len(batch) / related_time,
    }


# -- acceptance gates ---------------------------------------------------------


def test_noop_tracer_overhead_within_budget():
    """The dormant tracing guard costs <= 2% of a serve query."""
    result = measure_tracer_overhead()
    if result["noop_overhead_pct"] > 2.0:
        # One retry absorbs a transiently loaded host (a CI neighbour
        # mid-burst); a real regression fails both measurements.
        retry = measure_tracer_overhead()
        if retry["noop_overhead_pct"] < result["noop_overhead_pct"]:
            result = retry
    print(f"\nno-op tracer: query {result['query_ns_per_op']:.0f} ns/op, "
          f"guard {result['guard_ns_per_op']:.1f} ns/op "
          f"({result['noop_overhead_pct']:.2f}% per query, "
          f"{result['batch_overhead_pct']:.4f}% per batched op); "
          f"live tracing {result['live_ns_per_op']:.0f} ns/op")
    assert result["noop_overhead_pct"] <= 2.0, (
        f"dormant tracer guard costs {result['noop_overhead_pct']:.2f}% "
        f"of a serve query — exceeds the 2% budget"
    )
    assert result["batch_overhead_pct"] <= 0.1, (
        "per-batch tracer guard should be amortised to a rounding error"
    )


def test_live_tracer_preserves_verdicts():
    """Tracing changes what is recorded, never what is answered."""
    rws_list = build_rws_list()
    pairs = _bulk_pairs(rws_list)[:500]

    untraced = RwsService()
    untraced.publish(rws_list)
    traced = RwsService()
    traced.publish(rws_list)
    try:
        baseline = [untraced.query(a, b).related for a, b in pairs]
        tracer = Tracer(seed=3)
        traced.set_tracer(tracer)
        observed = []
        for index, (host_a, host_b) in enumerate(pairs):
            with tracer.request(index):
                observed.append(traced.query(host_a, host_b).related)
        assert observed == baseline
        assert tracer.request_count == len(pairs)
        assert tracer.span_count >= len(pairs)
        assert int(tracer.digest_hex(), 16) != 0
    finally:
        untraced.queue.shutdown()
        traced.queue.shutdown()


def test_profiler_counts_the_hotspot_allocations():
    """StageProfiler sees the allocations the micro-benches measure."""
    rws_list = build_rws_list()
    pairs = _bulk_pairs(rws_list)[:200]
    primary = RwsService()
    primary.publish(rws_list)
    try:
        router = Router(primary, replicas=2, policy="rendezvous")
        profiler = StageProfiler()
        profiler.attach_shell(primary)
        profiler.attach_router(router)

        primary.query_batch(pairs)
        router.related_batch(pairs)

        assert profiler.allocations["alloc.query_verdict"] == len(pairs)
        assert profiler.allocations["alloc.query_result"] > 0
        assert profiler.allocations["alloc.router_pair_route"] == len(pairs)
        assert profiler.stages["serve.query_batch"].total == 1
        assert profiler.stages["cluster.route_batch"].total == 1

        profiler.detach()
        primary.query_batch(pairs)
        assert profiler.allocations["alloc.query_verdict"] == len(pairs)
    finally:
        primary.queue.shutdown()


def test_bench_query_result_construction(benchmark):
    """pytest-benchmark: the per-query QueryResult allocation cost."""
    result = benchmark(QueryResult, "a.example", "b.example", True,
                       "a.example", None, None)
    assert result.related is True


def test_bench_router_per_pair_routing(benchmark):
    """pytest-benchmark: one routed query through the cluster layer."""
    primary = RwsService()
    primary.publish(build_rws_list())
    try:
        router = Router(primary, replicas=2, policy="rendezvous")
        router.query("timesinternet.in", "indiatimes.com")  # warm
        verdict = benchmark(router.query,
                            "timesinternet.in", "indiatimes.com")
        assert verdict.related is True
    finally:
        primary.queue.shutdown()
