"""Bench X6 — API layer: dispatch overhead and batched query speedup.

Not a paper artefact: the acceptance gate for the `repro.api`
subsystem.  A protocol layer that every consumer routes through must be
nearly free on the hot path, so this harness pins three properties:

* routing a pre-built :class:`QueryRequest` through a bare
  :class:`Dispatcher` costs ≤ 20% over calling
  :meth:`RwsService.query` directly (envelopes are built by clients on
  any transport, so construction is not dispatch overhead — but a
  second measurement keeps the end-to-end figure honest).  The budget
  was 15% against the pre-epoch service; the lock-free query path cut
  the *direct* call's cost, so the same ~300 ns of absolute dispatch
  work is now a larger ratio — the budget tracks the new denominator;
* the batched :meth:`RwsService.query_batch` answers bulk workloads
  ≥ 1.5x faster than the per-pair loop it replaced (one resolver pass
  and one stats fold instead of a lock and two timestamps per pair);
* the full middleware stack with short-TTL verdict memoisation beats
  the direct call outright on repeat-heavy traffic.
"""

from __future__ import annotations

import time

import pytest

from repro.api import (
    BatchQueryRequest,
    Dispatcher,
    LatencyRecorder,
    QueryRequest,
    RequestCounter,
    VerdictCache,
)
from repro.data import build_rws_list
from repro.obs import MetricsRegistry
from repro.serve import RwsService


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


def measure_dispatch_overhead(rounds: int = 7) -> dict:
    """Plain callable for the ``benchmarks.run`` trajectory harness.

    The same interleaved-round median-ratio measurement the pytest
    gate uses, minus the fixture plumbing, plus the batched-read
    speedup and the p99 the :class:`LatencyRecorder` middleware sees.
    """
    service = RwsService()
    service.publish(build_rws_list())
    try:
        pairs = _bulk_pairs(build_rws_list())
        dispatcher = Dispatcher(service)
        requests = [QueryRequest(a, b) for a, b in pairs]
        dispatch = dispatcher.dispatch
        query = service.query

        def run_direct() -> float:
            started = time.perf_counter()
            for host_a, host_b in pairs:
                query(host_a, host_b)
            return time.perf_counter() - started

        def run_routed() -> float:
            started = time.perf_counter()
            for request in requests:
                dispatch(request)
            return time.perf_counter() - started

        run_direct(), run_routed()  # warm resolver LRU and code paths
        ratios = []
        direct_best = routed_best = float("inf")
        for round_index in range(rounds):
            if round_index % 2:
                routed, direct = run_routed(), run_direct()
            else:
                direct, routed = run_direct(), run_routed()
            ratios.append(routed / direct)
            direct_best = min(direct_best, direct)
            routed_best = min(routed_best, routed)
        overhead = sorted(ratios)[len(ratios) // 2] - 1.0

        batched_time = _best_of(3, lambda: service.query_batch(pairs))

        # The p99 figure rides the LatencyRecorder middleware — its
        # own dispatcher, so the recorder's cost stays out of the
        # bare-dispatch overhead ratio above.
        recorder = LatencyRecorder()
        recorded = Dispatcher(service, middlewares=(recorder,))
        for request in requests:
            recorded.dispatch(request)
        p99 = recorder.registry.histograms["api.latency.query"].percentile(
            0.99)
        return {
            "pairs": float(len(pairs)),
            "direct_ns_per_op": direct_best / len(pairs) * 1e9,
            "routed_ns_per_op": routed_best / len(pairs) * 1e9,
            "overhead_pct": overhead * 100.0,
            "batched_speedup": direct_best / batched_time,
            "dispatch_p99_us": p99 / 1e3,
        }
    finally:
        service.queue.shutdown()


@pytest.fixture()
def make_service():
    """Service factory that shuts worker queues down after the test.

    Leaked validation workers would add scheduler noise to the same
    process's timing-margin assertions.
    """
    created: list[RwsService] = []

    def factory() -> RwsService:
        service = RwsService()
        service.publish(build_rws_list())
        created.append(service)
        return service

    yield factory
    for service in created:
        service.queue.shutdown()


def _legacy_query_batch(service: RwsService,
                        pairs: list[tuple[str, str]]) -> list:
    """The pre-batching implementation: one query() call per pair."""
    return [service.query(host_a, host_b) for host_a, host_b in pairs]


def test_dispatch_verdicts_match_direct_calls(make_service):
    """The protocol layer answers exactly what the service answers."""
    service = make_service()
    dispatcher = Dispatcher(service)
    pairs = _bulk_pairs(build_rws_list())[:500]
    routed = [dispatcher.dispatch(QueryRequest(a, b)).verdict.related
              for a, b in pairs]
    direct = [service.query(a, b).related for a, b in pairs]
    assert routed == direct


def test_dispatch_overhead_within_budget(make_service):
    """Routing a pre-built envelope adds <= 20% over a direct query.

    Wall-clock on a busy host drifts more per second than the margin
    under test, so the two loops are timed in interleaved rounds
    (alternating which goes first) and the asserted figure is the
    median per-round ratio — CPU-state drift hits both sides of each
    round, cancelling out of the ratio.
    """
    service = make_service()
    dispatcher = Dispatcher(service)
    pairs = _bulk_pairs(build_rws_list())
    requests = [QueryRequest(a, b) for a, b in pairs]
    dispatch = dispatcher.dispatch
    query = service.query

    def run_direct():
        started = time.perf_counter()
        for a, b in pairs:
            query(a, b)
        return time.perf_counter() - started

    def run_routed():
        started = time.perf_counter()
        for request in requests:
            dispatch(request)
        return time.perf_counter() - started

    timings: dict[str, float] = {}

    def measure() -> float:
        ratios = []
        for round_index in range(11):
            if round_index % 2:
                routed, direct = run_routed(), run_direct()
            else:
                direct, routed = run_direct(), run_routed()
            ratios.append(routed / direct)
            timings["direct"] = min(timings.get("direct", float("inf")),
                                    direct)
            timings["routed"] = min(timings.get("routed", float("inf")),
                                    routed)
        return sorted(ratios)[len(ratios) // 2] - 1.0

    run_direct(), run_routed()  # warm resolver LRU and code paths
    overhead = measure()
    if overhead > 0.20:
        # One retry absorbs a transiently loaded host (a CI neighbour
        # mid-burst); a real regression fails both measurements.
        overhead = min(overhead, measure())

    print(f"\n{len(pairs)} queries: direct "
          f"{timings['direct'] / len(pairs) * 1e9:.0f} ns/op, dispatched "
          f"{timings['routed'] / len(pairs) * 1e9:.0f} ns/op "
          f"(median overhead {overhead:+.1%})")
    assert overhead <= 0.20, (
        f"dispatch overhead {overhead:.1%} exceeds the 20% budget"
    )


def test_batched_query_batch_beats_legacy_loop(make_service):
    """query_batch >= 1.5x the per-pair loop it replaced, same verdicts."""
    batched_service = make_service()
    legacy_service = make_service()
    pairs = _bulk_pairs(build_rws_list())

    assert (batched_service.query_batch(pairs)
            == _legacy_query_batch(legacy_service, pairs))

    # Interleaved rounds: both sides sample the same host conditions,
    # so a burst of load cannot land on one side's timings only.
    legacy_time = batched_time = float("inf")
    for _ in range(5):
        legacy_time = min(legacy_time, _best_of(
            1, lambda: _legacy_query_batch(legacy_service, pairs)))
        batched_time = min(batched_time, _best_of(
            1, lambda: batched_service.query_batch(pairs)))

    speedup = legacy_time / batched_time
    print(f"\n{len(pairs)} bulk queries: per-pair loop "
          f"{legacy_time * 1e3:.1f} ms, batched "
          f"{batched_time * 1e3:.1f} ms ({speedup:.1f}x speedup)")
    assert speedup >= 1.5, (
        f"batched query_batch only {speedup:.1f}x the legacy loop"
    )


def test_dispatch_p99_within_gate(make_service):
    """Tail latency: p99 of a routed query stays under 1 ms.

    The measurement rides the layer's own instrument — a
    :class:`LatencyRecorder` middleware recording every dispatch into
    pow2 histograms — so the gate also proves the recorder is cheap
    enough to leave on.  The bound is deliberately generous (the op is
    a few microseconds): it catches a real tail pathology, not CI
    scheduling noise.
    """
    service = make_service()
    recorder = LatencyRecorder()
    dispatcher = Dispatcher(service, middlewares=(recorder,))
    requests = [QueryRequest(a, b)
                for a, b in _bulk_pairs(build_rws_list())]
    dispatch = dispatcher.dispatch
    for request in requests:  # warm resolver LRU and code paths
        dispatch(request)

    p99 = float("inf")
    for _ in range(3):  # retries absorb a transiently loaded host
        recorder.registry = MetricsRegistry()
        for request in requests:
            dispatch(request)
        p99 = min(p99,
                  recorder.registry.histograms["api.latency.query"]
                  .percentile(0.99))
        if p99 <= 1_000_000:
            break
    print(f"\n{len(requests)} dispatches: p99 {p99 / 1e3:.1f} µs")
    assert p99 <= 1_000_000, (
        f"dispatch p99 {p99 / 1e6:.2f} ms exceeds the 1 ms gate"
    )


def test_memoising_stack_beats_direct_on_repeat_traffic(make_service):
    """The full middleware stack wins outright when traffic repeats."""
    service = make_service()
    dispatcher = Dispatcher(service, middlewares=(
        RequestCounter(), VerdictCache(ttl=3600.0, maxsize=1 << 16),
    ))
    pairs = _bulk_pairs(build_rws_list())
    requests = [QueryRequest(a, b) for a, b in pairs]
    dispatch = dispatcher.dispatch

    for request in requests:  # fill the verdict cache
        dispatch(request)

    direct_time = _best_of(
        3, lambda: [service.query(a, b) for a, b in pairs])
    cached_time = _best_of(3, lambda: [dispatch(r) for r in requests])

    speedup = direct_time / cached_time
    print(f"\n{len(pairs)} repeated queries: direct "
          f"{direct_time * 1e3:.1f} ms, memoised stack "
          f"{cached_time * 1e3:.1f} ms ({speedup:.1f}x speedup)")
    assert speedup >= 1.0, (
        f"memoised dispatch slower than direct calls ({speedup:.2f}x)"
    )


def test_bench_dispatch_throughput(benchmark, make_service):
    """pytest-benchmark harness: dispatch rate on the bulk workload."""
    service = make_service()
    dispatcher = Dispatcher(service)
    pairs = _bulk_pairs(build_rws_list())[:1000]

    def run():
        return dispatcher.dispatch(BatchQueryRequest(pairs=pairs,
                                                     detail=False))

    response = benchmark(run)
    assert len(response.related) == len(pairs)
