"""Bench X8 — TCP wire throughput: pipelined vs serial round-trips.

Not a paper artefact: the acceptance gate for the ``repro.net``
subsystem.  The transport exists so the serving stack can be driven
over real sockets without giving up its numbers, so the bench pins
three things on a loopback server over the full seed list:

* serial round-trip throughput (one in-flight request — the RTT
  floor);
* pipelined throughput (bursts inside the server's window, answered
  in order one read at a time), which must beat serial by a real
  margin, since pipelining is the whole point of framing over raw
  request/response;
* tail latency of the server's dispatch stage (decode → dispatch →
  encode) from its own pow2 histogram, gated absolutely but
  generously: loopback dispatch is tens of microseconds, so the gate
  only trips on a real pathology (a request stalling the event loop),
  not CI scheduling noise.
"""

from __future__ import annotations

import time

from repro.api import QueryRequest, StatsRequest
from repro.data import build_rws_list
from repro.net import RwsTcpServer, ServerThread, TcpApiClient
from repro.obs.registry import LatencyHistogram
from repro.serve import RwsService

#: Requests per pipelined burst — inside the server's default window,
#: so no RATE_LIMITED pushback dilutes the measurement.
_BURST = 16

#: Serial round-trips / pipelined requests per timing pass.
_SERIAL_N = 300
_PIPELINED_N = 960

#: p99 gate (ns) on the server-side dispatch stage.  Generous on
#: purpose — the stage is tens of microseconds on loopback.
_P99_GATE_NS = 20_000_000


def _query_mix(rws_list, n: int) -> list[QueryRequest]:
    members = [record.site for record in rws_list.all_members()]
    return [QueryRequest(host_a=members[i % len(members)],
                         host_b=members[(i * 7 + 3) % len(members)])
            for i in range(n)]


def _serve():
    """A loopback server over the published seed list."""
    rws_list = build_rws_list()
    service = RwsService()
    service.publish(rws_list)
    harness = ServerThread(RwsTcpServer(service))
    harness.start()
    return rws_list, service, harness


def _serial_rps(client: TcpApiClient, requests) -> float:
    started = time.perf_counter()
    for request in requests:
        client.dispatch(request)
    return len(requests) / (time.perf_counter() - started)


def _pipelined_rps(host: str, port: int, requests) -> float:
    with TcpApiClient(host, port, pool_size=1) as client:
        client.dispatch(StatsRequest())  # connect outside the timing
        started = time.perf_counter()
        for at in range(0, len(requests), _BURST):
            client.pipeline(requests[at:at + _BURST])
        return len(requests) / (time.perf_counter() - started)


def measure_net_throughput() -> dict:
    """Plain callable for the ``benchmarks.run`` trajectory harness."""
    rws_list, service, harness = _serve()
    host, port = harness.server.address
    try:
        client = TcpApiClient(host, port)
        client.dispatch(StatsRequest())  # connect + warm the pool

        serial = max(_serial_rps(client, _query_mix(rws_list, _SERIAL_N))
                     for _ in range(3))
        pipelined = max(
            _pipelined_rps(host, port, _query_mix(rws_list, _PIPELINED_N))
            for _ in range(3))
        client.close()

        snapshot = harness.server.net_snapshot()
        histogram = LatencyHistogram(snapshot["histograms"]["request_ns"])
        return {
            "serial_rps": serial,
            "pipelined_rps": pipelined,
            "pipelining_speedup": pipelined / serial,
            "request_p50_us": histogram.percentile(0.50) / 1e3,
            "request_p95_us": histogram.percentile(0.95) / 1e3,
            "request_p99_us": histogram.percentile(0.99) / 1e3,
            "requests": float(histogram.total),
        }
    finally:
        harness.stop()
        service.queue.shutdown()


def test_pipelining_beats_serial_round_trips():
    """Bursts inside the window: >= 1.5x serial throughput."""
    rws_list, service, harness = _serve()
    host, port = harness.server.address
    try:
        client = TcpApiClient(host, port)
        client.dispatch(StatsRequest())
        speedup = 0.0
        for _ in range(3):  # retries absorb a transiently loaded host
            serial = _serial_rps(client, _query_mix(rws_list, _SERIAL_N))
            pipelined = _pipelined_rps(host, port,
                                       _query_mix(rws_list, _PIPELINED_N))
            speedup = max(speedup, pipelined / serial)
            if speedup >= 1.5:
                break
        client.close()
        print(f"\nserial {serial:,.0f} rps, pipelined {pipelined:,.0f} rps "
              f"({speedup:.1f}x)")
        assert speedup >= 1.5, (
            f"pipelining only {speedup:.2f}x serial round-trips")
    finally:
        harness.stop()
        service.queue.shutdown()


def test_dispatch_stage_p99_within_gate():
    """Server-side decode→dispatch→encode p99 stays under 20 ms."""
    rws_list, service, harness = _serve()
    host, port = harness.server.address
    try:
        requests = _query_mix(rws_list, _SERIAL_N)
        p99 = float("inf")
        for _ in range(3):
            with TcpApiClient(host, port) as client:
                for request in requests:
                    client.dispatch(request)
            snapshot = harness.server.net_snapshot()
            histogram = LatencyHistogram(
                snapshot["histograms"]["request_ns"])
            p99 = min(p99, histogram.percentile(0.99))
            if p99 <= _P99_GATE_NS:
                break
        print(f"\n{int(histogram.total)} requests: "
              f"p99 {p99 / 1e6:.2f} ms")
        assert p99 <= _P99_GATE_NS, (
            f"dispatch-stage p99 {p99 / 1e6:.1f} ms exceeds the "
            f"{_P99_GATE_NS / 1e6:.0f} ms gate")
    finally:
        harness.stop()
        service.queue.shutdown()


def test_measure_net_throughput_shape():
    """The trajectory harness contract: flat scalars, sane values."""
    figures = measure_net_throughput()
    assert set(figures) == {
        "serial_rps", "pipelined_rps", "pipelining_speedup",
        "request_p50_us", "request_p95_us", "request_p99_us", "requests",
    }
    assert all(isinstance(value, float) for value in figures.values())
    assert figures["serial_rps"] > 0
    assert figures["pipelined_rps"] > 0
    assert figures["requests"] > 0


def test_bench_tcp_serial_round_trips(benchmark):
    """Steady-state serial round-trip cost over loopback."""
    rws_list, service, harness = _serve()
    host, port = harness.server.address
    try:
        client = TcpApiClient(host, port)
        request = _query_mix(rws_list, 1)[0]
        client.dispatch(request)  # warm the pooled connection

        response = benchmark(client.dispatch, request)
        assert type(response).__name__ == "QueryResponse"
        client.close()
    finally:
        harness.stop()
        service.queue.shutdown()
