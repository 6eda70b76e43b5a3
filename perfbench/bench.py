"""The three workloads end to end: spawn, probe, drive, check, summarize.

``point-open``
    Single-pair ``QueryRequest``s over the seed list: an open loop at a
    fixed reference rate over two connections (latency), then 16
    pipelined on one connection (saturated throughput).  Traced runs
    also climb a fixed open-loop rate ladder for the knee.  Per-request
    costs dominate: frame, codec, executor hop, dispatcher.  The ~2-3k
    distinct hosts fit the PSL's 4096-entry cache.
``batch-cold``
    A closed loop of 256-pair ``BatchQueryRequest(detail=False)``s kept
    4 deep on one connection (for at least 1000 batches), over a
    100k-domain synthetic list with near-uniform host draws, so
    resolutions mostly miss the PSL cache and per-pair work (PSL,
    index, per-pair codec) dominates.
``publish-mix``
    Open-loop point reads at 200/s over two connections beside 40 paced
    ``PublishRequest``s on the second that alternate a
    600-domain list with its v2, through a 3-replica rendezvous
    ``Router``: publish, replica apply, and the drain gate that stalls
    reads during a publish.

Every workload reports the same six end-to-end metrics, each read off
that workload's own traffic: ``setup_s`` (server spawn to first
correct answer, median of three spawns), ``server_rss_mb``,
``server_cpu_us_per_req`` (server CPU time after start-up per request
answered),
``read_p50_us``/``read_p99_us`` (point queries at the reference rate;
batch requests; reads beside publishes), and ``capacity_per_s``
(saturated point queries per second; pairs answered per second;
publishes per second one serial publisher sustains, i.e. 1 / median
publish latency).
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import ledger
import workloads
from loadgen import Conn, Publisher, Trace, clock, closed_loop, open_loop
from stats import (
    Step,
    knee,
    percentile,
    step_meets,
    window_rates,
    windowed,
)

from repro.api.codec import decode_response, encode_request
from repro.api.envelopes import (
    BatchQueryRequest,
    BatchQueryResponse,
    PublishRequest,
    PublishResponse,
    QueryRequest,
    QueryResponse,
)
from repro.net.client import TcpApiClient
from repro.net.frame import encode_frame
from repro.workload.metrics import LatencyHistogram

HERE = Path(__file__).resolve().parent

#: Open-loop rate (requests/s) at which point latency is reported:
#: far below saturation (2.5-8k/s on a 2-CPU host, depending on how
#: much CPU the host lends), so queueing stays small at either end.
REFERENCE_RATE = 500.0
#: Share of ``--seconds`` spent at the reference rate, and again
#: saturated (``point-open``).
PHASE_SHARE = 0.45
#: Requests kept in flight on one connection to saturate the server
#: (below its pipelining window of 32, so nothing is pushed back).
SATURATION_DEPTH = 16
#: Latencies are summarized per window of this many requests (median
#: over windows), so each window's p99 has 10 samples beyond it.
WINDOW = 1000
#: The fixed rate ladder climbed for the knee; ~10% steps past 2000.
LADDER = (500, 1000, 1500, 2000, 2200, 2420, 2660, 2930, 3220, 3540,
          3900, 4290, 4720, 5190, 5710, 6280, 6910, 7600, 8360, 9200,
          10100, 11100, 12200, 13400, 14800, 16300, 17900, 19700,
          21700, 23900, 26300, 28900, 31800, 35000)
#: p99 limit (microseconds) a ladder step must meet.
LATENCY_LIMIT_US = 5000.0
#: Generator lateness allowed at p99, as a share of the limit.
LAG_SHARE = 0.2
#: Shortest ladder step; each also lasts long enough for 1000 answers.
STEP_SECONDS = 0.5
#: Closed-loop depth of ``batch-cold`` on its one connection.
BATCH_DEPTH = 4
#: Open-loop read rate of ``publish-mix``, below the point knee.
PUBLISH_READ_RATE = 200.0
#: Publishes per ``publish-mix`` run.  Few enough that reads stall for
#: a small share of the run (so the read median stays a read figure and
#: the p99 shows the stalls); enough for a median and a p75.
PUBLISHES = 40
#: Server spawns per run; ``setup_s`` is their median.
SETUPS = 5
#: Point requests prepared per run (the stream cycles through them).
POINT_REQUESTS = 60_000
#: Serial ``TcpApiClient.dispatch`` round trips timed in the traced run.
SERIAL_CALLS = 400
#: Latency charged to a request that failed or never came back.
FAILED_LATENCY_US = 10e6

OK, WRONG, ERROR = "ok", "wrong", "error"

def frame(request) -> bytes:
    """A request as the wire carries it (the codec's newest version)."""
    return encode_frame(encode_request(request))


class Server:
    """One server process; its start time is the set-up clock's zero."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.started = clock()
        self.conns: list[Conn] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=HERE.parent, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before it was ready")
            self.port = int(json.loads(line)["port"])
        except BaseException:
            self.kill()
            raise

    def connect(self) -> Conn:
        conn = Conn(self.port)
        self.conns.append(conn)
        return conn

    def cpu_s(self) -> float:
        """CPU seconds the server has spent since it was ready."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(json.loads(self.proc.stdout.readline())["cpu_s"])

    def stop(self, other_answers: int = 0) -> dict:
        """Stop the server; its counters plus the client's answer count."""
        for conn in self.conns:
            conn.close()
        try:
            out, _err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        report = json.loads(out.strip().splitlines()[-1])
        report["client_answers"] = other_answers + sum(
            conn.answers for conn in self.conns)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: Metric name -> value; units come from ``BENCHMARK.json``.
    metrics: dict = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    #: Per-layer figures gathered on the wire run (trace mode only).
    wire: dict = field(default_factory=dict)

    def count(self, statuses: list[str]) -> None:
        self.attempted += len(statuses)
        self.failed += sum(status != OK for status in statuses)
        if WRONG in statuses:
            self.correct = False


def _status(payload: bytes | None, kind, check) -> str:
    if payload is None:
        return ERROR
    response, _version = decode_response(payload.decode("utf-8"))
    if type(response) is not kind:
        return ERROR
    return OK if check(response) else WRONG


def _latencies(trace: Trace, statuses: list[str], since_due: bool
               ) -> list[float]:
    start = trace.due if since_due else trace.sent
    return [(recv - begin) * 1e6 if status == OK else FAILED_LATENCY_US
            for begin, recv, status in zip(start, trace.recv, statuses)]


def _lags(trace: Trace) -> list[float]:
    return [(sent - due) * 1e6 for due, sent in zip(trace.due, trace.sent)]


class Run:
    """One benchmark invocation for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, env: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.served = workloads.served_list(workload, seed)
        if workload == "batch-cold":
            self.batches = workloads.batch_pool(seed)
            oracle = workloads.Oracle(self.served)
            self.expected = [[oracle.related(a, b) for a, b in batch]
                             for batch in self.batches]
            self.frames = [frame(BatchQueryRequest(batch, detail=False))
                           for batch in self.batches]
        else:
            self.pairs = workloads.read_pairs(workload, seed, POINT_REQUESTS)
            versions = [self.served]
            if workload == "publish-mix":
                versions.append(workloads.successor_list(self.served))
                # Publishes alternate v2, v1, v2, ...
                self.publish_frames = [frame(PublishRequest(versions[1])),
                                       frame(PublishRequest(versions[0]))]
            oracles = [workloads.Oracle(rws_list) for rws_list in versions]
            self.expected = [[oracle.related(a, b) for oracle in oracles]
                             for a, b in self.pairs]
            self.frames = [frame(QueryRequest(a, b)) for a, b in self.pairs]

    # -- checking -------------------------------------------------------------

    def _judge(self, trace: Trace, served: tuple[int, ...] = (0,)
               ) -> list[str]:
        """Each answer's status.

        ``served[k]`` is the list version (index into the oracles) the
        server serves once ``k`` publishes have been answered: a
        publish that failed leaves it unchanged.
        """
        statuses = []
        for slot, payload in enumerate(trace.payload):
            expected = self.expected[trace.index[slot]]
            if self.workload == "batch-cold":
                statuses.append(_status(
                    payload, BatchQueryResponse,
                    lambda response: response.related == expected))
                continue
            # Versions the read may see: the one served when it was
            # sent, through the outcome of the newest publish sent
            # before its answer arrived (reads in flight across a
            # publish may see either side).
            low = trace.acked_at_send[slot]
            high = min(max(low, trace.sent_at_recv[slot]), len(served) - 1)
            allowed = {expected[served[answered]]
                       for answered in range(low, high + 1)}
            statuses.append(_status(
                payload, QueryResponse,
                lambda response: response.verdict.related in allowed))
        return statuses

    # -- set-up ---------------------------------------------------------------

    def _spawn(self) -> tuple[Server, float, bool]:
        """Spawn a server and wait for its first correct answer."""
        server = Server(self.workload, self.seed, self.env)
        try:
            conn = server.connect()
            trace = Trace()
            trace.add(0.0, 0.0, 0, 0)
            trace.payload[0] = conn.call(self.frames[0])
            correct = self._judge(trace) == [OK]
            return server, clock() - server.started, correct
        except BaseException:
            server.kill()
            raise

    def _stop(self, server: Server, outcome: Outcome,
              other_answers: int = 0) -> dict:
        report = server.stop(other_answers)
        responses = report["net"]["counters"]["responses"]
        if responses != report["client_answers"]:
            outcome.correct = False
            outcome.report.append(
                f"server answered {responses} requests, client received "
                f"{report['client_answers']}")
        return report

    # -- workloads ------------------------------------------------------------

    def _latency_figures(self, outcome: Outcome,
                         latencies: list[float]) -> None:
        outcome.wire["wire.read_p50_us"] = windowed(latencies, 0.5, WINDOW)
        outcome.wire["wire.read_p99_us"] = windowed(latencies, 0.99, WINDOW)

    def _charge(self, outcome: Outcome, server: Server, cpu_before: float,
                requests: int) -> None:
        """Server CPU time since ``cpu_before`` per request of the phase."""
        outcome.metrics["server_cpu_us_per_req"] = (
            (server.cpu_s() - cpu_before) * 1e6 / requests)

    def _step(self, conns: list[Conn], rate: float, offset: int,
              outcome: Outcome) -> Step:
        """One ladder step; pushback fails the step, not the run."""
        trace = open_loop(conns, self.frames, offset, rate,
                          max(STEP_SECONDS, WINDOW / rate))
        statuses = self._judge(trace)
        if WRONG in statuses:  # a wrong verdict is never excused
            outcome.correct = False
        outcome.attempted += len(statuses)
        step = Step(rate=float(rate),
                    p99_us=percentile(_latencies(trace, statuses, True), 0.99),
                    lag_p99_us=percentile(_lags(trace), 0.99),
                    backlog=trace.backlog_end,
                    failed=sum(status != OK for status in statuses),
                    sent=len(trace.due))
        outcome.report.append(
            f"ladder {rate:>6} rps: p99 {step.p99_us:9.0f} us, lag p99 "
            f"{step.lag_p99_us:7.0f} us, backlog {step.backlog}, "
            f"failed {step.failed}")
        return step

    def _point_open(self, server: Server, outcome: Outcome,
                    ladder: bool) -> None:
        conn = server.conns[0]
        conns = [conn, server.connect()]
        warm = open_loop(conns, self.frames, 0, REFERENCE_RATE, 2.0)
        outcome.count(self._judge(warm))
        offset = len(warm.due)
        cpu_before = server.cpu_s()
        trace = open_loop(conns, self.frames, offset, REFERENCE_RATE,
                          PHASE_SHARE * self.seconds)
        self._charge(outcome, server, cpu_before, len(trace.due))
        offset += len(trace.due)
        statuses = self._judge(trace)
        outcome.count(statuses)
        self._latency_figures(outcome, _latencies(trace, statuses, True))
        saturated = closed_loop(conn, self.frames, offset, SATURATION_DEPTH,
                                PHASE_SHARE * self.seconds)
        offset += len(saturated.due)
        statuses = self._judge(saturated)
        outcome.count(statuses)
        rates = window_rates(
            [recv for recv, status in zip(saturated.recv, statuses)
             if status == OK],
            saturated.started, saturated.started + PHASE_SHARE * self.seconds,
            1.0)
        outcome.wire["wire.capacity_per_s"] = statistics.median(rates)
        outcome.wire["gen.lag_p99_us"] = percentile(_lags(trace), 0.99)
        outcome.wire["gen.backlog_max"] = trace.backlog_end
        if ladder:
            steps = self._climb(conns, offset, outcome)
            outcome.report.append(
                f"knee (p99 <= {LATENCY_LIMIT_US:.0f} us): "
                f"{knee(steps, LATENCY_LIMIT_US, LAG_SHARE):.0f} rps")
            # The generator's worst lateness on a step that counted.
            outcome.wire["gen.lag_p99_us"] = max(
                [outcome.wire["gen.lag_p99_us"]]
                + [step.lag_p99_us for step in steps
                   if step_meets(step, LATENCY_LIMIT_US, LAG_SHARE)])
            outcome.wire["gen.backlog_max"] = max(
                step.backlog for step in steps)

    def _climb(self, conns: list[Conn], offset: int,
               outcome: Outcome) -> list[Step]:
        """Climb the ladder until two steps in a row miss."""
        steps: list[Step] = []
        misses = 0
        for rate in LADDER:
            step = self._step(conns, rate, offset, outcome)
            offset += step.sent
            steps.append(step)
            meets = step_meets(step, LATENCY_LIMIT_US, LAG_SHARE)
            misses = 0 if meets else misses + 1
            if misses == 2:
                break
        return steps

    def _batch_cold(self, server: Server, outcome: Outcome) -> None:
        conn = server.conns[0]
        warm = closed_loop(conn, self.frames, 1, BATCH_DEPTH, 1.0)
        outcome.count(self._judge(warm))
        cpu_before = server.cpu_s()
        trace = closed_loop(conn, self.frames, 1 + len(warm.due),
                            BATCH_DEPTH, self.seconds, min_answers=WINDOW)
        self._charge(outcome, server, cpu_before, len(trace.due))
        statuses = self._judge(trace)
        outcome.count(statuses)
        self._latency_figures(outcome, _latencies(trace, statuses, False))
        answered = [recv for recv, status in zip(trace.recv, statuses)
                    if status == OK]
        outcome.wire["wire.capacity_per_s"] = (
            workloads.BATCH_PAIRS * statistics.median(window_rates(
                answered, trace.started, trace.ended, 1.0)))
        outcome.wire["gen.lag_p99_us"] = percentile(_lags(trace), 0.99)
        outcome.wire["gen.backlog_max"] = BATCH_DEPTH  # a closed loop's depth

    def _publish_mix(self, server: Server, outcome: Outcome) -> None:
        conns = [server.conns[0], server.connect()]
        warm = open_loop(conns, self.frames, 1, PUBLISH_READ_RATE, 1.0)
        outcome.count(self._judge(warm))
        publisher = Publisher(conns[1], self.publish_frames,
                              period=self.seconds / PUBLISHES)
        cpu_before = server.cpu_s()
        trace = open_loop(conns, self.frames, 1 + len(warm.due),
                          PUBLISH_READ_RATE, self.seconds, publisher)
        self._charge(outcome, server, cpu_before,
                     len(trace.due) + len(publisher.trace.due))
        published = [_status(payload, PublishResponse, lambda _r: True)
                     for payload in publisher.trace.payload]
        outcome.count(published)
        # Publish k sends publish_frames[k % 2], i.e. version (k + 1) % 2.
        served = [0]
        for k, status in enumerate(published):
            served.append((k + 1) % 2 if status == OK else served[-1])
        statuses = self._judge(trace, tuple(served))
        outcome.count(statuses)
        self._latency_figures(outcome, _latencies(trace, statuses, True))
        publish_ms = [value / 1000.0 for value in _latencies(
            publisher.trace, published, False)]
        outcome.wire["wire.capacity_per_s"] = (
            1000.0 / percentile(publish_ms, 0.5))
        outcome.report.append(
            f"publishes: {len(publish_ms)}, p50 "
            f"{percentile(publish_ms, 0.5):.1f} ms, p75 "
            f"{percentile(publish_ms, 0.75):.1f} ms")
        outcome.wire["gen.lag_p99_us"] = percentile(_lags(trace), 0.99)
        outcome.wire["gen.backlog_max"] = trace.backlog_end

    def _drive(self, server: Server, outcome: Outcome,
               ladder: bool = False) -> None:
        if self.workload == "point-open":
            self._point_open(server, outcome, ladder)
        elif self.workload == "batch-cold":
            self._batch_cold(server, outcome)
        else:
            self._publish_mix(server, outcome)

    # -- entry points ---------------------------------------------------------

    def measured(self) -> Outcome:
        """The untraced run: every end-to-end metric."""
        outcome = Outcome()
        setups = []
        server = None
        for attempt in range(SETUPS):
            server, seconds, correct = self._spawn()
            setups.append(seconds)
            outcome.attempted += 1
            if not correct:
                outcome.failed += 1
                outcome.correct = False
            if attempt + 1 < SETUPS:
                self._stop(server, outcome)
        try:
            self._drive(server, outcome)
        except BaseException:
            server.kill()
            raise
        report = self._stop(server, outcome)
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.metrics["server_rss_mb"] = report["rss_mb"]
        outcome.report += [f"{name} {value:.1f} (wall clock, unbounded)"
                           for name, value in sorted(outcome.wire.items())
                           if name.startswith("wire.")]
        return outcome

    def _serial_rtt(self, server: Server,
                    outcome: Outcome) -> tuple[float, int]:
        """Median serial round trip (us) through the program's own client."""
        requests = ([BatchQueryRequest(batch, detail=False)
                     for batch in self.batches]
                    if self.workload == "batch-cold"
                    else [QueryRequest(a, b) for a, b in self.pairs])
        client = TcpApiClient("127.0.0.1", server.port, pool_size=1)
        times = []
        try:
            for i in range(SERIAL_CALLS):
                request = requests[i % len(requests)]
                started = clock()
                response = client.dispatch(request)
                times.append((clock() - started) * 1e6)
                kind = (BatchQueryResponse if self.workload == "batch-cold"
                        else QueryResponse)
                outcome.count([OK if type(response) is kind else ERROR])
            answers = client.net_snapshot()["counters"]["responses"]
        finally:
            client.close()
        return statistics.median(times), answers

    def traced(self) -> Outcome:
        """The traced run: the wire run again, then the in-process ledger."""
        outcome = Outcome()
        server, setup_s, correct = self._spawn()
        outcome.attempted += 1
        if not correct:
            outcome.failed += 1
            outcome.correct = False
        try:
            self._drive(server, outcome, ladder=True)
            for conn in server.conns:  # the load is over: free both slots
                conn.close()
            rtt_us, answers = self._serial_rtt(server, outcome)
        except BaseException:
            server.kill()
            raise
        report = self._stop(server, outcome, other_answers=answers)
        outcome.metrics["setup_s"] = setup_s
        outcome.metrics["server_rss_mb"] = report["rss_mb"]
        pairs = ([pair for batch in self.batches for pair in batch]
                 if self.workload == "batch-cold" else self.pairs)
        # The server runs with the collector on, so the replayed layers
        # pay for it too (the wire loops above ran with it off).
        gc.collect()
        gc.enable()
        layers = ledger.replay(self.workload, self.served, pairs)
        net = report["net"]
        request_p50_us = LatencyHistogram(
            net["histograms"]["request_ns"]).percentile(0.5) / 1000.0
        layers.update({
            "net.rtt_serial_us": rtt_us,
            "net.transport_self_us": rtt_us - layers["ledger.client_chain_us"]
            - layers["ledger.server_chain_us"],
            "net.server_request_p50_us": request_p50_us,
            "net.backpressure_stalls": net["counters"]["backpressure_stalls"],
            "net.pipeline_depth_peak": net["gauges"]["pipeline_depth_peak"],
            "net.drain_waits": net["counters"]["drain_waits"],
            "psl.hit_ratio": report["psl"]["hits"] / max(
                1, report["psl"]["hits"] + report["psl"]["misses"]),
        })
        layers.update(outcome.wire)
        for name, value in outcome.metrics.items():
            layers[f"traced.{name}"] = value
        gap = (request_p50_us - layers["ledger.server_chain_us"])
        outcome.report.append(
            f"ledger check: replayed server chain (frame decode + request "
            f"decode + dispatch + response encode + frame encode) "
            f"{layers['ledger.server_chain_us']:.1f} us vs server request_ns "
            f"p50 {request_p50_us:.1f} us (pow2 buckets, so +-41%): gap "
            f"{gap:+.1f} us")
        outcome.report.append(
            "tracing overhead: this run's traced.* end-to-end figures "
            "minus the untraced runs' medians (compare.py show); spans "
            "are taken around in-process calls after the wire run, so "
            "the wire run itself carries none")
        for name in sorted(layers):
            outcome.report.append(f"  {name:42s} {layers[name]:14.3f}")
        outcome.metrics = layers
        return outcome
