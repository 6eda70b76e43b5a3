"""Tests for the TCP transport (repro.net server + client).

Covers the connection lifecycle (hello negotiation, idle timeout, the
connection cap), pipelining with ordered responses, both sides of the
backpressure window, malformed traffic (including a response over the
frame limit), retry semantics, drain-on-publish (the torn-response
storm, extending the ``tests/test_serve.py`` epoch-storm pattern onto
real sockets), the serial event-loop dispatch model, the one read
buffer every connection shares, and transport-equivalence of workload
digests.
"""

import json
import socket
import threading
import time
import tracemalloc

import pytest

from repro.api import (
    API_VERSION,
    BatchQueryRequest,
    BatchQueryResponse,
    Dispatcher,
    ErrorCode,
    ErrorResponse,
    PublishRequest,
    PublishResponse,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    decode_response,
    encode_request,
    encode_response,
)
from repro.net import (
    NetClientError,
    RwsTcpServer,
    ServerThread,
    TcpApiClient,
    encode_frame,
    hello_message,
)
from repro.net.frame import FrameDecoder
from repro.net.server import READ_BYTES
from repro.rws import RelatedWebsiteSet, RwsList
from repro.serve import RwsService


def list_a() -> RwsList:
    return RwsList(sets=[RelatedWebsiteSet(
        primary="alpha.com", associated=["alpha-news.com"],
        rationales={"alpha-news.com": "Shared branding with alpha.com."},
    )])


def list_b() -> RwsList:
    return RwsList(sets=[RelatedWebsiteSet(
        primary="beta.com", associated=["beta-shop.com"],
        rationales={"beta-shop.com": "Affiliated storefront of beta.com."},
    )])


@pytest.fixture
def service():
    service = RwsService()
    service.publish(list_a())
    yield service
    service.queue.shutdown()


@pytest.fixture
def harness(service):
    with ServerThread(RwsTcpServer(service)) as harness:
        yield harness


def read_frame(sock: socket.socket, decoder: FrameDecoder) -> bytes:
    """Block until ``decoder`` holds a whole frame from ``sock``; pop it."""
    while True:
        payload = decoder.next_frame()
        if payload is not None:
            return payload
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        decoder.feed(chunk)


def raw_hello(host, port, document: str) -> dict:
    """One raw hello exchange, bypassing the client's own hello."""
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(encode_frame(document))
        return json.loads(read_frame(sock, FrameDecoder()))


class TestHello:
    def test_negotiates_requested_version(self, harness):
        host, port = harness.server.address
        client = TcpApiClient(host, port, api_version=API_VERSION)
        client.dispatch(StatsRequest())
        assert client.negotiated_version == API_VERSION
        assert client.server_window == harness.server.window
        client.close()

    def test_newer_peer_downgrades(self, harness):
        host, port = harness.server.address
        hello = raw_hello(host, port, json.dumps(
            {"kind": "hello", "api_version": API_VERSION + 7}))
        assert hello["ok"] is True
        assert hello["api_version"] == API_VERSION
        assert hello["max_frame_bytes"] == harness.server.max_frame_bytes

    def test_too_old_peer_refused(self, harness):
        host, port = harness.server.address
        hello = raw_hello(host, port, json.dumps(
            {"kind": "hello", "api_version": 0}))
        assert hello["ok"] is False
        assert hello["error"]["code"] == "MALFORMED"

    def test_non_hello_first_frame_refused(self, harness):
        host, port = harness.server.address
        hello = raw_hello(host, port, json.dumps(
            {"kind": "request", "op": "stats", "payload": {},
             "api_version": API_VERSION}))
        assert hello["ok"] is False

    def test_hello_garbage_json_refused(self, harness):
        host, port = harness.server.address
        hello = raw_hello(host, port, "{not json")
        assert hello["ok"] is False
        assert hello["error"]["code"] == "MALFORMED"


class TestLifecycle:
    def test_round_trip_and_counters(self, harness):
        host, port = harness.server.address
        with TcpApiClient(host, port) as client:
            response = client.dispatch(
                QueryRequest(host_a="alpha-news.com", host_b="alpha.com"))
            assert type(response) is QueryResponse
            assert response.verdict.related
        snapshot = harness.server.net_snapshot()
        assert snapshot["counters"]["connections_opened"] == 1
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["counters"]["responses"] == 1

    def test_idle_timeout_closes_quiet_connections(self, service):
        with ServerThread(RwsTcpServer(service,
                                       idle_timeout=0.15)) as harness:
            host, port = harness.server.address
            client = TcpApiClient(host, port, retries=0)
            client.dispatch(StatsRequest())
            deadline = time.time() + 5
            while time.time() < deadline:
                counters = harness.server.net_snapshot()["counters"]
                if counters["idle_timeouts"] >= 1:
                    break
                time.sleep(0.05)
            assert counters["idle_timeouts"] >= 1
            client.close()

    def test_idle_timeout_spares_a_partial_frame(self, service):
        """A connection holding part of a frame is not idle: it outlives
        several timeouts and is answered once the frame completes."""
        timeout = 0.2
        with ServerThread(RwsTcpServer(service,
                                       idle_timeout=timeout)) as harness:
            host, port = harness.server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                decoder = FrameDecoder()
                sock.sendall(encode_frame(hello_message()))
                assert json.loads(read_frame(sock, decoder))["ok"] is True
                frame = encode_frame(encode_request(StatsRequest()))
                sock.sendall(frame[:7])
                time.sleep(4 * timeout)
                counters = harness.server.net_snapshot()["counters"]
                assert counters["idle_timeouts"] == 0
                sock.sendall(frame[7:])
                assert json.loads(read_frame(sock, decoder))["ok"] is True

    def test_idle_timeout_spares_a_steady_trickle(self, service):
        """Requests every third of the timeout keep one connection open
        for three timeouts."""
        timeout = 0.6
        with ServerThread(RwsTcpServer(service,
                                       idle_timeout=timeout)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port, retries=0) as client:
                for sent in range(10):
                    if sent:
                        time.sleep(timeout / 3)
                    assert type(client.dispatch(StatsRequest())) \
                        is StatsResponse
                counters = harness.server.net_snapshot()["counters"]
            assert counters["idle_timeouts"] == 0
            assert counters["connections_opened"] == 1

    def test_max_connections_cap_refuses_at_hello(self, service):
        with ServerThread(RwsTcpServer(service,
                                       max_connections=1)) as harness:
            host, port = harness.server.address
            first = TcpApiClient(host, port)
            first.dispatch(StatsRequest())  # pool keeps the conn open
            second = TcpApiClient(host, port, retries=0)
            with pytest.raises(NetClientError, match="RATE_LIMITED"):
                second.dispatch(StatsRequest())
            counters = harness.server.net_snapshot()["counters"]
            assert counters["connections_rejected"] == 1
            first.close()
            second.close()

    def test_refusal_survives_a_request_pipelined_behind_the_hello(
            self, service):
        """A refused client that sends a request 2 ms after its hello
        still reads the refusal: the server reads the request to the
        client's EOF instead of closing over it, which would reset the
        connection under the unread refusal."""

        def refused_with(host, port) -> str:
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(encode_frame(hello_message()))
                time.sleep(0.002)
                sock.sendall(encode_frame(encode_request(StatsRequest())))
                return json.loads(read_frame(sock, FrameDecoder())
                                  )["error"]["code"]

        with ServerThread(RwsTcpServer(service,
                                       max_connections=1)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port) as holder:
                holder.dispatch(StatsRequest())  # holds the one slot
                codes = [refused_with(host, port) for _ in range(200)]
            counters = harness.server.net_snapshot()["counters"]
        assert codes == ["RATE_LIMITED"] * 200
        assert counters["connections_rejected"] == 200
        assert counters["connections_opened"] == 1

    def test_server_thread_context_manager(self, service):
        with ServerThread(RwsTcpServer(service)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port) as client:
                assert type(client.dispatch(StatsRequest())) \
                    is StatsResponse


class TestPipelining:
    def test_ordered_responses(self, harness):
        """A pipelined burst answers strictly in request order."""
        host, port = harness.server.address
        requests = [
            QueryRequest(host_a="alpha-news.com", host_b="alpha.com"),
            StatsRequest(),
            QueryRequest(host_a="beta-shop.com", host_b="beta.com"),
            BatchQueryRequest(pairs=[("alpha.com", "alpha-news.com")],
                              detail=False),
            StatsRequest(),
        ]

        with TcpApiClient(host, port) as client:
            responses = client.pipeline(requests)
        assert [type(r) for r in responses] == [
            QueryResponse, StatsResponse, QueryResponse,
            BatchQueryResponse, StatsResponse]
        assert responses[0].verdict.related is True
        assert responses[2].verdict.related is False  # pre-publish

    def test_sync_pipeline(self, harness):
        host, port = harness.server.address
        with TcpApiClient(host, port) as client:
            responses = client.pipeline(
                [StatsRequest() for _ in range(8)])
            assert all(type(r) is StatsResponse for r in responses)

    def test_backpressure_rate_limited_past_window(self, service):
        """Requests beyond the in-flight window get RATE_LIMITED, in
        order, and the connection keeps working."""
        with ServerThread(RwsTcpServer(service, window=2)) as harness:
            host, port = harness.server.address
            burst = [StatsRequest() for _ in range(24)]

            with TcpApiClient(host, port) as client:
                responses = client.pipeline(burst)
                follow_up = client.dispatch(StatsRequest())
            limited = [r for r in responses
                       if isinstance(r, ErrorResponse)]
            assert limited, "expected RATE_LIMITED pushback"
            assert all(r.error.code is ErrorCode.RATE_LIMITED
                       for r in limited)
            served = [r for r in responses if type(r) is StatsResponse]
            assert served, "window-admitted requests still answer"
            assert type(follow_up) is StatsResponse
            counters = harness.server.net_snapshot()["counters"]
            assert counters["backpressure_stalls"] == len(limited)

    def test_peer_that_stops_reading_stops_the_server_reading(self,
                                                              harness):
        """Write backpressure: once a peer's unread responses fill the
        socket buffers, the server reads none of its later requests
        until the peer reads, then answers every one, in order."""
        sent = 64
        frames = [encode_frame(encode_request(BatchQueryRequest(
            pairs=[("alpha-news.com", "alpha.com")] * 400
            + [("alpha.com", f"h{index}.example.com")], detail=True)))
            for index in range(sent)]  # ~13 KB each, ~105 KB answers
        host, port = harness.server.address
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect((host, port))
            decoder = FrameDecoder()
            sock.sendall(encode_frame(hello_message()))
            assert json.loads(read_frame(sock, decoder))["ok"] is True
            writer = threading.Thread(
                target=sock.sendall, args=(b"".join(frames),))
            writer.start()
            # Wait, unread, until the server stops decoding requests.
            decoded, deadline = -1, time.monotonic() + 10
            while time.monotonic() < deadline:
                time.sleep(0.2)
                counters = harness.server.net_snapshot()["counters"]
                if counters["frames_in"] == decoded:
                    break
                decoded = counters["frames_in"]
            assert decoded - 1 < sent  # the hello is frame one
            answers = [json.loads(read_frame(sock, decoder))
                       for _ in range(sent)]
            writer.join(timeout=10)
        assert [answer["payload"]["verdicts"][-1]["host_b"]
                for answer in answers] == [
            f"h{index}.example.com" for index in range(sent)]
        counters = harness.server.net_snapshot()["counters"]
        assert counters["responses"] == counters["requests"] == sent


class TestMalformedTraffic:
    def test_bad_request_json_answers_malformed(self, harness):
        """Undecodable request payloads come back as MALFORMED
        envelopes; the connection survives."""
        host, port = harness.server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            decoder = FrameDecoder()
            sock.sendall(encode_frame(hello_message()))
            assert json.loads(read_frame(sock, decoder))["ok"] is True
            # Bad JSON, then well-formed JSON in invalid UTF-8 (never
            # rewritten into a valid request).
            for bad in ["{definitely not a request",
                        b'{"op": "stats", "payload": {}, "note": "\xff"}']:
                sock.sendall(encode_frame(bad))
                envelope = json.loads(read_frame(sock, decoder))
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "MALFORMED"
            # Still alive: a well-formed request answers normally.
            sock.sendall(encode_frame(encode_request(StatsRequest())))
            assert json.loads(read_frame(sock, decoder))["ok"] is True

    def test_oversized_frame_prefix_errors_and_closes(self, service):
        with ServerThread(RwsTcpServer(service,
                                       max_frame_bytes=1024)) as harness:
            host, port = harness.server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(encode_frame(hello_message(), 1024))
                sock.sendall((4096).to_bytes(4, "big"))
                decoder = FrameDecoder(1024)
                frames = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # server closed after answering
                    decoder.feed(chunk)
                    frames.extend(decoder.frames())
                assert len(frames) == 2  # hello + the error envelope
                envelope = json.loads(frames[1])
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "MALFORMED"
            counters = harness.server.net_snapshot()["counters"]
            assert counters["malformed"] == 1

    def test_response_over_frame_limit_answers_malformed(self, service):
        """A request that fits the frame limit but whose response does
        not is answered in order with MALFORMED (carrying the sizes),
        and the connection keeps serving."""
        limit = 4096
        request = BatchQueryRequest(
            pairs=[("alpha-news.com", "alpha.com")] * 40, detail=True)
        assert len(encode_request(request)) < limit
        with ServerThread(RwsTcpServer(service,
                                       max_frame_bytes=limit)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port, timeout=5, retries=0) as client:
                before, oversized, after = client.pipeline(
                    [StatsRequest(), request, StatsRequest()])
                follow_up = client.dispatch(StatsRequest())
            assert type(before) is StatsResponse
            assert type(oversized) is ErrorResponse
            assert oversized.error.code is ErrorCode.MALFORMED
            assert oversized.error.detail["max_bytes"] == str(limit)
            assert int(oversized.error.detail["bytes"]) > limit
            assert type(after) is StatsResponse
            assert type(follow_up) is StatsResponse
            counters = harness.server.net_snapshot()["counters"]
            assert counters["responses"] == counters["requests"] == 4


    def test_a_fault_serving_one_connection_spares_the_others(
            self, service, capsys):
        """An answer the server fails to encode closes that connection
        and prints the traceback; the loop serves the next one."""

        class Unencodable:
            def __init__(self, dispatcher):
                self.service = dispatcher.service
                self.inner = dispatcher

            def dispatch(self, request):
                if type(request) is StatsRequest:
                    return object()  # no response envelope
                return self.inner.dispatch(request)

        with ServerThread(RwsTcpServer(
                dispatcher=Unencodable(Dispatcher(service)))) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port, retries=0) as client:
                with pytest.raises(NetClientError):
                    client.dispatch(StatsRequest())
            with TcpApiClient(host, port, retries=0) as client:
                assert client.dispatch(QueryRequest(
                    host_a="alpha-news.com", host_b="alpha.com")
                ).verdict.related
            counters = harness.server.net_snapshot()["counters"]
        assert counters["connections_opened"] == 2
        assert "AttributeError" in capsys.readouterr().err


class TestRetry:
    def _kill_pooled_socket(self, client: TcpApiClient) -> None:
        """Sabotage the pooled connection so the next send/read fails."""
        conn = client._pool.get_nowait()
        conn.sock.close()
        client._pool.put_nowait(conn)

    def test_idempotent_read_retries_on_dead_connection(self, harness):
        host, port = harness.server.address
        client = TcpApiClient(host, port, retries=2, backoff=0.01)
        client.dispatch(StatsRequest())
        self._kill_pooled_socket(client)
        response = client.dispatch(StatsRequest())  # retried, fresh conn
        assert type(response) is StatsResponse
        assert client.net_snapshot()["counters"]["retries"] >= 1
        client.close()

    def test_mutating_op_never_retries(self, harness):
        host, port = harness.server.address
        client = TcpApiClient(host, port, retries=2, backoff=0.01)
        client.dispatch(StatsRequest())
        self._kill_pooled_socket(client)
        with pytest.raises(NetClientError):
            client.dispatch(PublishRequest(rws_list=list_b()))
        assert client.net_snapshot()["counters"]["retries"] == 0
        client.close()

    def test_failed_pipeline_counts_requests_and_error(self, harness):
        """A burst that dies on the wire is counted like failed
        dispatches: every request up front, the failure as one
        transport error, and no retry."""
        host, port = harness.server.address
        client = TcpApiClient(host, port, retries=2, backoff=0.01)
        client.dispatch(StatsRequest())
        self._kill_pooled_socket(client)
        with pytest.raises(NetClientError):
            client.pipeline([StatsRequest() for _ in range(5)])
        counters = client.net_snapshot()["counters"]
        assert counters["requests"] == 6
        assert counters["responses"] == 1
        assert counters["transport_errors"] == 1
        assert counters["retries"] == 0
        client.close()


class TestFaultInjection:
    """Injectable transport faults on the client (chaos satellite).

    ``fault_hook(op, attempt)`` lets tests tear the connection at the
    worst moments — before the frame leaves, or after the server has
    the frame but before the response arrives — and asserts the replay
    policy holds: mutations reach the server at most once, ever.
    """

    @staticmethod
    def _wait_for(predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_lost_response_never_replays_publish(self, harness):
        """An "after" fault means the server processed the publish but
        the response died on the wire.  The client must surface the
        error without retrying — the epoch advances exactly once."""
        host, port = harness.server.address
        client = TcpApiClient(
            host, port, retries=2, backoff=0.01,
            fault_hook=lambda op, attempt: (
                "after" if op == "publish" else None))
        with pytest.raises(NetClientError, match="response lost"):
            client.dispatch(PublishRequest(rws_list=list_b()))
        counters = client.net_snapshot()["counters"]
        assert counters["retries"] == 0
        assert counters["faults_injected"] == 1
        # The server side actually committed the publish — once.
        assert self._wait_for(
            lambda: harness.server.net_snapshot()
            ["counters"].get("publishes", 0) == 1)
        probe = TcpApiClient(host, port)
        stats = probe.dispatch(StatsRequest())
        assert stats.report["serve.snapshot_version"] == 2  # seed v1 + 1
        probe.close()
        client.close()

    def test_before_fault_never_reaches_server(self, harness):
        """A "before" fault kills the attempt pre-send: the server
        must never see the mutation at all."""
        host, port = harness.server.address
        client = TcpApiClient(
            host, port, retries=2, backoff=0.01,
            fault_hook=lambda op, attempt: (
                "before" if op == "publish" else None))
        with pytest.raises(NetClientError, match="before send"):
            client.dispatch(PublishRequest(rws_list=list_b()))
        assert client.net_snapshot()["counters"]["faults_injected"] == 1
        probe = TcpApiClient(host, port)
        stats = probe.dispatch(StatsRequest())
        assert stats.report["serve.snapshot_version"] == 1
        assert harness.server.net_snapshot()["counters"].get(
            "publishes", 0) == 0
        probe.close()
        client.close()

    def test_faulted_read_retries_and_succeeds(self, harness):
        """Idempotent ops ride the retry loop through injected faults
        and land on a fresh connection."""
        host, port = harness.server.address
        client = TcpApiClient(
            host, port, retries=2, backoff=0.01,
            fault_hook=lambda op, attempt: (
                "after" if op == "stats" and attempt == 0 else None))
        response = client.dispatch(StatsRequest())
        assert type(response) is StatsResponse
        counters = client.net_snapshot()["counters"]
        assert counters["retries"] == 1
        assert counters["faults_injected"] == 1
        assert counters["backoff_ms"] >= 10  # 0.01s base backoff
        client.close()

    def test_counters_fold_under_net_client_namespace(self, harness):
        """The workload driver writes the client's counters with
        ``client.write_metrics`` under ``net.client.*`` — retries,
        backoff, and injected faults must all surface there."""
        from repro.obs import MetricsRegistry

        host, port = harness.server.address
        client = TcpApiClient(
            host, port, retries=2, backoff=0.01,
            fault_hook=lambda op, attempt: (
                "before" if op == "stats" and attempt == 0 else None))
        client.dispatch(StatsRequest())
        registry = MetricsRegistry()
        client.write_metrics(registry)
        portable = registry.to_portable()
        assert portable["counters"]["net.client.retries"] == 1
        assert portable["counters"]["net.client.faults_injected"] == 1
        assert portable["counters"]["net.client.backoff_ms"] >= 10
        client.close()


class TestDrainOnPublish:
    def test_pipelined_read_after_publish_sees_new_epoch(self, harness):
        """The drain contract on one connection: a query pipelined
        behind a publish answers against the published epoch."""
        host, port = harness.server.address

        with TcpApiClient(host, port) as client:
            before, published, after, stats = client.pipeline([
                QueryRequest(host_a="beta-shop.com", host_b="beta.com"),
                PublishRequest(rws_list=list_b()),
                QueryRequest(host_a="beta-shop.com", host_b="beta.com"),
                StatsRequest(),
            ])
        assert type(before) is QueryResponse
        assert before.verdict.related is False
        assert type(published) is PublishResponse
        assert type(after) is QueryResponse
        assert after.verdict.related is True
        assert stats.report["serve.snapshot_version"] == published.version

    def test_publish_storm_never_tears_a_batch(self, service):
        """Extends the ``test_serve.py`` epoch-storm pattern onto real
        sockets: while one connection storms alternating publishes, a
        batch query spanning both lists' sets must answer against
        exactly one epoch — one related pair, never both or neither."""
        with ServerThread(RwsTcpServer(service)) as harness:
            host, port = harness.server.address
            publishes = 60
            readers = 3
            stop = threading.Event()
            torn: list[list[bool]] = []
            errors: list[BaseException] = []

            def publisher():
                try:
                    with TcpApiClient(host, port, retries=0) as client:
                        for i in range(publishes):
                            rws_list = list_b() if i % 2 == 0 else list_a()
                            response = client.dispatch(
                                PublishRequest(rws_list=rws_list))
                            assert type(response) is PublishResponse, \
                                response
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    stop.set()

            def reader():
                pairs = [("alpha-news.com", "alpha.com"),
                         ("beta-shop.com", "beta.com")]
                try:
                    with TcpApiClient(host, port, retries=0) as client:
                        while not stop.is_set():
                            response = client.dispatch(BatchQueryRequest(
                                pairs=pairs, detail=False))
                            assert type(response) is BatchQueryResponse,\
                                response
                            if sum(response.related) != 1:
                                torn.append(list(response.related))
                                return
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=publisher)]
            threads += [threading.Thread(target=reader)
                        for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert not torn, f"torn batch responses: {torn}"
            snapshot = harness.server.net_snapshot()
            assert snapshot["counters"]["publishes"] == publishes
            # The storm must actually have exercised the drain path.
            assert snapshot["counters"]["requests"] > publishes
            assert snapshot["counters"]["drain_waits"] == 0

    def test_drain_counts_publish_waits(self, harness):
        """Every wire publish is counted; drain_waits stays in the
        snapshot and reads 0, because a publish never overlaps a
        read."""
        host, port = harness.server.address
        with TcpApiClient(host, port) as client:
            client.dispatch(PublishRequest(rws_list=list_b()))
        snapshot = harness.server.net_snapshot()
        assert snapshot["counters"]["publishes"] == 1
        assert snapshot["counters"]["drain_waits"] == 0


class TestSerialDispatch:
    """The server answers every request inline on its event loop, so
    ordering and drain-on-publish need no threads of their own."""

    def test_server_owns_only_its_loop_thread(self, service):
        """Serving a pipelined burst, a publish and a query starts no
        thread besides the harness's event-loop thread."""
        before = set(threading.enumerate())
        with ServerThread(RwsTcpServer(service)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port) as client:
                burst = client.pipeline(
                    [QueryRequest(host_a="alpha-news.com",
                                  host_b="alpha.com")] * 8
                    + [StatsRequest()] * 8)
                published = client.dispatch(
                    PublishRequest(rws_list=list_b()))
                after = client.dispatch(
                    QueryRequest(host_a="beta-shop.com", host_b="beta.com"))
                owned = sorted(thread.name for thread in threading.enumerate()
                               if thread not in before)
        assert all(type(r) in (QueryResponse, StatsResponse) for r in burst)
        assert type(published) is PublishResponse
        assert after.verdict.related is True
        assert owned == ["repro-net-server"]

    def test_serial_requests_leave_three_sockets_selected(self, service):
        """A request costs the server no socket of its own: after 100
        serial round trips on one connection, the server's selector
        holds exactly the listener, the wake-up socket and that
        connection, and stopping the server closes every one."""
        with ServerThread(RwsTcpServer(service)) as harness:
            server = harness.server
            host, port = server.address
            with TcpApiClient(host, port) as client:
                responses = [client.dispatch(QueryRequest(
                    host_a="alpha-news.com", host_b="alpha.com"))
                    for _ in range(100)]
                selected = [key.fileobj for key
                            in server._selector.get_map().values()]
                (connection,) = server._connections
        assert all(r.verdict.related for r in responses)
        assert len(selected) == 3
        woken = [sock for sock in selected
                 if sock not in (server._listener, connection.sock)]
        assert len(woken) == 1
        assert woken[0].family == socket.AF_UNIX  # the socketpair's end
        assert [sock.fileno() for sock in selected + [server._wake]] \
            == [-1] * 4

    def test_bursts_within_window_are_never_pushed_back(self, service):
        """The compliant side of the window: bursts of ``window``
        requests, each awaited before the next, are all served."""
        with ServerThread(RwsTcpServer(service, window=2)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port) as client:
                responses = [
                    response
                    for _ in range(50)
                    for response in client.pipeline(
                        [QueryRequest(host_a="alpha-news.com",
                                      host_b="alpha.com"),
                         StatsRequest()])]
            assert not [r for r in responses
                        if isinstance(r, ErrorResponse)]
            assert len(responses) == 100
            snapshot = harness.server.net_snapshot()
            assert snapshot["counters"]["backpressure_stalls"] == 0
            assert snapshot["gauges"]["pipeline_depth_peak"] <= 2


class TestSharedReadBuffer:
    """Every connection of a server reads into the server's one buffer;
    the frame decoder copies what it keeps, so one connection's read
    never corrupts another's partial frame."""

    @staticmethod
    def _connect(host, port) -> tuple[socket.socket, FrameDecoder]:
        """A raw client past its hello, with Nagle off, so each
        ``sendall`` leaves at once."""
        sock = socket.create_connection((host, port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = FrameDecoder()
        sock.sendall(encode_frame(hello_message()))
        assert json.loads(read_frame(sock, decoder))["ok"] is True
        return sock, decoder

    def test_interleaved_connections_answer_their_own_requests(
            self, service):
        """A's partial frame survives B's read over the same buffer,
        and a frame larger than one read survives B's frames answered
        between its reads: every answer is its own request's."""

        def frame(request) -> bytes:
            return encode_frame(encode_request(request))

        def expected(request) -> dict:
            return json.loads(encode_response(
                Dispatcher(service).dispatch(request)))

        point_a = QueryRequest(host_a="alpha-news.com", host_b="alpha.com")
        split_a = QueryRequest(host_a="www.alpha.com", host_b="beta.com")
        batch_b = BatchQueryRequest(
            pairs=[("alpha.com", "alpha-news.com"),
                   ("alpha.com", "beta-shop.com")] * 8, detail=True)
        big_a = BatchQueryRequest(pairs=[
            (f"shop{index}.alpha.com",
             f"cdn{index}.beta-shop.com" if index % 3 else "alpha-news.com")
            for index in range(6000)], detail=False)
        points_b = [QueryRequest(host_a=f"m{index}.alpha-news.com",
                                 host_b="alpha.com" if index % 2
                                 else "beta.com") for index in range(3)]
        first, second, big = frame(point_a), frame(split_a), frame(big_a)
        half = len(second) // 2
        assert len(frame(batch_b)) > len(first) + half
        assert len(big) > READ_BYTES
        cuts = [0, len(big) // 4, len(big) // 2, 3 * len(big) // 4, len(big)]

        with ServerThread(RwsTcpServer(service)) as harness:
            host, port = harness.server.address
            a, a_decoder = self._connect(host, port)
            b, b_decoder = self._connect(host, port)
            with a, b:
                answers_a, answers_b = [], []
                # A's tail waits in its decoder while B's longer frame
                # is read over the same buffer.
                a.sendall(first + second[:half])
                answers_a.append(read_frame(a, a_decoder))
                b.sendall(frame(batch_b))
                answers_b.append(read_frame(b, b_decoder))
                a.sendall(second[half:])
                answers_a.append(read_frame(a, a_decoder))
                # A frame over READ_BYTES takes several reads; B's
                # point frames are answered between them.
                for start, end, point in zip(cuts, cuts[1:],
                                             points_b + [None]):
                    a.sendall(big[start:end])
                    if point is not None:
                        b.sendall(frame(point))
                        answers_b.append(read_frame(b, b_decoder))
                answers_a.append(read_frame(a, a_decoder))
        assert [json.loads(answer) for answer in answers_a] == [
            expected(request) for request in (point_a, split_a, big_a)]
        assert [json.loads(answer) for answer in answers_b] == [
            expected(request) for request in [batch_b, *points_b]]

    def test_a_served_read_allocates_only_what_arrived(self, harness):
        """Fifty served point queries raise the traced allocation peak
        by less than ``READ_BYTES // 8``: no read allocates a
        ``READ_BYTES`` object.  Counts bytes, not time.  The client
        reads 4 KiB at a time into a buffer of its own, so its reads
        stay out of the figure."""
        host, port = harness.server.address
        query = encode_frame(encode_request(QueryRequest(
            host_a="alpha-news.com", host_b="alpha.com")))
        chunk = memoryview(bytearray(4096))
        decoder = FrameDecoder()
        with socket.create_connection((host, port), timeout=10) as sock:

            def answer(frame: bytes) -> bytes:
                sock.sendall(frame)
                while (payload := decoder.next_frame()) is None:
                    size = sock.recv_into(chunk)
                    assert size, "server closed the connection"
                    decoder.feed(chunk[:size])
                return payload

            assert json.loads(answer(encode_frame(hello_message())))["ok"]
            for _ in range(5):
                answer(query)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before, _peak = tracemalloc.get_traced_memory()
                answers = [answer(query) for _ in range(50)]
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                if not tracing:
                    tracemalloc.stop()
        assert all(decode_response(payload)[0].verdict.related
                   for payload in answers)
        assert peak - before < READ_BYTES // 8


class TestObservability:
    def test_net_snapshot_folds_into_registry(self, harness):
        """Both ends write what their snapshots hold into one registry;
        ``drain_waits`` stays in the server's snapshot only."""
        from repro.obs import MetricsRegistry

        host, port = harness.server.address
        with TcpApiClient(host, port) as client:
            client.dispatch(StatsRequest())
        registry = MetricsRegistry()
        harness.server.write_metrics(registry)
        client.write_metrics(registry)
        snapshot = harness.server.net_snapshot()
        assert snapshot["counters"]["drain_waits"] == 0
        assert "net.drain_waits" not in registry.counters
        assert registry.counters["net.requests"] == 1
        assert registry.counters["net.client.requests"] == 1
        assert registry.gauges["net.window"] == harness.server.window
        assert "net.request_ns" in registry.histograms

    def test_stats_registry_merges_backend_report(self, harness):
        host, port = harness.server.address
        with TcpApiClient(host, port) as client:
            client.dispatch(QueryRequest(host_a="alpha-news.com",
                                         host_b="alpha.com"))
        registry = harness.server.stats_registry()
        assert registry.counters["net.requests"] == 1
        assert registry.counters["serve.queries"] >= 1

    def test_tracer_records_net_spans(self, service):
        from repro.obs import Tracer

        tracer = Tracer(seed=0)
        with ServerThread(RwsTcpServer(service,
                                       tracer=tracer)) as harness:
            host, port = harness.server.address
            with TcpApiClient(host, port) as client:
                client.dispatch(QueryRequest(host_a="alpha-news.com",
                                             host_b="alpha.com"))
                client.dispatch(StatsRequest())
        names = {span["name"] for span in tracer.summary().spans}
        assert {"net.accept", "net.frame.decode", "net.dispatch",
                "net.frame.encode"} <= names


class TestTransportEquivalence:
    """The determinism invariant extends over the wire: TCP dispatch
    yields bit-identical outcome digests."""

    def test_serial_digest_matches_inproc(self):
        from repro.workload.driver import run_workload

        inproc = run_workload("steady", 30, seed=11)
        tcp = run_workload("steady", 30, seed=11, transport="tcp")
        assert tcp.digest_hex == inproc.digest_hex
        assert tcp.transport == "tcp"
        assert tcp.registry is not None
        assert tcp.registry.counters["net.requests"] > 0

    def test_sharded_digest_matches_inproc(self):
        from repro.workload.driver import run_workload

        inproc = run_workload("steady", 30, shards=3, seed=11,
                              executor="inline")
        tcp = run_workload("steady", 30, shards=3, seed=11,
                           executor="inline", transport="tcp")
        assert tcp.digest_hex == inproc.digest_hex

    def test_list_update_digest_matches_inproc(self):
        from repro.workload.driver import run_workload

        inproc = run_workload("list-update", 24, seed=5)
        tcp = run_workload("list-update", 24, seed=5, transport="tcp")
        assert tcp.digest_hex == inproc.digest_hex
        assert tcp.snapshot_version == inproc.snapshot_version

    def test_trace_with_tcp_is_refused(self):
        from repro.workload.driver import run_workload

        with pytest.raises(ValueError, match="inproc"):
            run_workload("steady", 5, seed=0, trace=True,
                         transport="tcp")

    def test_unknown_transport_is_refused(self):
        from repro.workload.driver import run_workload

        with pytest.raises(ValueError, match="transport"):
            run_workload("steady", 5, seed=0, transport="smoke-signal")
