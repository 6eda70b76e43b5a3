"""The TCP client for the API wire: synchronous, pooled, pipelining.

:class:`TcpApiClient` pools connections, and its
:meth:`~TcpApiClient.dispatch` is call-compatible with
:meth:`repro.api.dispatcher.Dispatcher.dispatch` — take a typed
request envelope, get a typed response envelope — so anything written
against the dispatcher (the workload driver's shard state, the CLI)
can swap in a socket without knowing.  Transport failures on
**idempotent reads** (``query``/``batch_query``/``resolve``/
``snapshot``/``poll``/``stats``) are retried on a fresh connection with exponential
backoff; mutating ops (``publish``/``submit``) never retry, because a
lost response does not mean a lost write.  ``RATE_LIMITED`` pushback
from the server's pipelining window is a *response*, not a transport
failure — it comes back to the caller untouched.

:meth:`~TcpApiClient.pipeline` is the one pipelining path: it sends a
burst of frames down one connection, then collects the responses in
request order (the backpressure tests and the ``net_throughput``
bench use it).
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time

from repro.api.codec import (
    API_VERSION,
    MAX_WIRE_BYTES,
    WireError,
    decode_response,
    encode_request,
)
from repro.api.envelopes import Request, Response
from repro.net.frame import FrameDecoder, FrameError, encode_frame
from repro.net.server import hello_message
from repro.obs.registry import MetricsRegistry

#: Ops safe to retry on a transport error: reads with no server-side
#: side effects.  ``publish``/``submit``/``queue_report`` are absent on
#: purpose — replaying a mutation after a lost response double-applies.
IDEMPOTENT_OPS = frozenset(
    {"query", "batch_query", "resolve", "snapshot", "poll", "stats"})


class NetClientError(ConnectionError):
    """The transport failed: connect refused, hello rejected, stream
    torn mid-frame, or response undecodable."""


class _Conn:
    """One pooled socket with its decoder and negotiated hello."""

    __slots__ = ("sock", "decoder", "version", "window", "max_frame_bytes")

    def __init__(self, sock: socket.socket, decoder: FrameDecoder,
                 version: int, window: int, max_frame_bytes: int):
        self.sock = sock
        self.decoder = decoder
        self.version = version
        self.window = window
        self.max_frame_bytes = max_frame_bytes

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def send(self, requests: list[Request]) -> None:
        """Frame ``requests`` and send them in one write."""
        try:
            self.sock.sendall(b"".join(
                encode_frame(encode_request(r, version=self.version),
                             self.max_frame_bytes)
                for r in requests))
        except OSError as exc:
            raise NetClientError(f"send failed: {exc}") from exc

    def receive(self) -> Response:
        """Block for the next response frame and decode it."""
        payload = _read_frame(self.sock, self.decoder)
        try:
            response, _version = decode_response(
                payload.decode("utf-8"), max_bytes=self.max_frame_bytes)
        except WireError as exc:
            raise NetClientError(f"undecodable response: {exc}") from exc
        return response


def _read_frame(sock: socket.socket, decoder: FrameDecoder) -> bytes:
    """Block until one complete frame is available from ``sock``."""
    while True:
        payload = decoder.next_frame()
        if payload is not None:
            return payload
        try:
            chunk = sock.recv(65536)
        except OSError as exc:
            raise NetClientError(f"recv failed: {exc}") from exc
        if not chunk:
            raise NetClientError("connection closed mid-frame")
        try:
            decoder.feed(chunk)
        except FrameError as exc:
            raise NetClientError(f"peer broke framing: {exc}") from exc


class TcpApiClient:
    """Synchronous pooled client speaking the length-prefixed wire.

    Args:
        host: Server host.
        port: Server port.
        api_version: Version to request at hello; the server answers
            with ``min(api_version, its own)``.
        pool_size: Idle connections to keep (a LIFO pool: hot sockets
            get reused first).
        timeout: Per-socket-operation timeout in seconds.
        retries: Extra attempts for idempotent ops on transport
            failure (0 disables retry entirely).
        backoff: Base backoff in seconds, doubled per attempt.
        max_frame_bytes: Local frame ceiling (the server advertises
            its own at hello; the effective limit is the smaller).
        fault_hook: Optional injectable transport fault — called as
            ``fault_hook(op, attempt)`` before every
            :meth:`dispatch` round trip.  Return ``"before"`` to tear
            the connection down before the request frame is sent (the
            request never reaches the server), ``"after"`` to send the
            frame and then tear down before the response is read (the
            server processed the request; the *response* is lost —
            the dangerous case that must never trigger a replay of a
            non-idempotent op), or ``None`` for no fault.  Injected
            faults surface as ordinary :class:`NetClientError`
            transport failures, so they exercise exactly the retry /
            no-replay policy real socket failures do.
    """

    def __init__(self, host: str, port: int, *,
                 api_version: int = API_VERSION, pool_size: int = 4,
                 timeout: float = 10.0, retries: int = 2,
                 backoff: float = 0.05,
                 max_frame_bytes: int = MAX_WIRE_BYTES,
                 fault_hook=None):
        self.host = host
        self.port = port
        self.api_version = api_version
        self.pool_size = pool_size
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_frame_bytes = max_frame_bytes
        self.fault_hook = fault_hook
        #: Populated by the first hello exchange.
        self.negotiated_version: int | None = None
        self.server_window: int | None = None
        self._pool: queue.LifoQueue = queue.LifoQueue(maxsize=pool_size)
        self._lock = threading.Lock()
        self._closed = False
        self._counters = {"requests": 0, "responses": 0, "retries": 0,
                          "reconnects": 0, "transport_errors": 0,
                          "backoff_ms": 0, "faults_injected": 0}

    # -- connection management ------------------------------------------------

    def _connect(self) -> _Conn:
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise NetClientError(
                f"connect to {self.host}:{self.port} failed: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = FrameDecoder(self.max_frame_bytes)
        try:
            sock.sendall(encode_frame(hello_message(self.api_version),
                                      self.max_frame_bytes))
            hello = json.loads(_read_frame(sock, decoder))
        except (NetClientError, OSError, json.JSONDecodeError) as exc:
            sock.close()
            if isinstance(exc, NetClientError):
                raise
            raise NetClientError(f"hello exchange failed: {exc}") from exc
        if not hello.get("ok"):
            sock.close()
            error = hello.get("error", {})
            raise NetClientError(
                f"server refused hello: "
                f"{error.get('code', '?')}: {error.get('message', '?')}")
        with self._lock:
            self._counters["reconnects"] += 1
            self.negotiated_version = int(hello["api_version"])
            self.server_window = int(hello.get("window", 0)) or None
        return _Conn(sock, decoder, int(hello["api_version"]),
                     int(hello.get("window", 0)),
                     min(self.max_frame_bytes,
                         int(hello.get("max_frame_bytes",
                                       self.max_frame_bytes))))

    def _checkout(self) -> _Conn:
        if self._closed:
            raise NetClientError("client is closed")
        try:
            return self._pool.get_nowait()
        except queue.Empty:
            return self._connect()

    def _checkin(self, conn: _Conn) -> None:
        # Only clean-boundary sockets are reusable; anything else may
        # desynchronise the next caller's framing.
        if self._closed or not conn.decoder.idle:
            conn.close()
            return
        try:
            self._pool.put_nowait(conn)
        except queue.Full:
            conn.close()

    # -- request paths --------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """One request, one response — the dispatcher-compatible call.

        Transport errors on idempotent ops retry on a fresh connection
        with exponential backoff; all other failures raise
        :class:`NetClientError`.
        """
        with self._lock:
            self._counters["requests"] += 1
        attempts = 1 + (self.retries if request.op in IDEMPOTENT_OPS
                        else 0)
        last: NetClientError | None = None
        for attempt in range(attempts):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                with self._lock:
                    self._counters["retries"] += 1
                    self._counters["backoff_ms"] += int(round(delay * 1000))
                time.sleep(delay)
            conn = None
            try:
                conn = self._checkout()
                response = self._round_trip(conn, request, attempt)
            except NetClientError as exc:
                if conn is not None:
                    conn.close()
                with self._lock:
                    self._counters["transport_errors"] += 1
                last = exc
                continue
            self._checkin(conn)
            with self._lock:
                self._counters["responses"] += 1
            return response
        assert last is not None
        raise last

    def _round_trip(self, conn: _Conn, request: Request,
                    attempt: int = 0) -> Response:
        fault = (self.fault_hook(request.op, attempt)
                 if self.fault_hook is not None else None)
        if fault == "before":
            with self._lock:
                self._counters["faults_injected"] += 1
            raise NetClientError(
                f"injected fault before send ({request.op})")
        conn.send([request])
        if fault == "after":
            # The request frame is on the wire — the server will (or
            # already did) process it.  Losing the response here is the
            # scenario where a naive retry would replay a mutation.
            with self._lock:
                self._counters["faults_injected"] += 1
            raise NetClientError(
                f"injected fault after send ({request.op}): response lost")
        return conn.receive()

    def pipeline(self, requests: list[Request]) -> list[Response]:
        """Send every request before reading any response.

        All frames go down one connection back to back; responses come
        back in request order (the server guarantees ordering).  No
        retry — a mid-pipeline transport failure raises, because the
        burst may straddle non-idempotent ops.  Like :meth:`dispatch`,
        it counts every request up front and a failure as one transport
        error.
        """
        if not requests:
            return []
        with self._lock:
            self._counters["requests"] += len(requests)
        conn = None
        try:
            conn = self._checkout()
            conn.send(requests)
            responses = [conn.receive() for _ in requests]
        except NetClientError:
            if conn is not None:
                conn.close()
            with self._lock:
                self._counters["transport_errors"] += 1
            raise
        self._checkin(conn)
        with self._lock:
            self._counters["responses"] += len(requests)
        return responses

    # -- lifecycle / observability --------------------------------------------

    def close(self) -> None:
        """Close every pooled connection; the client is done."""
        self._closed = True
        while True:
            try:
                self._pool.get_nowait().close()
            except queue.Empty:
                return

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The client's counters under ``net.client.*``."""
        with self._lock:
            counters = dict(self._counters)
        for key, value in counters.items():
            registry.count(f"net.client.{key}", value)

    def net_snapshot(self) -> dict:
        """Client-side counters as plain data, in the server's
        :meth:`~repro.net.server.RwsTcpServer.net_snapshot` shape."""
        with self._lock:
            return {"counters": dict(self._counters), "gauges": {},
                    "histograms": {}}

    def __enter__(self) -> "TcpApiClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

