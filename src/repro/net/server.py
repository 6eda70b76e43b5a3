"""The asyncio TCP server: the API wire codec on a real socket.

:class:`RwsTcpServer` frames :mod:`repro.api.codec` JSON documents
over length-prefixed TCP (:mod:`repro.net.frame`) and routes them
through a :class:`~repro.api.dispatcher.Dispatcher` — so the serving
backend (an :class:`~repro.serve.service.RwsService` or a
:class:`~repro.cluster.Router`, duck-typed exactly as the dispatcher
takes them) is unchanged behind the socket.

Every request is served inline on the event loop.  Each connection is
an :class:`asyncio.Protocol` whose ``data_received`` callback decodes,
dispatches, encodes and writes the complete frames of one socket read,
in arrival order, before the loop reads that connection again; a
request costs that one callback and creates no Task or timer.
Dispatch is pure Python under the GIL, so threads would buy no
parallelism; serial dispatch instead gives the two wire guarantees by
construction.

* **hello** — the first frame each way is a hello message negotiating
  ``api_version`` with the codec's ``min(requested, API_VERSION)``
  rule; versions below ``MIN_VERSION`` are refused.  The server's
  hello also advertises its frame ceiling and pipelining window.
* **pipelining, ordered** — a client may send any number of request
  frames without waiting; responses leave in request order because
  requests are answered one at a time, in order.
* **backpressure** — the frames one read completes are in flight
  together; past ``window`` of them, the rest are answered at once,
  in order, with ``RATE_LIMITED`` pushback instead of being served.
  While a connection's unsent answers are over the transport's
  high-water mark the server stops reading it, so the kernel's TCP
  window holds back a peer that does not read its answers.
* **publish ordering** — a ``publish`` runs alone on the loop, so it
  never overlaps a read, and any request answered after it (on any
  connection) sees the published epoch.  ``drain_waits`` stays in
  :meth:`~RwsTcpServer.net_snapshot` and always reads 0.
* **idle timeout / connection cap** — connections with no partial
  frame buffered close after ``idle_timeout`` quiet seconds, timed by
  one timer per connection that re-arms itself from the last read;
  connects past ``max_connections`` are refused at hello.

``net.*`` observability: :meth:`RwsTcpServer.write_metrics` writes
the wire's counters, gauges and request-latency histogram into a
:class:`~repro.obs.registry.MetricsRegistry`, and a live
:class:`~repro.obs.trace.Tracer` records
``net.accept`` / ``net.frame.decode`` / ``net.dispatch`` /
``net.frame.encode`` spans per request (request indices follow arrival
order, so net traces are deterministic for serial single-connection
traffic; concurrent arrival order is the scheduler's).

:class:`ServerThread` runs a server on a private event loop in a
daemon thread for synchronous callers (the CLI, the workload driver's
TCP transport, tests).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import TYPE_CHECKING

from repro.api.codec import (
    API_VERSION,
    MAX_WIRE_BYTES,
    WireError,
    decode_request,
    encode_response,
    negotiate_version,
)
from repro.api.dispatcher import Dispatcher
from repro.api.envelopes import (
    ApiError,
    ErrorCode,
    ErrorResponse,
    PublishRequest,
)
from repro.net.frame import FrameDecoder, FrameError, encode_frame
from repro.obs.registry import LatencyHistogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.cluster.router import Router
    from repro.serve.service import RwsService

#: The server identity string echoed in every hello response.
SERVER_NAME = "repro.net/1"

#: Default per-connection pipelining window (request frames served
#: from one read before ``RATE_LIMITED`` pushback).
DEFAULT_WINDOW = 32

#: Default idle timeout in seconds before a quiet connection closes.
DEFAULT_IDLE_TIMEOUT = 30.0

#: Default concurrent-connection cap.
DEFAULT_MAX_CONNECTIONS = 64


def hello_message(api_version: int = API_VERSION) -> str:
    """The client's opening hello document."""
    return json.dumps({"kind": "hello", "api_version": api_version},
                      sort_keys=True)


def _hello_refusal(error: ApiError) -> str:
    """The server's hello document refusing a connection."""
    return json.dumps({
        "kind": "hello", "ok": False,
        "error": {"code": error.code.value, "message": error.message,
                  "detail": dict(error.detail)},
    }, sort_keys=True)


class RwsTcpServer:
    """An asyncio TCP front-end over a dispatcher (or bare backend).

    Args:
        backend: An :class:`RwsService` or :class:`Router` to wrap in
            a fresh middleware-free :class:`Dispatcher`; ignored when
            ``dispatcher`` is given.
        dispatcher: A pre-built dispatcher (bring your own middleware
            chain).
        host: Bind address (default loopback).
        port: Bind port (0 picks an ephemeral port; see
            :attr:`address` after :meth:`start`).
        max_connections: Concurrent-connection cap; connects beyond it
            are refused at hello with ``RATE_LIMITED``.
        window: Per-connection pipelining window; request frames from
            one read past it get ``RATE_LIMITED`` pushback, in order.
        idle_timeout: Seconds of quiet (no partial frame buffered)
            before the server closes a connection.
        max_frame_bytes: Frame payload ceiling, advertised at hello.
        tracer: A :class:`~repro.obs.trace.Tracer` for ``net.*`` spans
            (default: the no-op tracer).
    """

    def __init__(self, backend: "RwsService | Router | None" = None, *,
                 dispatcher: Dispatcher | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 window: int = DEFAULT_WINDOW,
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 max_frame_bytes: int = MAX_WIRE_BYTES,
                 tracer=NULL_TRACER):
        if dispatcher is None:
            if backend is None:
                raise ValueError("need a backend or a dispatcher")
            dispatcher = Dispatcher(backend)
        if max_connections < 1 or window < 1:
            raise ValueError("max_connections and window must both "
                             "be >= 1")
        self.dispatcher = dispatcher
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.window = window
        self.idle_timeout = idle_timeout
        self.max_frame_bytes = max_frame_bytes
        self._tracer = tracer
        self._pushback = ErrorResponse(error=ApiError(
            code=ErrorCode.RATE_LIMITED,
            message=f"pipelining window ({window}) exceeded",
            detail={"window": str(window)},
        ))
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._request_seq = 0
        # Touched only on the event-loop thread.
        self._counters: dict[str, int] = {
            "connections_opened": 0, "connections_closed": 0,
            "connections_rejected": 0, "frames_in": 0, "frames_out": 0,
            "requests": 0, "responses": 0, "malformed": 0,
            "backpressure_stalls": 0, "idle_timeouts": 0, "publishes": 0,
        }
        self._gauges: dict[str, float] = {
            "window": float(window),
            "max_connections": float(max_connections),
            "connections_peak": 0.0, "pipeline_depth_peak": 0.0,
        }
        self._request_hist = LatencyHistogram()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and begin accepting; returns the bound (host, port)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting and close live connections."""
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — meaningful after :meth:`start`."""
        return self.host, self.port

    # -- request handling -----------------------------------------------------

    def _hello(self, transport: asyncio.Transport,
               payload: bytes) -> int | None:
        """Answer the hello; the negotiated version, or None to close."""
        try:
            document = json.loads(payload)
            if (not isinstance(document, dict)
                    or document.get("kind") != "hello"):
                raise WireError("expected a hello frame first")
            version = negotiate_version(document.get("api_version"))
        except ValueError as exc:  # bad JSON or UTF-8, or a WireError
            self._counters["malformed"] += 1
            self._send(transport, _hello_refusal(
                exc.error if isinstance(exc, WireError)
                else ApiError(code=ErrorCode.MALFORMED,
                              message=f"invalid hello JSON: {exc}")))
            return None
        self._send(transport, json.dumps({
            "kind": "hello", "ok": True, "api_version": version,
            "max_frame_bytes": self.max_frame_bytes,
            "window": self.window, "server": SERVER_NAME,
        }, sort_keys=True))
        return version

    def _respond(self, payload: bytes, version: int, first: bool) -> str:
        """Decode → dispatch → encode one request frame.

        The elapsed nanoseconds go into the ``request_ns`` histogram.
        """
        seq = self._request_seq
        self._request_seq += 1
        tracer = self._tracer
        started = time.perf_counter_ns()
        if tracer.live:
            with tracer.request(seq):
                if first:
                    tracer.emit("net.accept", server=SERVER_NAME)
                with tracer.span("net.frame.decode"):
                    request, error = self._decode(payload)
                if error is not None:
                    text = encode_response(error, version=API_VERSION)
                else:
                    with tracer.span("net.dispatch", op=request.op):
                        response = self._dispatch(request)
                    with tracer.span("net.frame.encode"):
                        text = encode_response(response, version=version)
        else:
            request, error = self._decode(payload)
            if error is not None:
                text = encode_response(error, version=API_VERSION)
            else:
                text = encode_response(self._dispatch(request),
                                       version=version)
        self._request_hist.record(time.perf_counter_ns() - started)
        return text

    def _decode(self, payload: bytes):
        try:
            request, _version = decode_request(
                payload, max_bytes=self.max_frame_bytes)
        except WireError as exc:
            return None, ErrorResponse(error=exc.error)
        return request, None

    def _dispatch(self, request):
        if type(request) is PublishRequest:
            self._counters["publishes"] += 1
        return self.dispatcher.dispatch(request)

    def _send(self, transport: asyncio.Transport, text: str,
              version: int = API_VERSION) -> None:
        """Write one frame; a response over the frame limit is answered
        with the ``MALFORMED`` error its :class:`FrameError` carries."""
        try:
            frame = encode_frame(text, self.max_frame_bytes)
        except FrameError as exc:
            frame = encode_frame(encode_response(
                ErrorResponse(error=exc.error), version=version),
                self.max_frame_bytes)
        transport.write(frame)
        self._counters["frames_out"] += 1

    # -- observability --------------------------------------------------------

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The wire's counters and gauges, and its ``request_ns``
        histogram, under ``net.*``."""
        for key, value in self._counters.items():
            registry.count(f"net.{key}", value)
        for key, value in self._gauges.items():
            registry.gauge(f"net.{key}", value)
        registry.histogram("net.request_ns").merge(self._request_hist)

    def stats_registry(self) -> MetricsRegistry:
        """One registry: the backend's metrics plus ``net.*``."""
        registry = self.dispatcher.service.stats_registry()
        self.write_metrics(registry)
        return registry

    def net_snapshot(self) -> dict:
        """The wire's counters, gauges and histogram as plain data
        (picklable and JSON-able), with ``drain_waits`` still in it."""
        counters = dict(self._counters)
        # Publishes never overlap a read, so none waits for one.
        counters["drain_waits"] = 0
        return {
            "counters": counters,
            "gauges": dict(self._gauges),
            "histograms": {"request_ns": list(self._request_hist.counts)},
        }


class _Connection(asyncio.Protocol):
    """One client connection, answered one socket read per callback.

    :meth:`data_received` writes the answers to every frame a read
    completed before it returns, so the loop reads the connection
    again only after all of them are written.  Reading pauses while
    the transport's write buffer is over its high-water mark
    (:meth:`pause_writing`), and one timer per connection enforces the
    idle timeout, re-arming itself from the time of the last read.
    """

    def __init__(self, server: RwsTcpServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.decoder = FrameDecoder(server.max_frame_bytes)
        self.version: int | None = None  # set by the hello frame
        self.first = True
        self.loop = asyncio.get_running_loop()
        self.last_read = 0.0
        #: Armed only for accepted connections, never for refused ones.
        self.idle_timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        server = self.server
        if len(server._connections) >= server.max_connections:
            server._counters["connections_rejected"] += 1
            server._send(transport, _hello_refusal(ApiError(
                code=ErrorCode.RATE_LIMITED,
                message=f"connection limit ({server.max_connections}) "
                        f"reached")))
            transport.close()  # flushes the refusal first
            return
        server._connections.add(self)
        server._counters["connections_opened"] += 1
        server._gauges["connections_peak"] = max(
            server._gauges["connections_peak"],
            float(len(server._connections)))
        self.last_read = self.loop.time()
        self.idle_timer = self.loop.call_later(server.idle_timeout,
                                               self._idle_check)

    def data_received(self, data: bytes) -> None:
        """Answer the frames one socket read completed, in order."""
        self.last_read = self.loop.time()
        server = self.server
        transport = self.transport
        counters = server._counters
        framing_error = None
        try:
            self.decoder.feed(data)
        except FrameError as exc:
            framing_error = exc
        frames = self.decoder.frames()
        counters["frames_in"] += len(frames)
        if self.version is None and frames:
            self.version = server._hello(transport, frames.pop(0))
            if self.version is None:
                transport.close()
                return
        version = self.version
        if frames:
            counters["requests"] += len(frames)
            server._gauges["pipeline_depth_peak"] = max(
                server._gauges["pipeline_depth_peak"], float(len(frames)))
        for position, payload in enumerate(frames):
            if position < server.window:
                text = server._respond(payload, version, self.first)
                self.first = False
            else:
                counters["backpressure_stalls"] += 1
                text = encode_response(server._pushback, version=version)
            counters["responses"] += 1
            server._send(transport, text, version)
        if framing_error is not None:
            # Framing is unrecoverable: frames that completed ahead of
            # the poison pill were answered above; answer the error
            # once, after them, and close.
            counters["malformed"] += 1
            server._send(transport, encode_response(
                ErrorResponse(error=framing_error.error),
                version=API_VERSION))
            transport.close()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
        self.last_read = self.loop.time()  # the quiet period restarts

    def connection_lost(self, exc: Exception | None) -> None:
        if self.idle_timer is not None:
            self.idle_timer.cancel()
            self.server._connections.discard(self)
            self.server._counters["connections_closed"] += 1

    def _idle_check(self) -> None:
        """Close the connection once ``idle_timeout`` passes quietly.

        A connection holding a partial frame, or not reading because
        its answers are backed up, is not idle: it gets another full
        period.
        """
        timeout = self.server.idle_timeout
        remaining = self.last_read + timeout - self.loop.time()
        if remaining <= 0:
            if self.decoder.idle and self.transport.is_reading():
                self.server._counters["idle_timeouts"] += 1
                self.transport.close()
                return
            remaining = timeout
        self.idle_timer = self.loop.call_later(remaining, self._idle_check)


class ServerThread:
    """A server on a private event loop in a daemon thread.

    The synchronous-world adapter: the CLI's ``serve --tcp``, the
    workload driver's TCP transport, and the tests all run the asyncio
    server through this.

    Usage::

        harness = ServerThread(RwsTcpServer(service))
        host, port = harness.start()
        ...
        harness.stop()
    """

    def __init__(self, server: RwsTcpServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-net-server")
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> tuple[str, int]:
        """Start the loop and the server; returns the bound address."""
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self.server.start(),
                                                  self._loop)
        address = future.result(timeout=10)
        self._started.set()
        return address

    def stop(self) -> None:
        """Stop the server, the loop, and join the thread."""
        if self._started.is_set():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
