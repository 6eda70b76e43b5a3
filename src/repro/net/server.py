"""The asyncio TCP server: the API wire codec on a real socket.

:class:`RwsTcpServer` frames :mod:`repro.api.codec` JSON documents
over length-prefixed TCP (:mod:`repro.net.frame`) and routes them
through a :class:`~repro.api.dispatcher.Dispatcher` — so the serving
backend (an :class:`~repro.serve.service.RwsService` or a
:class:`~repro.cluster.Router`, duck-typed exactly as the dispatcher
takes them) is unchanged behind the socket.

Every request is served inline on the event loop: each socket read's
complete frames are decoded, dispatched, encoded and written in
arrival order before the connection reads again.  Dispatch is pure
Python under the GIL, so threads would buy no parallelism; serial
dispatch instead gives the two wire guarantees by construction.

* **hello** — the first frame each way is a hello message negotiating
  ``api_version`` with the codec's ``min(requested, API_VERSION)``
  rule; versions below ``MIN_VERSION`` are refused.  The server's
  hello also advertises its frame ceiling and pipelining window.
* **pipelining, ordered** — a client may send any number of request
  frames without waiting; responses leave in request order because
  requests are answered one at a time, in order.
* **backpressure** — the frames one read completes are in flight
  together; past ``window`` of them, the rest are answered at once,
  in order, with ``RATE_LIMITED`` pushback instead of being served,
  and the kernel's TCP window does the rest via ``drain()``.
* **publish ordering** — a ``publish`` runs alone on the loop, so it
  never overlaps a read, and any request answered after it (on any
  connection) sees the published epoch.  ``net.drain_waits`` stays in
  the snapshot and always reads 0.
* **idle timeout / connection cap** — connections with no partial
  frame buffered close after ``idle_timeout`` quiet seconds; connects
  past ``max_connections`` are refused at hello.

``net.*`` observability: :meth:`RwsTcpServer.net_snapshot` is the
portable counter/gauge/histogram form that
:func:`repro.obs.registry.fold_net_snapshot` folds into the unified
registry, and a live :class:`~repro.obs.trace.Tracer` records
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
from repro.obs.trace import NULL_TRACER
from repro.workload.metrics import LatencyHistogram

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
        self._writers: set[asyncio.StreamWriter] = set()
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
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting and close live connections."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — meaningful after :meth:`start`."""
        return self.host, self.port

    # -- connection handling --------------------------------------------------

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        if len(self._writers) >= self.max_connections:
            self._counters["connections_rejected"] += 1
            self._send(writer, _hello_refusal(ApiError(
                code=ErrorCode.RATE_LIMITED,
                message=f"connection limit ({self.max_connections}) "
                        f"reached")))
            writer.close()  # flushes the refusal first
            return
        self._writers.add(writer)
        self._counters["connections_opened"] += 1
        self._gauges["connections_peak"] = max(
            self._gauges["connections_peak"], float(len(self._writers)))
        try:
            await self._serve(reader, writer)
        except ConnectionError:
            pass
        finally:
            writer.close()  # flushes any answers still buffered
            self._writers.discard(writer)
            self._counters["connections_closed"] += 1

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Answer one connection's frames, one socket read at a time."""
        decoder = FrameDecoder(self.max_frame_bytes)
        version = None  # set by the hello frame
        first = True
        while True:
            try:
                chunk = await asyncio.wait_for(reader.read(65536),
                                               timeout=self.idle_timeout)
            except asyncio.TimeoutError:
                if decoder.idle:
                    self._counters["idle_timeouts"] += 1
                    return
                continue
            if not chunk:
                return  # peer closed
            framing_error = None
            try:
                decoder.feed(chunk)
            except FrameError as exc:
                framing_error = exc
            frames = decoder.frames()
            self._counters["frames_in"] += len(frames)
            if version is None and frames:
                version = self._hello(writer, frames.pop(0))
                if version is None:
                    return
            if frames:
                self._counters["requests"] += len(frames)
                self._gauges["pipeline_depth_peak"] = max(
                    self._gauges["pipeline_depth_peak"], float(len(frames)))
            for position, payload in enumerate(frames):
                if position < self.window:
                    text = self._respond(payload, version, first)
                    first = False
                else:
                    self._counters["backpressure_stalls"] += 1
                    text = encode_response(self._pushback, version=version)
                self._counters["responses"] += 1
                self._send(writer, text, version)
            if framing_error is not None:
                # Framing is unrecoverable: frames that completed ahead
                # of the poison pill were answered above; answer the
                # error once, after them, and close.
                self._counters["malformed"] += 1
                self._send(writer, encode_response(
                    ErrorResponse(error=framing_error.error),
                    version=API_VERSION))
                return
            await writer.drain()

    def _hello(self, writer: asyncio.StreamWriter,
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
            self._send(writer, _hello_refusal(
                exc.error if isinstance(exc, WireError)
                else ApiError(code=ErrorCode.MALFORMED,
                              message=f"invalid hello JSON: {exc}")))
            return None
        self._send(writer, json.dumps({
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
                payload.decode("utf-8", errors="replace"),
                max_bytes=self.max_frame_bytes)
        except WireError as exc:
            return None, ErrorResponse(error=exc.error)
        return request, None

    def _dispatch(self, request):
        if type(request) is PublishRequest:
            self._counters["publishes"] += 1
        return self.dispatcher.dispatch(request)

    def _send(self, writer: asyncio.StreamWriter, text: str,
              version: int = API_VERSION) -> None:
        """Write one frame; a response over the frame limit is answered
        with the ``MALFORMED`` error its :class:`FrameError` carries."""
        try:
            frame = encode_frame(text, self.max_frame_bytes)
        except FrameError as exc:
            frame = encode_frame(encode_response(
                ErrorResponse(error=exc.error), version=version),
                self.max_frame_bytes)
        writer.write(frame)
        self._counters["frames_out"] += 1

    # -- observability --------------------------------------------------------

    def net_snapshot(self) -> dict:
        """The portable ``net.*`` stats form.

        Counters/gauges/histograms, picklable and JSON-able, shaped
        for :func:`repro.obs.registry.fold_net_snapshot` — the same
        travel pattern every other mergeable structure here uses.
        """
        counters = dict(self._counters)
        # Publishes never overlap a read, so none waits for one.
        counters["drain_waits"] = 0
        return {
            "counters": counters,
            "gauges": dict(self._gauges),
            "histograms": {"request_ns": list(self._request_hist.counts)},
        }

    def stats_registry(self):
        """One unified registry: ``net.*`` plus the backend's report."""
        from repro.obs.registry import (  # lazy: avoids import cycles
            MetricsRegistry,
            fold_net_snapshot,
            fold_stats_report,
        )

        registry = MetricsRegistry()
        fold_net_snapshot(registry, self.net_snapshot())
        fold_stats_report(registry, self.dispatcher.service.stats_report())
        return registry


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
