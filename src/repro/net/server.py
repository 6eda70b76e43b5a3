"""The TCP server: the API wire codec on a real socket.

:class:`RwsTcpServer` frames :mod:`repro.api.codec` JSON documents
over length-prefixed TCP (:mod:`repro.net.frame`) and routes them
through a :class:`~repro.api.dispatcher.Dispatcher` — so the serving
backend (an :class:`~repro.serve.service.RwsService` or a
:class:`~repro.cluster.Router`, duck-typed exactly as the dispatcher
takes them) is unchanged behind the socket.

Every request is served inline on one :mod:`selectors` loop over
non-blocking sockets.  When a connection is readable the loop reads
up to :data:`READ_BYTES` from it into the buffer every connection
shares (the frame decoder copies what it keeps), then decodes,
dispatches and encodes the complete frames of that read, in arrival
order, into the connection's outbox, which one ``send()`` writes
before the loop selects again; a request costs that one read and
creates no thread, task or timer.  The loop needs neither
:mod:`asyncio` nor OpenSSL, so a server process maps neither
(``tests/test_import_closure.py``).
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
  What the socket does not take waits in the outbox for
  ``EVENT_WRITE``; while more than :data:`HIGH_WATER` bytes wait, the
  server stops reading the connection (until at most
  :data:`LOW_WATER` remain), so the kernel's TCP window holds back a
  peer that does not read its answers.
* **publish ordering** — a ``publish`` runs alone on the loop, so it
  never overlaps a read, and any request answered after it (on any
  connection) sees the published epoch.  ``drain_waits`` stays in
  :meth:`~RwsTcpServer.net_snapshot` and always reads 0.
* **idle timeout / connection cap** — each connection has one idle
  deadline, ``idle_timeout`` after its last read, and the loop waits
  in ``select`` no longer than the earliest one.  At its deadline a
  connection with no partial frame buffered and reading not paused
  closes; any other gets another full period.  Connects past
  ``max_connections`` are refused at hello.
* **lingering close** — a connection the server closes (refused at
  the cap, a bad hello, a framing error, an idle timeout) half-closes
  after its last byte with ``shutdown(SHUT_WR)``, then reads and
  discards until the peer's EOF or ``idle_timeout``, and only then
  closes.  Closing over unread bytes, such as a request the client
  pipelined behind its hello, would make the kernel reset the
  connection and lose the answer the client had not read yet.  At
  most ``max_connections`` sockets linger at once, apart from the
  cap; past that the oldest closes at once.

A framing error is answered, after the frames that completed ahead
of it, and the connection closes once its outbox is flushed.

``net.*`` observability: :meth:`RwsTcpServer.write_metrics` writes
the wire's counters, gauges and request-latency histogram into a
:class:`~repro.obs.registry.MetricsRegistry`, and a live
:class:`~repro.obs.trace.Tracer` records
``net.accept`` / ``net.frame.decode`` / ``net.dispatch`` /
``net.frame.encode`` spans per request (request indices follow arrival
order, so net traces are deterministic for serial single-connection
traffic; concurrent arrival order is the scheduler's).

:class:`ServerThread` runs a server's loop in a daemon thread for
synchronous callers (the CLI, the workload driver's TCP transport,
tests).
"""

from __future__ import annotations

import json
import selectors
import socket
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

#: Bytes one read takes from a socket, into the one buffer all of a
#: server's connections share (the decoder copies what it keeps): the
#: frames it completes are the ones the ``window`` counts.
READ_BYTES = 256 * 1024

#: Unsent bytes above which a connection is no longer read, and at or
#: below which reading resumes.
HIGH_WATER = 64 * 1024
LOW_WATER = 16 * 1024

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


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
    """A TCP front-end over a dispatcher (or bare backend).

    :meth:`start` binds; :meth:`serve_forever` then answers
    connections in the calling thread until :meth:`stop`.

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
        self._selector: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        #: :meth:`stop` writes one byte here to wake the loop.
        self._wake: socket.socket | None = None
        self._stopping = False
        #: Accepted connections, until closed; refused ones never join.
        self._connections: set[_Connection] = set()
        #: Half-closed connections reading to their peer's EOF, oldest
        #: first.
        self._lingering: dict[_Connection, None] = {}
        self._request_seq = 0
        #: Every connection reads into this; only the loop thread does.
        self._read_view = memoryview(bytearray(READ_BYTES))
        # Touched only on the loop thread.
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

    def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        family, _, _, _, address = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        listener = socket.create_server(address, family=family,
                                        backlog=100)
        listener.setblocking(False)
        woken, self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, _READ, self._accept)
        # The loop only needs to wake; it then sees ``_stopping``.
        self._selector.register(woken, _READ, lambda _mask: None)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        return self.host, self.port

    def serve_forever(self) -> None:
        """Answer connections in this thread until :meth:`stop`, then
        close the listener and every connection."""
        select = self._selector.select
        try:
            while not self._stopping:
                for key, mask in select(self._expire_idle()):
                    key.data(mask)
        finally:
            for connection in list(self._connections):
                connection.drop()
            # The listener, the wake-up socket, and refused and
            # lingering connections.
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._wake.close()

    def stop(self) -> None:
        """Make :meth:`serve_forever` return; callable from any thread."""
        self._stopping = True
        try:
            self._wake.send(b"\0")
        except OSError:  # the loop has already closed it
            pass

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — meaningful after :meth:`start`."""
        return self.host, self.port

    def _accept(self, _mask: int) -> None:
        try:
            sock, _peer = self._listener.accept()
        except OSError:  # the peer gave up already
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(self, sock)
        if len(self._connections) >= self.max_connections:
            self._counters["connections_rejected"] += 1
            self._send(connection, _hello_refusal(ApiError(
                code=ErrorCode.RATE_LIMITED,
                message=f"connection limit ({self.max_connections}) "
                        f"reached")))
            connection.close()  # flushes the refusal first
            return
        self._connections.add(connection)
        self._counters["connections_opened"] += 1
        self._gauges["connections_peak"] = max(
            self._gauges["connections_peak"], float(len(self._connections)))

    def _expire_idle(self) -> float | None:
        """Close the connections quiet past their deadline; the seconds
        until the next deadline (None while no connection is open).

        A connection holding a partial frame, or not reading because
        its answers are backed up, is not idle: it gets another full
        period.  A lingering connection closes at its deadline.
        """
        if not self._connections and not self._lingering:
            return None
        now = time.monotonic()
        earliest = None
        for connection in [*self._connections, *self._lingering]:
            if connection.deadline <= now:
                if connection in self._lingering:
                    connection.drop()
                    continue
                if connection.decoder.idle and connection.reading:
                    self._counters["idle_timeouts"] += 1
                    connection.close()
                    continue
                connection.deadline = now + self.idle_timeout
            if earliest is None or connection.deadline < earliest:
                earliest = connection.deadline
        return None if earliest is None else earliest - now

    # -- request handling -----------------------------------------------------

    def _hello(self, connection: _Connection,
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
            self._send(connection, _hello_refusal(
                exc.error if isinstance(exc, WireError)
                else ApiError(code=ErrorCode.MALFORMED,
                              message=f"invalid hello JSON: {exc}")))
            return None
        self._send(connection, json.dumps({
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

    def _send(self, connection: _Connection, text: str,
              version: int = API_VERSION) -> None:
        """Queue one frame; a response over the frame limit is answered
        with the ``MALFORMED`` error its :class:`FrameError` carries."""
        try:
            frame = encode_frame(text, self.max_frame_bytes)
        except FrameError as exc:
            frame = encode_frame(encode_response(
                ErrorResponse(error=exc.error), version=version),
                self.max_frame_bytes)
        connection.outbox += frame
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


class _Connection:
    """One client connection on the server's selector.

    A read answers every frame it completed into :attr:`outbox` before
    the outbox is flushed, so the loop reads the connection again only
    after all of them are queued.  The connection selects
    ``EVENT_WRITE`` only while the outbox holds bytes the socket did
    not take, and ``EVENT_READ`` unless its outbox is backed up past
    :data:`HIGH_WATER` or it is closing.  Once a closing connection's
    outbox is flushed it lingers: its socket selects ``EVENT_READ``
    for :meth:`_discard` until the peer's EOF.
    """

    def __init__(self, server: RwsTcpServer, sock: socket.socket):
        self.server = server
        self.sock = sock
        self.decoder = FrameDecoder(server.max_frame_bytes)
        self.outbox = bytearray()
        self.version: int | None = None  # set by the hello frame
        self.first = True
        self.reading = True
        self.closing = False
        self.deadline = time.monotonic() + server.idle_timeout
        self.events = _READ
        server._selector.register(sock, _READ, self.on_event)

    def on_event(self, mask: int) -> None:
        try:
            if mask & _READ:
                self._read()
            else:
                self._flush()
        except Exception:  # one connection's fault must not stop the loop
            import traceback

            traceback.print_exc()
            if self.sock.fileno() != -1:
                self.drop()

    def _read(self) -> None:
        """Answer the frames one socket read completed, in order."""
        server = self.server
        view = server._read_view
        try:
            size = self.sock.recv_into(view)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            self.drop()
            return
        if not size:  # the peer closed its end
            self.close()
            return
        self.deadline = time.monotonic() + server.idle_timeout
        counters = server._counters
        framing_error = None
        try:
            self.decoder.feed(view[:size])
        except FrameError as exc:
            framing_error = exc
        frames = self.decoder.frames()
        counters["frames_in"] += len(frames)
        if self.version is None and frames:
            self.version = server._hello(self, frames.pop(0))
            if self.version is None:
                self.close()
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
            server._send(self, text, version)
        if framing_error is not None:
            # Framing is unrecoverable: frames that completed ahead of
            # the poison pill were answered above; answer the error
            # once, after them, and close.
            counters["malformed"] += 1
            server._send(self, encode_response(
                ErrorResponse(error=framing_error.error),
                version=API_VERSION))
            self.close()
            return
        self._flush()

    def _flush(self) -> None:
        """Send what the socket takes; select for the rest."""
        outbox = self.outbox
        if outbox:
            try:
                del outbox[:self.sock.send(outbox)]
            except BlockingIOError:
                pass
            except OSError:  # the peer is gone
                self.drop()
                return
        if self.closing:
            if not outbox:
                self._linger()
                return
        elif self.reading:
            self.reading = len(outbox) <= HIGH_WATER
        elif len(outbox) <= LOW_WATER:
            self.reading = True
            # The quiet period restarts.
            self.deadline = time.monotonic() + self.server.idle_timeout
        events = (_READ if self.reading else 0) | (_WRITE if outbox else 0)
        if events != self.events:
            self.events = events
            self.server._selector.modify(self.sock, events, self.on_event)

    def close(self) -> None:
        """Stop reading; close once the outbox is flushed."""
        self.closing = True
        self.reading = False
        self._flush()

    def _linger(self) -> None:
        """Half-close after the last byte, then read to the peer's EOF
        (or the idle deadline) before closing."""
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:  # the peer is gone
            self.drop()
            return
        server = self.server
        lingering = server._lingering
        if len(lingering) >= server.max_connections:
            # The oldest has had the longest to read its answer; its
            # peer may even have closed, with the EOF still unselected.
            next(iter(lingering)).drop()
        self._forget()
        lingering[self] = None
        self.deadline = time.monotonic() + server.idle_timeout
        server._selector.modify(self.sock, _READ, self._discard)

    def _discard(self, _mask: int) -> None:
        """Read and drop what a lingering peer still sends; close at
        its EOF."""
        if self not in self.server._lingering:
            return  # dropped earlier in this select batch
        try:
            if self.sock.recv_into(self.server._read_view):
                return
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            pass
        self.drop()

    def _forget(self) -> None:
        """Leave the accepted connections, counting the close once."""
        server = self.server
        if self in server._connections:
            server._connections.remove(self)
            server._counters["connections_closed"] += 1

    def drop(self) -> None:
        """Close now, unsent bytes and all."""
        server = self.server
        server._selector.unregister(self.sock)
        self.sock.close()
        server._lingering.pop(self, None)
        self._forget()


class ServerThread:
    """A server's loop in a daemon thread.

    The synchronous-world adapter: the CLI's ``serve --tcp``, the
    workload driver's TCP transport, and the tests all run the server
    through this.

    Usage::

        harness = ServerThread(RwsTcpServer(service))
        host, port = harness.start()
        ...
        harness.stop()
    """

    def __init__(self, server: RwsTcpServer):
        self.server = server
        self._thread = threading.Thread(target=server.serve_forever,
                                        daemon=True,
                                        name="repro-net-server")

    def start(self) -> tuple[str, int]:
        """Bind the server and start its loop; returns the bound
        address."""
        address = self.server.start()
        self._thread.start()
        return address

    def stop(self) -> None:
        """Stop the loop, which closes every socket, and join the
        thread."""
        if self._thread.is_alive():
            self.server.stop()
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
