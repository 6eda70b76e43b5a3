"""The dispatcher: envelopes in, envelopes out, middleware in between.

:class:`Dispatcher` is the one routing point between API consumers and
the serving backend — a single
:class:`~repro.serve.service.RwsService`, or a
:class:`~repro.cluster.Router` over a replica set (the two expose the
same serving surface, so replication is invisible at this layer beyond
the ``cluster.*`` metrics in stats reports).  Every
consumer — the CLI's ``query``/``serve``/``load``/``cluster``/``api``
subcommands, both workload driver paths, and the governance
simulation — sends typed envelopes from :mod:`repro.api.envelopes`
through :meth:`Dispatcher.dispatch`; nothing outside the serve package
should call service methods ad hoc anymore.

Routing is table-driven and composed once at construction: each request
type maps to a handler already wrapped in the middleware chain, so a
dispatch costs one dict probe plus the chain — the overhead budget over
a direct ``RwsService.query`` call is ≤20%
(``benchmarks/test_bench_api_dispatch.py``; the epoch refactor made the
direct call itself faster, so the same absolute dispatch cost is a
larger ratio than the pre-epoch 15%).

A middleware is any ``callable(request, call_next) -> response``; the
chain runs outermost-first.  Four ship here:

* :class:`RequestCounter` — per-operation request/error counts,
  written as ``api.requests.<op>`` / ``api.errors.<op>``;
* :class:`LatencyRecorder` — dispatch latency into its own
  :class:`~repro.obs.registry.MetricsRegistry` as mergeable
  ``api.latency.<op>`` power-of-two-bucket histograms;
* :class:`TokenBucketLimiter` — load shedding with ``RATE_LIMITED``
  errors;
* :class:`VerdictCache` — short-TTL memoisation of single-pair query
  responses, invalidated by publishes flowing through the same chain.

Domain failures map onto the :class:`~repro.api.envelopes.ApiError`
taxonomy (``UNRESOLVABLE_HOST``, ``STALE_SNAPSHOT``,
``UNKNOWN_TICKET``, ``MALFORMED``); unexpected exceptions become
``INTERNAL`` errors instead of tearing down the transport.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterable

from repro.api.envelopes import (
    ApiError,
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorCode,
    ErrorResponse,
    PollRequest,
    PollResponse,
    PublishRequest,
    PublishResponse,
    QueryRequest,
    QueryResponse,
    Request,
    ResolveRequest,
    ResolveResponse,
    Response,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
    StatsResponse,
    SubmitRequest,
    SubmitResponse,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.serve.epochfmt import OverlappingSetsError
from repro.serve.service import BATCH_SHAPES, RwsService
from repro.serve.snapshot import StaleSnapshotError

if TYPE_CHECKING:  # type-only: any backend with the serving surface works
    from repro.cluster.router import Router

Handler = Callable[[Request], Response]
Middleware = Callable[[Request, Handler], Response]


class RequestCounter:
    """Middleware: per-operation request and error counts.

    Counts are plain dict bumps without a lock — under concurrent
    dispatch they are approximate (increments can race), which is the
    usual observability trade; they are exact for single-threaded
    consumers like the CLI and the per-shard workload dispatchers.
    """

    def __init__(self) -> None:
        self.requests: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    def __call__(self, request: Request, call_next: Handler) -> Response:
        op = request.op
        self.requests[op] = self.requests.get(op, 0) + 1
        response = call_next(request)
        if type(response) is ErrorResponse:
            self.errors[op] = self.errors.get(op, 0) + 1
        return response

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The counts as ``api.requests.<op>`` and ``api.errors.<op>``."""
        for op, count in self.requests.items():
            registry.count(f"api.requests.{op}", count)
        for op, count in self.errors.items():
            registry.count(f"api.errors.{op}", count)


class LatencyRecorder:
    """Middleware: dispatch latency into pow2-bucket histograms.

    Records every dispatch under ``api.latency.<op>`` in its own
    :attr:`registry`, which a report merges with the rest of the
    stack's metrics.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def __call__(self, request: Request, call_next: Handler) -> Response:
        started = time.perf_counter_ns()
        response = call_next(request)
        self.registry.histogram("api.latency." + request.op).record(
            time.perf_counter_ns() - started)
        return response


class TokenBucketLimiter:
    """Middleware: classic token-bucket load shedding.

    Each dispatch (batches included — admission is per envelope, not
    per pair) spends one token; tokens refill at ``rate`` per second up
    to ``burst``.  An empty bucket answers ``RATE_LIMITED`` with a
    ``retry_after_s`` hint instead of calling the service.

    Args:
        rate: Sustained requests per second.
        burst: Bucket capacity (momentary excursion above ``rate``).
        clock: Monotonic-seconds source (injectable for tests).
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be > 0, "
                             f"got rate={rate}, burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.shed = 0
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def __call__(self, request: Request, call_next: Handler) -> Response:
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens < 1.0:
                self.shed += 1
                wait = (1.0 - self._tokens) / self.rate
                return ErrorResponse(op=request.op, error=ApiError(
                    code=ErrorCode.RATE_LIMITED,
                    message=f"rate limit exceeded for {request.op!r}",
                    detail={"retry_after_s": f"{wait:.3f}"},
                ))
            self._tokens -= 1.0
        return call_next(request)


class VerdictCache:
    """Middleware: short-TTL memoisation of single-pair query verdicts.

    Caches :class:`QueryRequest` responses (successes *and*
    unresolvable-host errors — both are deterministic for a snapshot)
    keyed by the raw host pair; transient failures from deeper in the
    chain (``RATE_LIMITED``, ``INTERNAL``) are never stored.  A
    :class:`PublishRequest` flowing through the same chain clears the
    cache, and the TTL bounds staleness against publishes that bypass
    this dispatcher.  Other operations pass straight through.

    FIFO eviction at ``maxsize`` keeps the hit path to one dict probe.
    """

    def __init__(self, ttl: float = 1.0, maxsize: int = 4096,
                 clock: Callable[[], float] = time.monotonic):
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.ttl = float(ttl)
        self.maxsize = max(0, maxsize)
        self.hits = 0
        self.misses = 0
        self._clock = clock
        self._cache: dict[tuple[str, str], tuple[float, Response]] = {}
        self._lock = threading.Lock()

    def __call__(self, request: Request, call_next: Handler) -> Response:
        request_type = type(request)
        if request_type is PublishRequest:
            response = call_next(request)
            with self._lock:
                self._cache.clear()
            return response
        if request_type is not QueryRequest or self.maxsize == 0:
            return call_next(request)
        key = (request.host_a, request.host_b)
        now = self._clock()
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None and now - entry[0] <= self.ttl:
                self.hits += 1
                return entry[1]
        response = call_next(request)
        cacheable = (type(response) is not ErrorResponse
                     or response.error.code is ErrorCode.UNRESOLVABLE_HOST)
        with self._lock:
            self.misses += 1
            if cacheable:
                if key not in self._cache \
                        and len(self._cache) >= self.maxsize:
                    self._cache.pop(next(iter(self._cache)))
                self._cache[key] = (now, response)
        return response


class Dispatcher:
    """Routes request envelopes to a serving backend.

    Args:
        service: The backend every handler calls into — a single
            :class:`RwsService` or a :class:`~repro.cluster.Router`
            front-ending a replica set; the two expose the same
            serving surface.
        middlewares: The chain, outermost first.  Empty by default —
            the bare dispatcher is the ≤20%-overhead hot path; consumers
            opt into counting/latency/limiting/memoisation per use.
        tracer: A :class:`~repro.obs.trace.Tracer` wrapping each
            dispatch in an ``api.dispatch`` span (the trace's outermost
            stage).  Defaults to the no-op tracer, whose hot-path cost
            is one attribute check.
    """

    def __init__(self, service: RwsService | Router,
                 middlewares: Iterable[Middleware] = (),
                 tracer=NULL_TRACER):
        self.service = service
        self.middlewares: tuple[Middleware, ...] = tuple(middlewares)
        self._tracer = tracer
        handlers: dict[type, Handler] = {
            QueryRequest: self._make_query_handler(service),
            BatchQueryRequest: self._make_batch_handler(service),
            ResolveRequest: self._handle_resolve,
            PublishRequest: self._handle_publish,
            SnapshotRequest: self._handle_snapshot,
            SubmitRequest: self._handle_submit,
            PollRequest: self._handle_poll,
            StatsRequest: self._handle_stats,
        }
        # Compose each route once: dispatch-time cost is one dict probe
        # plus the pre-built chain, never per-call wrapping.  With
        # middleware installed, handler exceptions are converted to
        # INTERNAL errors *inside* the chain so counters and latency
        # recorders observe them; the bare dispatcher skips that frame
        # (dispatch()'s own catch-all covers it) to stay on the
        # overhead budget.
        self._routes: dict[type, Handler] = {}
        for request_type, handler in handlers.items():
            chain = self._guard(handler) if self.middlewares else handler
            for middleware in reversed(self.middlewares):
                chain = self._wrap(middleware, chain)
            self._routes[request_type] = chain
        self._route_for = self._routes.get

    @staticmethod
    def _wrap(middleware: Middleware, call_next: Handler) -> Handler:
        def step(request: Request) -> Response:
            return middleware(request, call_next)
        return step

    @staticmethod
    def _guard(handler: Handler) -> Handler:
        def step(request: Request) -> Response:
            try:
                return handler(request)
            except Exception as exc:  # noqa: BLE001 — protocol boundary
                return ErrorResponse(op=request.op, error=ApiError(
                    code=ErrorCode.INTERNAL,
                    message=f"{type(exc).__name__}: {exc}",
                ))
        return step

    def dispatch(self, request: Request) -> Response:
        """Route one envelope through the middleware chain.

        Unexpected exceptions — from handlers or middleware alike —
        come back as ``INTERNAL`` error envelopes rather than tearing
        down the caller (this is the protocol boundary).  Handler
        failures surface inside the chain (so middleware counts them);
        this catch-all covers the middleware itself.
        """
        route = self._route_for(request.__class__)
        if route is None:
            return ErrorResponse(error=ApiError(
                code=ErrorCode.MALFORMED,
                message=f"unknown request type "
                        f"{type(request).__name__}",
            ))
        try:
            tracer = self._tracer
            if tracer.live:
                # The outermost stage of a request trace; the routed
                # handler's serve/cluster/psl spans nest inside it.
                with tracer.span("api.dispatch", op=request.op):
                    return route(request)
            return route(request)
        except Exception as exc:  # noqa: BLE001 — protocol boundary
            return ErrorResponse(op=request.op, error=ApiError(
                code=ErrorCode.INTERNAL,
                message=f"{type(exc).__name__}: {exc}",
            ))

    def dispatch_wire(self, text: str | bytes, *,
                      max_bytes: int | None = None) -> str:
        """Decode a wire request, dispatch it, encode the response.

        Never raises for bad input: undecodable requests — invalid
        UTF-8, bad JSON, truncated payloads, or documents larger than
        ``max_bytes`` (defaulting to the wire spec's
        :data:`~repro.api.codec.MAX_WIRE_BYTES`) — come back as
        encoded ``MALFORMED`` error envelopes, so a transport can pipe
        bytes through without its own error handling.
        """
        from repro.api.codec import (  # local: codec imports envelopes only
            API_VERSION,
            MAX_WIRE_BYTES,
            WireError,
            decode_request,
            encode_response,
        )
        if max_bytes is None:
            max_bytes = MAX_WIRE_BYTES
        try:
            request, version = decode_request(text, max_bytes=max_bytes)
        except WireError as exc:
            return encode_response(ErrorResponse(error=exc.error),
                                   version=API_VERSION)
        return encode_response(self.dispatch(request), version=version)

    # -- handlers -------------------------------------------------------------
    #
    # The two read handlers are built as closures over the backend's two
    # reads, pre-bound: they run once per decision under load, and the
    # saved `self.service.<method>` attribute walks are measurable at
    # that rate (see the overhead budget in the module docstring).

    @staticmethod
    def _make_query_handler(service: RwsService | Router) -> Handler:
        service_query = service.query

        def handle_query(request: QueryRequest) -> Response:
            verdict = service_query(request.host_a, request.host_b)
            if verdict.result is not None:
                return QueryResponse(verdict)
            # result is None exactly when a host failed to resolve.
            detail: dict[str, str] = {}
            if verdict.site_a is None:
                detail["host_a"] = request.host_a
            if verdict.site_b is None:
                detail["host_b"] = request.host_b
            return ErrorResponse(op=request.op, error=ApiError(
                code=ErrorCode.UNRESOLVABLE_HOST,
                message="no registrable domain for "
                        + ", ".join(sorted(detail.values())),
                detail=detail,
            ))

        return handle_query

    @staticmethod
    def _make_batch_handler(service: RwsService | Router) -> Handler:
        query_batch = service.query_batch

        def handle_batch_query(request: BatchQueryRequest) -> Response:
            detail = request.detail
            resolved = request.resolved
            answers = query_batch(request.pairs, detail=detail,
                                  resolved=resolved)
            if BATCH_SHAPES[detail, resolved] == "query_batch":
                return BatchQueryResponse(
                    related=[verdict.related for verdict in answers],
                    verdicts=answers,
                )
            return BatchQueryResponse(related=answers)

        return handle_batch_query

    def _handle_resolve(self, request: ResolveRequest) -> Response:
        site = self.service.resolve_host(request.host)
        if site is None:
            return ErrorResponse(op=request.op, error=ApiError(
                code=ErrorCode.UNRESOLVABLE_HOST,
                message=f"no registrable domain for {request.host!r}",
                detail={"host": request.host},
            ))
        return ResolveResponse(host=request.host, site=site)

    def _handle_publish(self, request: PublishRequest) -> Response:
        try:
            snapshot = self.service.publish(request.rws_list)
        except OverlappingSetsError as exc:
            primary_a, primary_b = exc.primaries
            return ErrorResponse(op=request.op, error=ApiError(
                code=ErrorCode.MALFORMED,
                message=str(exc),
                detail={"site": exc.site, "primary_a": primary_a,
                        "primary_b": primary_b},
            ))
        return PublishResponse(version=snapshot.version,
                               content_hash=snapshot.content_hash)

    def _handle_snapshot(self, request: SnapshotRequest) -> Response:
        try:
            snapshot = self.service.snapshot_at(request.version)
        except StaleSnapshotError as exc:
            version = request.version
            return ErrorResponse(op=request.op, error=ApiError(
                code=ErrorCode.STALE_SNAPSHOT,
                message=str(exc),
                detail={} if version is None else {"version": str(version)},
            ))
        return SnapshotResponse(version=snapshot.version,
                                content_hash=snapshot.content_hash,
                                rws_list=snapshot.rws_list)

    def _handle_submit(self, request: SubmitRequest) -> Response:
        return SubmitResponse(ticket=self.service.submit(request.rws_set))

    def _handle_poll(self, request: PollRequest) -> Response:
        try:
            status = self.service.poll(request.ticket)
        except KeyError:
            return ErrorResponse(op=request.op, error=ApiError(
                code=ErrorCode.UNKNOWN_TICKET,
                message=f"unknown ticket {request.ticket!r}",
                detail={"ticket": request.ticket},
            ))
        passed: bool | None = None
        findings: list[str] = []
        if status.terminal:
            report = self.service.queue.report(request.ticket)
            if report is not None:
                passed = report.passed
                findings = [finding.message for finding in report.findings]
        return PollResponse(ticket=request.ticket, status=status.value,
                            terminal=status.terminal, passed=passed,
                            findings=findings)

    def _handle_stats(self, _request: StatsRequest) -> Response:
        return StatsResponse(report=self.service.stats_report())
