"""Deterministic request tracing on logical clocks.

A :class:`Tracer` produces per-request spans for the serving chain —
dispatcher → router → replica/primary → epoch query → PSL resolve —
with one defining property: **the same seeded run yields an identical
trace digest**, across runs, shard counts, and executors, exactly like
the workload outcome digest.  That requires every digested field to be
derived from logical state, never from wall time or scheduling:

* span identity comes from ``(seed, request index, span sequence,
  stage name)`` — the request index is the workload's *global* user id,
  so a span means the same thing no matter which shard emitted it;
* timestamps are **logical steps**: a per-request counter that
  increments on every span event, giving a deterministic ordering of
  stages within a request (wall-clock nanoseconds are an *opt-in
  annotation* — ``Tracer(wall_clock=True)`` — recorded on exported
  spans but always excluded from span ids and the digest);
* the trace digest is an XOR of per-span sha256 hashes, so it is
  independent of emission order and of how requests were partitioned
  into shards — shard-local tracers merge exactly like outcome
  digests.

Spans are only recorded inside an active *request context*
(:meth:`Tracer.request`); emissions outside one — background publishes,
replica catch-up, warm-up traffic — are dropped, because anything not
keyed to a request index would make the digest partition-dependent.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``live``
flag is False: instrumented hot paths guard on it, so an untraced
query pays one attribute check and nothing else (the ≤2% serve-bench
budget in ``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import sha256


def span_id(seed: int, request_index: int, seq: int, name: str) -> str:
    """The deterministic 16-hex-char span id.

    Derived from (seed, request index, span sequence, stage name)
    only — two runs of the same seeded scenario mint identical ids for
    the same logical span, no matter the shard layout.
    """
    payload = f"{seed}|{request_index}|{seq}|{name}"
    return sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class Span:
    """One recorded span (a stage of one request).

    Attributes:
        name: Stage name (``api.dispatch``, ``serve.query``, ...).
        request_index: The request's global index (workload user id).
        seq: This span's sequence number within the request.
        start_step: Logical step at span start.
        end_step: Logical step at span end (== start for point spans).
        annotations: Sorted ``(key, value)`` string pairs.
        wall_ns: Wall-clock duration — opt-in, export-only, **never**
            part of the span id or the trace digest.
    """

    name: str
    request_index: int
    seq: int
    start_step: int
    end_step: int
    annotations: tuple[tuple[str, str], ...]
    wall_ns: int | None = None

    def id_for(self, seed: int) -> str:
        """This span's deterministic id under a tracer seed."""
        return span_id(seed, self.request_index, self.seq, self.name)

    def digest_payload(self, seed: int) -> bytes:
        """The digested byte form (wall clock excluded)."""
        annotations = ",".join(f"{key}={value}"
                               for key, value in self.annotations)
        return (f"{seed}|{self.request_index}|{self.seq}|{self.name}|"
                f"{self.start_step}|{self.end_step}|{annotations}"
                ).encode("utf-8")

    def to_portable(self) -> dict:
        """A JSON-able plain-data form."""
        record = {
            "name": self.name,
            "request": self.request_index,
            "seq": self.seq,
            "start_step": self.start_step,
            "end_step": self.end_step,
            "annotations": dict(self.annotations),
        }
        if self.wall_ns is not None:
            record["wall_ns"] = self.wall_ns
        return record


def _normalize(annotations: dict) -> tuple[tuple[str, str], ...]:
    """Annotations as sorted string pairs (deterministic rendering)."""
    return tuple(sorted((key, str(value))
                 for key, value in annotations.items()))


class _RequestContext:
    """Per-thread accumulation for one in-flight traced request."""

    __slots__ = ("index", "steps", "seq", "digest", "spans")

    def __init__(self, index: int):
        self.index = index
        self.steps = 0
        self.seq = 0
        self.digest = 0
        self.spans: list[Span] = []


class _RequestScope:
    """Context manager binding a request context to this thread."""

    __slots__ = ("_tracer", "_index", "_previous")

    def __init__(self, tracer: Tracer, index: int):
        self._tracer = tracer
        self._index = index
        self._previous: _RequestContext | None = None

    def __enter__(self) -> _RequestContext:
        local = self._tracer._local
        self._previous = getattr(local, "ctx", None)
        ctx = _RequestContext(self._index)
        local.ctx = ctx
        return ctx

    def __exit__(self, *_exc) -> None:
        local = self._tracer._local
        ctx = local.ctx
        local.ctx = self._previous
        self._tracer._fold(ctx)


class _SpanScope:
    """Context manager for a timed (start/end step) span."""

    __slots__ = ("_tracer", "_ctx", "_name", "_annotations", "_seq",
                 "_start_step", "_wall_started")

    def __init__(self, tracer: Tracer, name: str, annotations: dict):
        self._tracer = tracer
        self._name = name
        self._annotations = annotations
        self._ctx: _RequestContext | None = None

    def __enter__(self) -> _SpanScope:
        ctx = getattr(self._tracer._local, "ctx", None)
        self._ctx = ctx
        if ctx is None:
            return self
        self._seq = ctx.seq
        ctx.seq += 1
        self._start_step = ctx.steps
        ctx.steps += 1
        if self._tracer.wall_clock:
            self._wall_started = time.perf_counter_ns()
        return self

    def __exit__(self, *_exc) -> None:
        ctx = self._ctx
        if ctx is None:
            return
        end_step = ctx.steps
        ctx.steps += 1
        wall_ns = None
        if self._tracer.wall_clock:
            wall_ns = time.perf_counter_ns() - self._wall_started
        self._tracer._record(ctx, Span(
            name=self._name, request_index=ctx.index, seq=self._seq,
            start_step=self._start_step, end_step=end_step,
            annotations=_normalize(self._annotations), wall_ns=wall_ns,
        ))


class NullTracer:
    """The default, do-nothing tracer.

    ``live`` is False, so instrumented code skips span construction
    entirely — the only cost an untraced hot path pays is the guard.
    The full :class:`Tracer` surface is still present (inert), so code
    can hold "a tracer" unconditionally.
    """

    live = False
    wall_clock = False
    seed = 0

    def request(self, request_index: int) -> _NullScope:
        return _NULL_SCOPE

    def span(self, name: str, **annotations) -> _NullScope:
        return _NULL_SCOPE

    def emit(self, name: str, **annotations) -> None:
        return None

    @property
    def span_count(self) -> int:
        return 0

    @property
    def digest(self) -> int:
        return 0

    def digest_hex(self) -> str:
        return f"{0:064x}"

    def summary(self) -> TraceSummary:
        return TraceSummary(seed=0)


class _NullScope:
    """Inert context manager shared by every :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> _NullScope:
        return self

    def __exit__(self, *_exc) -> None:
        return None


_NULL_SCOPE = _NullScope()

#: The process-wide default tracer: attached everywhere, records nothing.
NULL_TRACER = NullTracer()


class Tracer:
    """A live tracer: deterministic spans, logical clocks, XOR digest.

    Args:
        seed: The run seed; part of every span id and digest payload,
            so traces from different seeds never collide.
        keep_spans: How many spans to retain for export/display.  The
            digest and counts cover *every* span; retention only bounds
            memory (a million-user trace keeps its first
            ``keep_spans`` spans but digests all of them).
        wall_clock: Opt-in wall-clock annotation.  Recorded on
            retained spans for export; **never** digested — enabling
            it must not change :meth:`digest_hex`.

    Thread-safe: request contexts are thread-local, and per-request
    results fold into the tracer's totals under a lock at request end,
    so concurrent shard threads can share one tracer (the workload
    driver gives each shard its own and merges summaries instead).
    """

    live = True

    def __init__(self, seed: int = 0, *, keep_spans: int = 256,
                 wall_clock: bool = False):
        self.seed = seed
        self.keep_spans = max(0, keep_spans)
        self.wall_clock = wall_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._digest = 0
        self._span_count = 0
        self._request_count = 0
        self._spans: list[Span] = []

    # -- emission -------------------------------------------------------------

    def request(self, request_index: int) -> _RequestScope:
        """Open a request context; spans emitted inside it are recorded.

        The index must be globally meaningful (the workload driver
        passes the global user id) — it is the logical clock that makes
        span identity partition-independent.
        """
        return _RequestScope(self, request_index)

    def span(self, name: str, **annotations) -> _SpanScope:
        """A timed span: start/end logical steps bracket the body."""
        return _SpanScope(self, name, annotations)

    def emit(self, name: str, **annotations) -> None:
        """A point span at the current logical step.

        Dropped (deliberately) outside a request context — spans not
        keyed to a request index would make the digest depend on how
        work was partitioned.
        """
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            return
        seq = ctx.seq
        ctx.seq += 1
        step = ctx.steps
        ctx.steps += 1
        self._record(ctx, Span(
            name=name, request_index=ctx.index, seq=seq,
            start_step=step, end_step=step,
            annotations=_normalize(annotations),
        ))

    def _record(self, ctx: _RequestContext, span: Span) -> None:
        digest = int.from_bytes(
            sha256(span.digest_payload(self.seed)).digest(), "big")
        ctx.digest ^= digest
        ctx.spans.append(span)

    def _fold(self, ctx: _RequestContext) -> None:
        """Fold a finished request's accumulation into the totals."""
        with self._lock:
            self._digest ^= ctx.digest
            self._span_count += len(ctx.spans)
            self._request_count += 1
            room = self.keep_spans - len(self._spans)
            if room > 0:
                self._spans.extend(ctx.spans[:room])

    # -- results --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Total spans digested (including ones not retained)."""
        with self._lock:
            return self._span_count

    @property
    def request_count(self) -> int:
        """Requests traced to completion."""
        with self._lock:
            return self._request_count

    @property
    def digest(self) -> int:
        """The 256-bit XOR-of-sha256 trace digest."""
        with self._lock:
            return self._digest

    def digest_hex(self) -> str:
        """The trace digest as 64 hex characters."""
        return f"{self.digest:064x}"

    def spans(self) -> list[Span]:
        """The retained span sample (first ``keep_spans`` folded)."""
        with self._lock:
            return list(self._spans)

    def summary(self) -> TraceSummary:
        """This tracer's mergeable, picklable result."""
        with self._lock:
            return TraceSummary(
                seed=self.seed,
                span_count=self._span_count,
                request_count=self._request_count,
                digest=self._digest,
                spans=[span.to_portable() for span in self._spans],
                keep_spans=self.keep_spans,
            )


@dataclass
class TraceSummary:
    """A tracer's mergeable outcome (what travels between shards).

    Merging commutes: digests XOR, counts add, and the retained span
    sample concatenates up to ``keep_spans`` — so a summary merged
    from N shard tracers has the same digest as one tracer that saw
    every request.
    """

    seed: int
    span_count: int = 0
    request_count: int = 0
    digest: int = 0
    spans: list[dict] | None = None
    keep_spans: int = 256

    def __post_init__(self) -> None:
        if self.spans is None:
            self.spans = []

    @property
    def digest_hex(self) -> str:
        """The merged trace digest as 64 hex characters."""
        return f"{self.digest:064x}"

    def merge(self, other: TraceSummary) -> None:
        """Fold another shard's summary into this one."""
        self.digest ^= other.digest
        self.span_count += other.span_count
        self.request_count += other.request_count
        assert self.spans is not None and other.spans is not None
        room = self.keep_spans - len(self.spans)
        if room > 0:
            self.spans.extend(other.spans[:room])

    def to_portable(self) -> dict:
        """A picklable/JSON-able plain-data form."""
        return {
            "seed": self.seed,
            "span_count": self.span_count,
            "request_count": self.request_count,
            "digest": self.digest_hex,
            "spans": list(self.spans or []),
            "keep_spans": self.keep_spans,
        }

    @classmethod
    def from_portable(cls, data: dict) -> TraceSummary:
        """Rebuild from :meth:`to_portable` output."""
        return cls(
            seed=data["seed"],
            span_count=data["span_count"],
            request_count=data["request_count"],
            digest=int(data["digest"], 16),
            spans=list(data["spans"]),
            keep_spans=data.get("keep_spans", 256),
        )
