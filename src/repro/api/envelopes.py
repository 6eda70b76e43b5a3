"""Typed request/response envelopes for the RWS service protocol.

Every operation the serving layer performs — pairwise storage-access
queries, bulk query batches, host resolution, list publication,
whole-list snapshot fetches, governance submissions, ticket polling,
and stats scraping — has a request envelope here, a matching response
envelope, and a place in the uniform :class:`ApiError` taxonomy.  The
envelopes are plain-data (dataclasses over strings, ints, bools, and
the serve layer's own value objects), so the wire codec
(:mod:`repro.api.codec`) can round-trip them losslessly and the
dispatcher (:mod:`repro.api.dispatcher`) can route them without
knowing transport details.

Envelopes deliberately use ``slots`` and skip freezing: they sit on the
hot path of every service call, and attribute-slot construction is the
cheapest object Python will give us (see
``benchmarks/test_bench_api_dispatch.py`` for the overhead budget).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.serve.service import QueryVerdict


class ErrorCode(enum.Enum):
    """The uniform error taxonomy every API consumer switches on."""

    #: A queried host has no registrable domain (bare public suffix,
    #: syntactically invalid name, unknown TLD).
    UNRESOLVABLE_HOST = "UNRESOLVABLE_HOST"
    #: A snapshot was requested at a version the snapshot store does
    #: not hold.
    STALE_SNAPSHOT = "STALE_SNAPSHOT"
    #: A poll referenced a ticket this service never issued.
    UNKNOWN_TICKET = "UNKNOWN_TICKET"
    #: The request could not be understood: bad wire JSON, unknown
    #: operation, unsupported protocol version, or invalid field shapes;
    #: or a publish carried a list that puts a site in two sets (the
    #: detail names the ``site`` and the ``primary_a`` and
    #: ``primary_b`` that claim it).
    MALFORMED = "MALFORMED"
    #: The token-bucket middleware shed this request.
    RATE_LIMITED = "RATE_LIMITED"
    #: The service raised an unexpected exception while handling an
    #: otherwise well-formed request.
    INTERNAL = "INTERNAL"


@dataclass(slots=True)
class ApiError:
    """One protocol-level failure.

    Attributes:
        code: Taxonomy bucket (what kind of failure).
        message: Human-readable description.
        detail: Machine-readable context (string keys and values only,
            so the error survives the wire codec byte-identically) —
            e.g. ``{"host_a": "com"}`` for an unresolvable first host.
    """

    code: ErrorCode
    message: str
    detail: dict[str, str] = field(default_factory=dict)


# -- requests -----------------------------------------------------------------


@dataclass(slots=True)
class QueryRequest:
    """One pairwise "may these hosts share storage?" question."""

    op: ClassVar[str] = "query"

    host_a: str
    host_b: str


@dataclass(slots=True)
class BatchQueryRequest:
    """A bulk batch of pairwise queries.

    Attributes:
        pairs: The (host_a, host_b) pairs, answered in order.
        detail: When True the response carries full
            :class:`~repro.serve.service.QueryVerdict` objects; when
            False only the per-pair verdict bits (strictly less
            allocation per decision).
        resolved: When True the pairs are already *sites* — normalised
            (lower-case) eTLD+1 values, or None for hosts the client
            could not resolve — so the service skips its host resolver
            and probes the index directly.  This is Chrome's own shape:
            the renderer resolves origin → site and consults the list
            by site.  Implies the compact (bits-only) response.
            Non-normalised sites simply fail to match, like any
            unknown site.
    """

    op: ClassVar[str] = "batch_query"

    pairs: list[tuple[str | None, str | None]]
    detail: bool = True
    resolved: bool = False


@dataclass(slots=True)
class ResolveRequest:
    """Resolve one raw host to its eTLD+1 site."""

    op: ClassVar[str] = "resolve"

    host: str


@dataclass(slots=True)
class PublishRequest:
    """Publish a list snapshot and recompile the serving index."""

    op: ClassVar[str] = "publish"

    rws_list: RwsList


@dataclass(slots=True)
class SnapshotRequest:
    """Fetch one stored list version whole, as the component updater
    ships it (None: the version the backend serves)."""

    op: ClassVar[str] = "snapshot"

    version: int | None = None


@dataclass(slots=True)
class SubmitRequest:
    """Queue a proposed set for asynchronous validation."""

    op: ClassVar[str] = "submit"

    rws_set: RelatedWebsiteSet


@dataclass(slots=True)
class PollRequest:
    """Ask for the status (and terminal verdict) of a submission."""

    op: ClassVar[str] = "poll"

    ticket: str


@dataclass(slots=True)
class StatsRequest:
    """Scrape the service's counter report."""

    op: ClassVar[str] = "stats"


# -- responses ----------------------------------------------------------------


@dataclass(slots=True)
class QueryResponse:
    """Answer to :class:`QueryRequest` (both hosts resolved)."""

    op: ClassVar[str] = "query"

    verdict: QueryVerdict


@dataclass(slots=True)
class BatchQueryResponse:
    """Answer to :class:`BatchQueryRequest`.

    Attributes:
        related: Per-pair verdict bits, aligned with the request pairs.
            Unresolvable hosts answer False (never related) rather than
            failing the whole batch.
        verdicts: Full verdict objects when the request asked for
            ``detail``; None on the compact path.
    """

    op: ClassVar[str] = "batch_query"

    related: list[bool]
    verdicts: list[QueryVerdict] | None = None


@dataclass(slots=True)
class ResolveResponse:
    """Answer to :class:`ResolveRequest` (host resolved)."""

    op: ClassVar[str] = "resolve"

    host: str
    site: str


@dataclass(slots=True)
class PublishResponse:
    """Answer to :class:`PublishRequest`."""

    op: ClassVar[str] = "publish"

    version: int
    content_hash: str


@dataclass(slots=True)
class SnapshotResponse:
    """Answer to :class:`SnapshotRequest`: the version's list and the
    membership hash a client checks it against."""

    op: ClassVar[str] = "snapshot"

    version: int
    content_hash: str
    rws_list: RwsList


@dataclass(slots=True)
class SubmitResponse:
    """Answer to :class:`SubmitRequest`: the poll ticket."""

    op: ClassVar[str] = "submit"

    ticket: str


@dataclass(slots=True)
class PollResponse:
    """Answer to :class:`PollRequest`.

    Attributes:
        ticket: The polled ticket.
        status: The queue's lifecycle value (``queued``, ``running``,
            ``passed``, ``rejected``, ``error``).
        terminal: True once the status will not change again.
        passed: The validator's verdict once terminal (None before, and
            None when validation itself crashed).
        findings: The validator's finding messages, once terminal.
    """

    op: ClassVar[str] = "poll"

    ticket: str
    status: str
    terminal: bool
    passed: bool | None = None
    findings: list[str] = field(default_factory=list)


@dataclass(slots=True)
class StatsResponse:
    """Answer to :class:`StatsRequest`: the backend's metrics registry
    flattened to ``{name: value}`` (``serve.queries``, ``psl.hits``, ...)."""

    op: ClassVar[str] = "stats"

    report: dict[str, float]


@dataclass(slots=True)
class ErrorResponse:
    """The failure envelope every operation shares.

    Attributes:
        error: The taxonomy-coded failure.
        op: The operation that failed, when known (None when the
            request itself could not be decoded).
    """

    error: ApiError
    op: str | None = None


Request = (QueryRequest | BatchQueryRequest | ResolveRequest
           | PublishRequest | SnapshotRequest | SubmitRequest
           | PollRequest | StatsRequest)
Response = (QueryResponse | BatchQueryResponse | ResolveResponse
            | PublishResponse | SnapshotResponse | SubmitResponse
            | PollResponse | StatsResponse | ErrorResponse)

#: Every request envelope type, keyed by wire operation name.
REQUEST_TYPES: dict[str, type] = {
    cls.op: cls for cls in (
        QueryRequest, BatchQueryRequest, ResolveRequest, PublishRequest,
        SnapshotRequest, SubmitRequest, PollRequest, StatsRequest,
    )
}

#: Every success-response envelope type, keyed by wire operation name.
RESPONSE_TYPES: dict[str, type] = {
    cls.op: cls for cls in (
        QueryResponse, BatchQueryResponse, ResolveResponse,
        PublishResponse, SnapshotResponse, SubmitResponse, PollResponse,
        StatsResponse,
    )
}
