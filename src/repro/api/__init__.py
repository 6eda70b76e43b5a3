"""The versioned request/response protocol layer over the RWS service.

The ecosystem the paper studies is operationally an RPC surface:
Chrome's component updater pulls list snapshots, renderers ask pairwise
storage-access questions, and the governance pipeline accepts set
submissions.  ``repro.api`` is the one typed, versioned boundary all of
that traffic flows through:

* :mod:`repro.api.envelopes` — typed operation envelopes
  (``QueryRequest`` … ``StatsRequest`` and matching responses) with the
  uniform :class:`ApiError` taxonomy;
* :mod:`repro.api.dispatcher` — :class:`Dispatcher`, routing envelopes
  to :class:`~repro.serve.service.RwsService` through a pluggable
  middleware chain (request counting, latency histograms, token-bucket
  rate limiting, short-TTL verdict memoisation);
* :mod:`repro.api.codec` — the versioned JSON wire codec
  (``encode``/``decode`` with ``api_version`` negotiation and
  round-trip guarantees), so envelopes cross process boundaries.

Every consumer — the CLI's ``query``/``serve``/``load``/``api``
subcommands, both workload driver paths, and the governance
simulation — speaks this protocol rather than calling service methods
ad hoc, so future transports (HTTP, shard RPC, replicas) plug in
behind the dispatcher without rewiring consumers.
"""

from repro.api.codec import (
    API_VERSION,
    MAX_WIRE_BYTES,
    MIN_VERSION,
    WireError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    negotiate_version,
)
from repro.api.dispatcher import (
    Dispatcher,
    LatencyRecorder,
    RequestCounter,
    TokenBucketLimiter,
    VerdictCache,
)
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
    REQUEST_TYPES,
    RESPONSE_TYPES,
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

__all__ = [
    "API_VERSION",
    "ApiError",
    "BatchQueryRequest",
    "BatchQueryResponse",
    "Dispatcher",
    "ErrorCode",
    "ErrorResponse",
    "LatencyRecorder",
    "MAX_WIRE_BYTES",
    "MIN_VERSION",
    "PollRequest",
    "PollResponse",
    "PublishRequest",
    "PublishResponse",
    "QueryRequest",
    "QueryResponse",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "Request",
    "RequestCounter",
    "ResolveRequest",
    "ResolveResponse",
    "Response",
    "SnapshotRequest",
    "SnapshotResponse",
    "StatsRequest",
    "StatsResponse",
    "SubmitRequest",
    "SubmitResponse",
    "TokenBucketLimiter",
    "VerdictCache",
    "WireError",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "negotiate_version",
]
