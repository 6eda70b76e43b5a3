"""Versioned JSON wire codec for the API envelopes.

Encodes every request/response envelope from
:mod:`repro.api.envelopes` to a JSON document and decodes it back to
an *equal* envelope (the round-trip guarantee the property tests in
``tests/test_api.py`` enforce), so envelopes can cross process
boundaries — a CLI pipe today, HTTP or shard RPC tomorrow — without
the transport knowing any operation's shape.

Wire form::

    {"api_version": 1, "kind": "request",  "op": "query",
     "payload": {"host_a": "www.a.com", "host_b": "b.com"}}
    {"api_version": 1, "kind": "response", "op": "query", "ok": true,
     "payload": {"verdict": {...}}}
    {"api_version": 1, "kind": "response", "op": "query", "ok": false,
     "error": {"code": "UNRESOLVABLE_HOST", "message": "...",
               "detail": {"host_a": "com"}}}

Version negotiation follows the forward-compatible convention: a peer
requesting a *newer* version than this codec speaks is served the
newest mutually intelligible one (``min(requested, API_VERSION)``);
versions below :data:`MIN_VERSION` are refused as ``MALFORMED``.  The
negotiated version is echoed on every response.

Every decoding failure raises :class:`WireError` carrying a
``MALFORMED`` :class:`~repro.api.envelopes.ApiError`, which
:meth:`~repro.api.dispatcher.Dispatcher.dispatch_wire` turns back into
an encoded error envelope — bad bytes in, well-formed error JSON out.
"""

from __future__ import annotations

import json
from typing import Any

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
from repro.rws.model import RwsList, SiteRole
from repro.rws.schema import SchemaError, parse_set_object, serialize_set_object
from repro.serve.index import QueryResult
from repro.serve.service import QueryVerdict

#: The newest protocol version this codec speaks.
API_VERSION = 1
#: The oldest version still decodable.
MIN_VERSION = 1

#: Ceiling on one wire document's UTF-8 byte size.  Part of the wire
#: spec: peers may refuse anything larger *before* parsing it, so a
#: hostile or corrupt length never forces an unbounded ``json.loads``.
#: The default clears the full seed-list publish envelope (~24 KB) by
#: two orders of magnitude while still bounding a Chrome-scale list;
#: every decoding entry point takes a ``max_bytes`` override, and the
#: TCP framing layer (:mod:`repro.net.frame`) enforces the same bound
#: on the length prefix itself.
MAX_WIRE_BYTES = 4 * 1024 * 1024


class WireError(ValueError):
    """A wire document could not be decoded into an envelope."""

    def __init__(self, message: str, detail: dict[str, str] | None = None):
        super().__init__(message)
        self.error = ApiError(code=ErrorCode.MALFORMED, message=message,
                              detail=detail or {})


def negotiate_version(requested: Any) -> int:
    """Pick the protocol version to answer a peer with.

    Args:
        requested: The peer's ``api_version`` field (None means "speak
            your newest").

    Returns:
        ``min(requested, API_VERSION)`` — a newer peer downgrades to
        us, an in-range peer gets exactly what it asked for.

    Raises:
        WireError: For non-integer versions or versions below
            :data:`MIN_VERSION` (nothing mutually intelligible).
    """
    if requested is None:
        return API_VERSION
    if isinstance(requested, bool) or not isinstance(requested, int):
        raise WireError(f"api_version must be an integer, "
                        f"got {requested!r}")
    if requested < MIN_VERSION:
        raise WireError(
            f"api_version {requested} unsupported "
            f"(speaking {MIN_VERSION}..{API_VERSION})",
            detail={"min_version": str(MIN_VERSION),
                    "max_version": str(API_VERSION)},
        )
    return min(requested, API_VERSION)


# -- value-object encodings ---------------------------------------------------


def _encode_result(result: QueryResult | None) -> dict[str, Any] | None:
    if result is None:
        return None
    return {
        "site_a": result.site_a,
        "site_b": result.site_b,
        "related": result.related,
        "set_primary": result.set_primary,
        "role_a": result.role_a.value if result.role_a else None,
        "role_b": result.role_b.value if result.role_b else None,
    }


def _decode_role(value: Any, where: str) -> SiteRole | None:
    if value is None:
        return None
    try:
        return SiteRole(value)
    except ValueError:
        raise WireError(f"{where}: unknown site role {value!r}") from None


def _decode_result(data: Any, where: str) -> QueryResult | None:
    if data is None:
        return None
    obj = _require_object(data, where)
    return QueryResult(
        site_a=_require_str(obj, "site_a", where),
        site_b=_require_str(obj, "site_b", where),
        related=_require_bool(obj, "related", where),
        set_primary=_optional_str(obj, "set_primary", where),
        role_a=_decode_role(obj.get("role_a"), where),
        role_b=_decode_role(obj.get("role_b"), where),
    )


def _encode_verdict(verdict: QueryVerdict) -> dict[str, Any]:
    return {
        "host_a": verdict.host_a,
        "host_b": verdict.host_b,
        "site_a": verdict.site_a,
        "site_b": verdict.site_b,
        "result": _encode_result(verdict.result),
    }


def _decode_verdict(data: Any, where: str = "verdict") -> QueryVerdict:
    obj = _require_object(data, where)
    return QueryVerdict(
        host_a=_require_str(obj, "host_a", where),
        host_b=_require_str(obj, "host_b", where),
        site_a=_optional_str(obj, "site_a", where),
        site_b=_optional_str(obj, "site_b", where),
        result=_decode_result(obj.get("result"), f"{where}.result"),
    )


def _encode_list(rws_list: RwsList) -> dict[str, Any]:
    document: dict[str, Any] = {
        "sets": [serialize_set_object(s) for s in rws_list.sets],
        "version": rws_list.version,
    }
    if rws_list.as_of is not None:
        document["as_of"] = rws_list.as_of
    return document


def _decode_list(data: Any, where: str = "list") -> RwsList:
    obj = _require_object(data, where)
    raw_sets = obj.get("sets")
    if not isinstance(raw_sets, list):
        raise WireError(f"{where}: 'sets' must be a list")
    try:
        sets = [parse_set_object(entry) for entry in raw_sets]
    except SchemaError as exc:
        raise WireError(f"{where}: {exc}") from None
    return RwsList(sets=sets,
                   version=_require_str(obj, "version", where),
                   as_of=_optional_str(obj, "as_of", where))


# -- payload field helpers ----------------------------------------------------


def _require_object(data: Any, where: str) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise WireError(f"{where} must be an object, "
                        f"got {type(data).__name__}")
    return data


def _require_str(obj: dict[str, Any], key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise WireError(f"{where}: field {key!r} must be a string, "
                        f"got {value!r}")
    return value


def _optional_str(obj: dict[str, Any], key: str, where: str) -> str | None:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise WireError(f"{where}: field {key!r} must be a string "
                        f"or null, got {value!r}")
    return value


def _require_int(obj: dict[str, Any], key: str, where: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{where}: field {key!r} must be an integer, "
                        f"got {value!r}")
    return value


def _require_bool(obj: dict[str, Any], key: str, where: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise WireError(f"{where}: field {key!r} must be a boolean, "
                        f"got {value!r}")
    return value


def _str_list(obj: dict[str, Any], key: str, where: str) -> list[str]:
    value = obj.get(key, [])
    if (not isinstance(value, list)
            or any(not isinstance(entry, str) for entry in value)):
        raise WireError(f"{where}: field {key!r} must be a list "
                        f"of strings")
    return list(value)


def _decode_pairs(obj: dict[str, Any], where: str,
                  allow_null: bool) -> list[tuple[str | None, str | None]]:
    raw = obj.get("pairs")
    if not isinstance(raw, list):
        raise WireError(f"{where}: field 'pairs' must be a list")
    # JSON arrays and strings decode to exactly list and str, so exact
    # type checks accept what isinstance would, at a fraction of its
    # cost per pair.
    pairs: list[tuple[str | None, str | None]] = []
    append = pairs.append
    for entry in raw:
        if type(entry) is list and len(entry) == 2:
            host_a, host_b = entry
            if ((type(host_a) is str or (allow_null and host_a is None))
                    and (type(host_b) is str
                         or (allow_null and host_b is None))):
                append((host_a, host_b))
                continue
        expected = ("[site_or_null, site_or_null]" if allow_null
                    else "[host_a, host_b]")
        raise WireError(f"{where}: pairs[{len(pairs)}] must be a "
                        f"{expected} pair")
    return pairs


# -- request codec ------------------------------------------------------------


def _encode_request_payload(request: Request) -> dict[str, Any]:
    request_type = type(request)
    if request_type is QueryRequest:
        return {"host_a": request.host_a, "host_b": request.host_b}
    if request_type is BatchQueryRequest:
        if not request.resolved and any(
                host is None for pair in request.pairs for host in pair):
            # Symmetric with decode: null entries are client-side
            # resolution failures, only meaningful for site batches.
            raise WireError("batch_query: null sites require "
                            "resolved=true")
        return {"pairs": [list(pair) for pair in request.pairs],
                "detail": request.detail,
                "resolved": request.resolved}
    if request_type is ResolveRequest:
        return {"host": request.host}
    if request_type is PublishRequest:
        return {"list": _encode_list(request.rws_list)}
    if request_type is SnapshotRequest:
        return {"version": request.version}
    if request_type is SubmitRequest:
        return {"set": serialize_set_object(request.rws_set)}
    if request_type is PollRequest:
        return {"ticket": request.ticket}
    if request_type is StatsRequest:
        return {}
    raise WireError(f"unknown request type {request_type.__name__}")


def _decode_request_payload(op: str, payload: dict[str, Any]) -> Request:
    where = f"payload[{op}]"
    if op == "query":
        return QueryRequest(host_a=_require_str(payload, "host_a", where),
                            host_b=_require_str(payload, "host_b", where))
    if op == "batch_query":
        detail = payload.get("detail", True)
        resolved = payload.get("resolved", False)
        if not isinstance(detail, bool) or not isinstance(resolved, bool):
            raise WireError(f"{where}: fields 'detail' and 'resolved' "
                            f"must be booleans")
        return BatchQueryRequest(
            pairs=_decode_pairs(payload, where, allow_null=resolved),
            detail=detail, resolved=resolved)
    if op == "resolve":
        return ResolveRequest(host=_require_str(payload, "host", where))
    if op == "publish":
        return PublishRequest(rws_list=_decode_list(payload.get("list"),
                                                    f"{where}.list"))
    if op == "snapshot":
        version = payload.get("version")
        if version is not None:
            version = _require_int(payload, "version", where)
        return SnapshotRequest(version=version)
    if op == "submit":
        try:
            rws_set = parse_set_object(
                _require_object(payload.get("set"), f"{where}.set"))
        except SchemaError as exc:
            raise WireError(f"{where}.set: {exc}") from None
        return SubmitRequest(rws_set=rws_set)
    if op == "poll":
        return PollRequest(ticket=_require_str(payload, "ticket", where))
    if op == "stats":
        return StatsRequest()
    raise WireError(f"unknown operation {op!r}",
                    detail={"op": op})


def encode_request(request: Request, version: int = API_VERSION) -> str:
    """Render a request envelope to wire JSON."""
    return json.dumps({
        "api_version": version,
        "kind": "request",
        "op": request.op,
        "payload": _encode_request_payload(request),
    }, sort_keys=True)


def decode_request(text: str | bytes, *,
                   max_bytes: int | None = MAX_WIRE_BYTES
                   ) -> tuple[Request, int]:
    """Parse wire JSON back to a request envelope.

    Args:
        text: The wire document, as text or as UTF-8 bytes.
        max_bytes: Size ceiling in UTF-8 bytes (None disables the
            check).  Oversized documents are refused as ``MALFORMED``
            before any JSON parsing happens.

    Returns:
        The envelope and the negotiated protocol version (echo it on
        the response).

    Raises:
        WireError: On oversized documents, invalid UTF-8, JSON syntax
            errors (which includes truncated payloads), unknown
            operations, unsupported versions, or invalid payload
            shapes.
    """
    envelope = _decode_envelope(text, expected_kind="request",
                                max_bytes=max_bytes)
    version = negotiate_version(envelope.get("api_version"))
    op = envelope.get("op")
    if not isinstance(op, str):
        raise WireError(f"envelope field 'op' must be a string, got {op!r}")
    payload = _require_object(envelope.get("payload", {}), "payload")
    return _decode_request_payload(op, payload), version


# -- response codec -----------------------------------------------------------


def _encode_response_payload(response: Response) -> dict[str, Any]:
    response_type = type(response)
    if response_type is QueryResponse:
        return {"verdict": _encode_verdict(response.verdict)}
    if response_type is BatchQueryResponse:
        return {
            "related": list(response.related),
            "verdicts": (None if response.verdicts is None
                         else [_encode_verdict(v)
                               for v in response.verdicts]),
        }
    if response_type is ResolveResponse:
        return {"host": response.host, "site": response.site}
    if response_type is PublishResponse:
        return {"version": response.version,
                "content_hash": response.content_hash}
    if response_type is SnapshotResponse:
        return {"version": response.version,
                "content_hash": response.content_hash,
                "list": _encode_list(response.rws_list)}
    if response_type is SubmitResponse:
        return {"ticket": response.ticket}
    if response_type is PollResponse:
        return {"ticket": response.ticket, "status": response.status,
                "terminal": response.terminal, "passed": response.passed,
                "findings": list(response.findings)}
    if response_type is StatsResponse:
        return {"report": dict(response.report)}
    raise WireError(f"unknown response type {response_type.__name__}")


def _decode_response_payload(op: str, payload: dict[str, Any]) -> Response:
    where = f"payload[{op}]"
    if op == "query":
        return QueryResponse(verdict=_decode_verdict(payload.get("verdict"),
                                                     f"{where}.verdict"))
    if op == "batch_query":
        related = payload.get("related")
        if (not isinstance(related, list)
                or any(not isinstance(bit, bool) for bit in related)):
            raise WireError(f"{where}: field 'related' must be a list "
                            f"of booleans")
        raw_verdicts = payload.get("verdicts")
        verdicts = None
        if raw_verdicts is not None:
            if not isinstance(raw_verdicts, list):
                raise WireError(f"{where}: field 'verdicts' must be a "
                                f"list or null")
            verdicts = [_decode_verdict(entry, f"{where}.verdicts[{i}]")
                        for i, entry in enumerate(raw_verdicts)]
        return BatchQueryResponse(related=list(related), verdicts=verdicts)
    if op == "resolve":
        return ResolveResponse(host=_require_str(payload, "host", where),
                               site=_require_str(payload, "site", where))
    if op == "publish":
        return PublishResponse(
            version=_require_int(payload, "version", where),
            content_hash=_require_str(payload, "content_hash", where))
    if op == "snapshot":
        return SnapshotResponse(
            version=_require_int(payload, "version", where),
            content_hash=_require_str(payload, "content_hash", where),
            rws_list=_decode_list(payload.get("list"), f"{where}.list"))
    if op == "submit":
        return SubmitResponse(ticket=_require_str(payload, "ticket", where))
    if op == "poll":
        passed = payload.get("passed")
        if passed is not None and not isinstance(passed, bool):
            raise WireError(f"{where}: field 'passed' must be a boolean "
                            f"or null")
        return PollResponse(
            ticket=_require_str(payload, "ticket", where),
            status=_require_str(payload, "status", where),
            terminal=_require_bool(payload, "terminal", where),
            passed=passed,
            findings=_str_list(payload, "findings", where))
    if op == "stats":
        report = _require_object(payload.get("report"), f"{where}.report")
        decoded: dict[str, float] = {}
        for key, value in report.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise WireError(f"{where}.report: counter {key!r} must "
                                f"be a number")
            decoded[key] = float(value)
        return StatsResponse(report=decoded)
    raise WireError(f"unknown operation {op!r}", detail={"op": op})


def _decode_error(data: Any) -> ApiError:
    obj = _require_object(data, "error")
    raw_code = obj.get("code")
    try:
        code = ErrorCode(raw_code)
    except ValueError:
        raise WireError(f"unknown error code {raw_code!r}") from None
    detail = _require_object(obj.get("detail", {}), "error.detail")
    for key, value in detail.items():
        if not isinstance(value, str):
            raise WireError(f"error.detail[{key!r}] must be a string")
    return ApiError(code=code,
                    message=_require_str(obj, "message", "error"),
                    detail=dict(detail))


def encode_response(response: Response, version: int = API_VERSION) -> str:
    """Render a response envelope to wire JSON."""
    if type(response) is ErrorResponse:
        return json.dumps({
            "api_version": version,
            "kind": "response",
            "op": response.op or "error",
            "ok": False,
            "error": {
                "code": response.error.code.value,
                "message": response.error.message,
                "detail": dict(response.error.detail),
            },
        }, sort_keys=True)
    return json.dumps({
        "api_version": version,
        "kind": "response",
        "op": response.op,
        "ok": True,
        "payload": _encode_response_payload(response),
    }, sort_keys=True)


def decode_response(text: str | bytes, *,
                    max_bytes: int | None = MAX_WIRE_BYTES
                    ) -> tuple[Response, int]:
    """Parse wire JSON back to a response envelope (plus its version).

    Raises:
        WireError: On oversized documents (past ``max_bytes``),
            invalid UTF-8, JSON syntax errors (truncated payloads
            included), unknown operations or error codes, unsupported
            versions, or invalid payload shapes.
    """
    envelope = _decode_envelope(text, expected_kind="response",
                                max_bytes=max_bytes)
    version = negotiate_version(envelope.get("api_version"))
    op = envelope.get("op")
    if not isinstance(op, str):
        raise WireError(f"envelope field 'op' must be a string, got {op!r}")
    ok = envelope.get("ok")
    if not isinstance(ok, bool):
        raise WireError("envelope field 'ok' must be a boolean")
    if not ok:
        return ErrorResponse(error=_decode_error(envelope.get("error")),
                             op=None if op == "error" else op), version
    payload = _require_object(envelope.get("payload", {}), "payload")
    return _decode_response_payload(op, payload), version


def _decode_envelope(text: str | bytes, expected_kind: str,
                     max_bytes: int | None = MAX_WIRE_BYTES
                     ) -> dict[str, Any]:
    if max_bytes is not None:
        size = len(text if isinstance(text, bytes)
                   else text.encode("utf-8"))
        if size > max_bytes:
            raise WireError(
                f"wire document of {size} bytes exceeds the "
                f"{max_bytes}-byte frame limit",
                detail={"bytes": str(size), "max_bytes": str(max_bytes)},
            )
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError(f"invalid wire JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise WireError(f"wire document is not valid UTF-8: {exc}") from None
    envelope = _require_object(envelope, "wire envelope")
    kind = envelope.get("kind", expected_kind)
    if kind != expected_kind:
        raise WireError(f"expected a {expected_kind} envelope, "
                        f"got kind {kind!r}")
    return envelope
