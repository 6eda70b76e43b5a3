"""Tests for the API protocol layer (repro.api)."""

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    API_VERSION,
    ApiError,
    BatchQueryRequest,
    BatchQueryResponse,
    Dispatcher,
    ErrorCode,
    ErrorResponse,
    LatencyRecorder,
    PollRequest,
    PollResponse,
    PublishRequest,
    PublishResponse,
    QueryRequest,
    QueryResponse,
    RequestCounter,
    ResolveRequest,
    ResolveResponse,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
    StatsResponse,
    SubmitRequest,
    SubmitResponse,
    TokenBucketLimiter,
    VerdictCache,
    WireError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    negotiate_version,
)
from repro.api.codec import _decode_pairs
from repro.cluster import Router
from repro.data import build_rws_list
from repro.obs import MetricsRegistry
from repro.psl import PublicSuffixList
from repro.rws import Validator
from repro.rws.model import RelatedWebsiteSet, RwsList, SiteRole
from repro.serve import RwsService, membership_hash
from repro.serve.index import QueryResult
from repro.serve.service import QueryVerdict


def small_list() -> RwsList:
    return RwsList(sets=[
        RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com"],
            service=["example-cdn.com"],
            cctlds={"example.com": ["example.co.uk"]},
            rationales={
                "example-news.com": "Shared branding with example.com.",
                "example-cdn.com": "Asset host for example.com.",
            },
        ),
        RelatedWebsiteSet(
            primary="other.com",
            associated=["other-shop.com"],
            rationales={"other-shop.com": "Affiliated storefront."},
        ),
    ])


def grown_list() -> RwsList:
    grown = small_list()
    grown.sets[0].associated.append("example-blog.com")
    grown.sets[0].rationales["example-blog.com"] = "Blog."
    return grown


@pytest.fixture()
def service():
    instance = RwsService()
    instance.publish(small_list())
    yield instance
    instance.queue.shutdown()


@pytest.fixture()
def dispatcher(service):
    return Dispatcher(service)


class TestDispatcherQueries:
    def test_query_routes_to_service(self, service, dispatcher):
        response = dispatcher.dispatch(
            QueryRequest("www.example.com", "example-news.com"))
        assert type(response) is QueryResponse
        assert response.verdict.related
        assert response.verdict.site_a == "example.com"
        assert service.stats.queries == 1

    def test_query_unresolvable_host_maps_to_error(self, dispatcher):
        response = dispatcher.dispatch(QueryRequest("com", "example.com"))
        assert type(response) is ErrorResponse
        assert response.error.code is ErrorCode.UNRESOLVABLE_HOST
        assert response.error.detail == {"host_a": "com"}
        assert response.op == "query"

    def test_query_both_hosts_unresolvable(self, dispatcher):
        response = dispatcher.dispatch(QueryRequest("com", "net"))
        assert type(response) is ErrorResponse
        assert set(response.error.detail) == {"host_a", "host_b"}

    def test_batch_query_detail_matches_single_queries(self, dispatcher):
        pairs = [("example.com", "example-news.com"),
                 ("example.com", "other.com"),
                 ("com", "example.com")]
        batch = dispatcher.dispatch(BatchQueryRequest(pairs=pairs))
        assert type(batch) is BatchQueryResponse
        assert batch.related == [True, False, False]
        assert batch.verdicts is not None
        # A fresh service answering one-by-one gives identical verdicts.
        reference = RwsService()
        reference.publish(small_list())
        try:
            expected = [reference.query(a, b) for a, b in pairs]
        finally:
            reference.queue.shutdown()
        assert batch.verdicts == expected

    def test_batch_query_compact_carries_bits_only(self, dispatcher):
        batch = dispatcher.dispatch(BatchQueryRequest(
            pairs=[("example.com", "example-cdn.com"), ("a.com", "b.com")],
            detail=False))
        assert batch.related == [True, False]
        assert batch.verdicts is None

    def test_resolved_batch_skips_the_resolver(self, service, dispatcher):
        # Site-level pairs: the client resolved hosts itself (None for
        # failures), so the service resolver must see no traffic.
        batch = dispatcher.dispatch(BatchQueryRequest(
            pairs=[("example.com", "example-news.com"),
                   ("example.com", "example.com"),
                   (None, "example.com"),
                   ("stranger.org", "example.com")],
            detail=False, resolved=True))
        assert batch.related == [True, True, False, False]
        assert batch.verdicts is None
        assert service.stats.resolver_hits == 0
        assert service.stats.resolver_misses == 0
        assert service.stats.queries == 4  # still counted as queries
        assert service.stats.related_hits == 2

    def test_resolved_batch_matches_host_batch_verdicts(self, dispatcher):
        host_pairs = [("www.example.com", "example-news.com"),
                      ("other.com", "example.com"),
                      ("com", "example.com")]
        by_host = dispatcher.dispatch(
            BatchQueryRequest(pairs=host_pairs, detail=False))
        resolver = RwsService()
        resolver.publish(small_list())
        try:
            site_pairs = [(resolver.resolve_host(a), resolver.resolve_host(b))
                          for a, b in host_pairs]
        finally:
            resolver.queue.shutdown()
        by_site = dispatcher.dispatch(BatchQueryRequest(
            pairs=site_pairs, detail=False, resolved=True))
        assert by_site.related == by_host.related

    def test_resolve(self, dispatcher):
        ok = dispatcher.dispatch(ResolveRequest("www.example.co.uk"))
        assert ok == ResolveResponse(host="www.example.co.uk",
                                     site="example.co.uk")
        err = dispatcher.dispatch(ResolveRequest("co.uk"))
        assert type(err) is ErrorResponse
        assert err.error.code is ErrorCode.UNRESOLVABLE_HOST


class TestDispatcherLifecycle:
    def test_publish_delta_round_trip(self, service, dispatcher):
        published = dispatcher.dispatch(PublishRequest(rws_list=grown_list()))
        assert type(published) is PublishResponse
        assert published.version == 2
        served = dispatcher.dispatch(SnapshotRequest())
        assert type(served) is SnapshotResponse
        assert served.version == 2
        assert served.content_hash == published.content_hash
        assert membership_hash(served.rws_list) == published.content_hash
        assert "example-blog.com" in served.rws_list.sets[0].associated
        first = dispatcher.dispatch(SnapshotRequest(version=1))
        assert (first.version, first.rws_list) == (1, small_list())

    def test_delta_unknown_version_is_stale_snapshot(self, dispatcher):
        for version in (0, 99):
            response = dispatcher.dispatch(SnapshotRequest(version=version))
            assert type(response) is ErrorResponse
            assert response.error.code is ErrorCode.STALE_SNAPSHOT
            assert response.error.detail == {"version": str(version)}
        unpublished = RwsService()  # serves no version yet
        try:
            response = Dispatcher(unpublished).dispatch(SnapshotRequest())
            assert response.error.code is ErrorCode.STALE_SNAPSHOT
            assert response.error.detail == {}
        finally:
            unpublished.queue.shutdown()

    def test_submit_poll_round_trip(self, service, dispatcher):
        submitted = dispatcher.dispatch(
            SubmitRequest(rws_set=small_list().sets[1]))
        assert type(submitted) is SubmitResponse
        service.drain()
        polled = dispatcher.dispatch(PollRequest(ticket=submitted.ticket))
        assert type(polled) is PollResponse
        assert polled.terminal
        assert polled.status == "passed"
        assert polled.passed is True

    def test_poll_unknown_ticket(self, dispatcher):
        response = dispatcher.dispatch(PollRequest(ticket="sub-9999"))
        assert type(response) is ErrorResponse
        assert response.error.code is ErrorCode.UNKNOWN_TICKET

    def test_stats(self, dispatcher):
        dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        response = dispatcher.dispatch(StatsRequest())
        assert type(response) is StatsResponse
        assert response.report["serve.queries"] == 1.0
        assert "psl.hits" in response.report

    def test_stats_report_counts_a_crashed_validation(self):
        class CrashingValidator(Validator):
            def validate(self, rws_set):
                raise RuntimeError("validator crashed")

        service = RwsService(validator=CrashingValidator(), workers=1)
        service.publish(small_list())
        try:
            dispatcher = Dispatcher(service)
            dispatcher.dispatch(SubmitRequest(rws_set=small_list().sets[1]))
            service.drain()
            report = dispatcher.dispatch(StatsRequest()).report
            assert report["queue.errored"] == 1.0
            assert report["queue.submitted"] == (
                report["queue.passed"] + report["queue.rejected"]
                + report["queue.errored"])
        finally:
            service.queue.shutdown()

    def test_unknown_request_type_is_malformed(self, dispatcher):
        response = dispatcher.dispatch(object())
        assert type(response) is ErrorResponse
        assert response.error.code is ErrorCode.MALFORMED

    def test_handler_crash_maps_to_internal(self, service):
        service.publish = None  # sabotage: handler will raise TypeError
        dispatcher = Dispatcher(service)
        response = dispatcher.dispatch(PublishRequest(rws_list=small_list()))
        assert type(response) is ErrorResponse
        assert response.error.code is ErrorCode.INTERNAL


class TestMiddleware:
    def test_request_counter_counts_requests_and_errors(self, service):
        counter = RequestCounter()
        dispatcher = Dispatcher(service, middlewares=(counter,))
        dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        dispatcher.dispatch(QueryRequest("com", "other.com"))
        dispatcher.dispatch(StatsRequest())
        assert counter.requests == {"query": 2, "stats": 1}
        assert counter.errors == {"query": 1}
        registry = MetricsRegistry()
        counter.write_metrics(registry)
        assert registry.counter_value("api.errors.query") == 1

    def test_request_counter_sees_internal_errors(self, service):
        # Handler crashes convert to INTERNAL inside the chain, so the
        # counters observe them (an error storm must not look healthy).
        service.publish = None  # sabotage: handler will raise TypeError
        counter = RequestCounter()
        dispatcher = Dispatcher(service, middlewares=(counter,))
        response = dispatcher.dispatch(PublishRequest(rws_list=small_list()))
        assert type(response) is ErrorResponse
        assert response.error.code is ErrorCode.INTERNAL
        assert counter.errors == {"publish": 1}

    def test_latency_recorder_fills_histograms(self, service):
        recorder = LatencyRecorder()
        dispatcher = Dispatcher(service, middlewares=(recorder,))
        for _ in range(8):
            dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        histogram = recorder.registry.histograms["api.latency.query"]
        assert histogram.total == 8
        assert histogram.percentile(0.5) > 0

    def test_token_bucket_sheds_after_burst(self, service):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=2.0, clock=clock)
        dispatcher = Dispatcher(service, middlewares=(limiter,))
        ok = [dispatcher.dispatch(QueryRequest("example.com", "other.com"))
              for _ in range(3)]
        assert [type(r) for r in ok] == [QueryResponse, QueryResponse,
                                         ErrorResponse]
        assert ok[2].error.code is ErrorCode.RATE_LIMITED
        assert float(ok[2].error.detail["retry_after_s"]) > 0
        assert limiter.shed == 1
        # Refill restores service.
        clock.advance(1.0)
        again = dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        assert type(again) is QueryResponse

    def test_token_bucket_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=0, burst=1)

    def test_verdict_cache_skips_repeat_service_calls(self, service):
        clock = FakeClock()
        cache = VerdictCache(ttl=5.0, clock=clock)
        dispatcher = Dispatcher(service, middlewares=(cache,))
        first = dispatcher.dispatch(
            QueryRequest("example.com", "example-news.com"))
        second = dispatcher.dispatch(
            QueryRequest("example.com", "example-news.com"))
        assert second is first  # memoised, not re-answered
        assert service.stats.queries == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_verdict_cache_expires_by_ttl(self, service):
        clock = FakeClock()
        cache = VerdictCache(ttl=1.0, clock=clock)
        dispatcher = Dispatcher(service, middlewares=(cache,))
        dispatcher.dispatch(QueryRequest("example.com", "example-news.com"))
        clock.advance(1.5)
        dispatcher.dispatch(QueryRequest("example.com", "example-news.com"))
        assert service.stats.queries == 2

    def test_verdict_cache_invalidated_by_publish(self, service):
        cache = VerdictCache(ttl=3600.0)
        dispatcher = Dispatcher(service, middlewares=(cache,))
        before = dispatcher.dispatch(
            QueryRequest("example.com", "example-blog.com"))
        assert type(before) is QueryResponse and not before.verdict.related
        dispatcher.dispatch(PublishRequest(rws_list=grown_list()))
        after = dispatcher.dispatch(
            QueryRequest("example.com", "example-blog.com"))
        assert after.verdict.related  # stale verdict did not survive

    def test_verdict_cache_caches_error_responses(self, service):
        cache = VerdictCache(ttl=3600.0)
        dispatcher = Dispatcher(service, middlewares=(cache,))
        first = dispatcher.dispatch(QueryRequest("com", "example.com"))
        second = dispatcher.dispatch(QueryRequest("com", "example.com"))
        assert second is first
        assert service.stats.queries == 1

    def test_verdict_cache_never_pins_transient_errors(self, service):
        # A RATE_LIMITED answer from deeper in the chain must not be
        # served from cache once the bucket refills.
        clock = FakeClock()
        cache = VerdictCache(ttl=3600.0, clock=clock)
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0, clock=clock)
        dispatcher = Dispatcher(service, middlewares=(cache, limiter))
        ok = dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        assert type(ok) is QueryResponse
        cache._cache.clear()  # force the next answer through the limiter
        shed = dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        assert type(shed) is ErrorResponse
        assert shed.error.code is ErrorCode.RATE_LIMITED
        clock.advance(2.0)
        recovered = dispatcher.dispatch(
            QueryRequest("example.com", "other.com"))
        assert type(recovered) is QueryResponse

    def test_verdict_cache_refresh_does_not_evict_live_entries(self, service):
        clock = FakeClock()
        cache = VerdictCache(ttl=1.0, maxsize=2, clock=clock)
        dispatcher = Dispatcher(service, middlewares=(cache,))
        dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        clock.advance(2.0)  # first entry expires
        dispatcher.dispatch(QueryRequest("example.com", "example-news.com"))
        # Refreshing the expired key at capacity must not evict the
        # still-live second entry.
        dispatcher.dispatch(QueryRequest("example.com", "other.com"))
        assert ("example.com", "example-news.com") in cache._cache

    def test_chain_runs_outermost_first(self, service):
        order = []

        def outer(request, call_next):
            order.append("outer")
            return call_next(request)

        def inner(request, call_next):
            order.append("inner")
            return call_next(request)

        dispatcher = Dispatcher(service, middlewares=(outer, inner))
        dispatcher.dispatch(StatsRequest())
        assert order == ["outer", "inner"]


class FakeClock:
    """A deterministic monotonic clock for middleware tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- wire codec ---------------------------------------------------------------

LABEL = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=8)
TLD = st.sampled_from(["com", "net", "org", "de", "fr", "io"])


@st.composite
def domains(draw) -> str:
    return f"{draw(LABEL)}.{draw(TLD)}"


@st.composite
def rws_sets(draw) -> RelatedWebsiteSet:
    primary = draw(domains())
    member_pool = draw(st.lists(domains(), min_size=1, max_size=6,
                                unique=True))
    members = [domain for domain in member_pool if domain != primary]
    if not members:
        members = [f"other-{primary}"]
    split = draw(st.integers(0, len(members)))
    associated = members[:split]
    service = members[split:]
    rationales = {site: f"rationale for {site}"
                  for site in associated + service}
    contact = draw(st.one_of(st.none(),
                             st.just(f"contact@{primary}")))
    return RelatedWebsiteSet(primary=primary, associated=associated,
                             service=service, rationales=rationales,
                             contact=contact)


@st.composite
def rws_lists(draw) -> RwsList:
    sets = draw(st.lists(rws_sets(), min_size=0, max_size=4))
    seen: set[str] = set()
    unique = []
    for rws_set in sets:
        if rws_set.primary not in seen:
            seen.add(rws_set.primary)
            unique.append(rws_set)
    return RwsList(sets=unique,
                   as_of=draw(st.one_of(st.none(), st.just("2024-03-26"))))


@st.composite
def query_verdicts(draw) -> QueryVerdict:
    site_a = draw(st.one_of(st.none(), domains()))
    site_b = draw(st.one_of(st.none(), domains()))
    result = None
    if site_a is not None and site_b is not None:
        roles = st.one_of(st.none(), st.sampled_from(list(SiteRole)))
        result = QueryResult(
            site_a=site_a, site_b=site_b,
            related=draw(st.booleans()),
            set_primary=draw(st.one_of(st.none(), domains())),
            role_a=draw(roles), role_b=draw(roles),
        )
    return QueryVerdict(
        host_a=draw(domains()), host_b=draw(domains()),
        site_a=site_a, site_b=site_b, result=result,
    )


@st.composite
def host_pairs(draw) -> list:
    return draw(st.lists(st.tuples(domains(), domains()), max_size=6))


@st.composite
def api_errors(draw) -> ApiError:
    return ApiError(
        code=draw(st.sampled_from(list(ErrorCode))),
        message=draw(st.text(max_size=40)),
        detail=draw(st.dictionaries(st.sampled_from(["host", "host_a",
                                                     "ticket", "op"]),
                                    st.text(max_size=20), max_size=3)),
    )


@st.composite
def requests(draw):
    kind = draw(st.sampled_from(["query", "batch_query", "resolve",
                                 "publish", "snapshot", "submit", "poll",
                                 "stats"]))
    if kind == "query":
        return QueryRequest(host_a=draw(domains()), host_b=draw(domains()))
    if kind == "batch_query":
        resolved = draw(st.booleans())
        sites = st.one_of(st.none(), domains()) if resolved else domains()
        pairs = draw(st.lists(st.tuples(sites, sites), max_size=6))
        return BatchQueryRequest(pairs=pairs, detail=draw(st.booleans()),
                                 resolved=resolved)
    if kind == "resolve":
        return ResolveRequest(host=draw(domains()))
    if kind == "publish":
        return PublishRequest(rws_list=draw(rws_lists()))
    if kind == "snapshot":
        return SnapshotRequest(version=draw(st.one_of(
            st.none(), st.integers(1, 50))))
    if kind == "submit":
        return SubmitRequest(rws_set=draw(rws_sets()))
    if kind == "poll":
        return PollRequest(ticket=draw(st.text(
            alphabet=string.ascii_lowercase + string.digits + "-",
            min_size=1, max_size=12)))
    return StatsRequest()


@st.composite
def responses(draw):
    kind = draw(st.sampled_from(["query", "batch_query", "resolve",
                                 "publish", "snapshot", "submit", "poll",
                                 "stats", "error"]))
    if kind == "query":
        return QueryResponse(verdict=draw(query_verdicts()))
    if kind == "batch_query":
        verdicts = draw(st.one_of(
            st.none(), st.lists(query_verdicts(), max_size=4)))
        bits = ([v.related for v in verdicts] if verdicts is not None
                else draw(st.lists(st.booleans(), max_size=4)))
        return BatchQueryResponse(related=bits, verdicts=verdicts)
    if kind == "resolve":
        return ResolveResponse(host=draw(domains()), site=draw(domains()))
    if kind == "publish":
        return PublishResponse(version=draw(st.integers(1, 99)),
                               content_hash=draw(st.text(
                                   alphabet="0123456789abcdef",
                                   min_size=64, max_size=64)))
    if kind == "snapshot":
        return SnapshotResponse(
            version=draw(st.integers(1, 99)),
            content_hash=draw(st.text(alphabet="0123456789abcdef",
                                      min_size=64, max_size=64)),
            rws_list=draw(rws_lists()))
    if kind == "submit":
        return SubmitResponse(ticket=draw(st.text(
            alphabet=string.ascii_lowercase + string.digits + "-",
            min_size=1, max_size=12)))
    if kind == "poll":
        terminal = draw(st.booleans())
        return PollResponse(
            ticket="sub-0001",
            status=draw(st.sampled_from(["queued", "running", "passed",
                                         "rejected", "error"])),
            terminal=terminal,
            passed=draw(st.one_of(st.none(), st.booleans()))
            if terminal else None,
            findings=draw(st.lists(st.text(max_size=30), max_size=3))
            if terminal else [],
        )
    if kind == "stats":
        return StatsResponse(report=draw(st.dictionaries(
            st.sampled_from(["serve.queries", "serve.related_hits",
                             "serve.publishes", "serve.query_ns"]),
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            max_size=4)))
    return ErrorResponse(error=draw(api_errors()),
                         op=draw(st.one_of(st.none(), st.just("query"))))


class TestWireCodecRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(request=requests())
    def test_every_request_round_trips(self, request):
        decoded, version = decode_request(encode_request(request))
        assert decoded == request
        assert version == API_VERSION

    @settings(max_examples=120, deadline=None)
    @given(response=responses())
    def test_every_response_round_trips(self, response):
        decoded, version = decode_response(encode_response(response))
        assert decoded == response
        assert version == API_VERSION

    @settings(max_examples=40, deadline=None)
    @given(request=requests(), version=st.integers(1, 5))
    def test_any_supported_version_negotiates(self, request, version):
        wire = encode_request(request, version=version)
        decoded, negotiated = decode_request(wire)
        assert decoded == request
        assert negotiated == min(version, API_VERSION)


def decode_pairs_reference(obj, where, allow_null):
    """The ``isinstance`` loop ``_decode_pairs`` replaced: the reference
    it must agree with on every JSON document, error text included."""
    raw = obj.get("pairs")
    if not isinstance(raw, list):
        raise WireError(f"{where}: field 'pairs' must be a list")
    pairs = []
    for i, entry in enumerate(raw):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(isinstance(h, str)
                           or (allow_null and h is None) for h in entry)):
            expected = ("[site_or_null, site_or_null]" if allow_null
                        else "[host_a, host_b]")
            raise WireError(f"{where}: pairs[{i}] must be a "
                            f"{expected} pair")
        pairs.append((entry[0], entry[1]))
    return pairs


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=6)
#: Pair entries, mostly near the valid shape so that junk lands at
#: every position.
PAIR_ENTRIES = (st.lists(st.none() | st.text(max_size=4), min_size=2,
                         max_size=2)
                | st.lists(st.none() | st.text(max_size=4), max_size=3)
                | JSON_VALUES)


class TestDecodePairsReference:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(PAIR_ENTRIES, max_size=6) | JSON_VALUES,
           allow_null=st.booleans())
    def test_decode_pairs_matches_isinstance_reference(self, pairs,
                                                       allow_null):
        document = json.loads(json.dumps({"pairs": pairs}))
        outcomes = []
        for decode in (_decode_pairs, decode_pairs_reference):
            try:
                outcomes.append(decode(document, "payload[batch_query]",
                                       allow_null))
            except WireError as exc:
                outcomes.append(("error", exc.error.message))
        assert outcomes[0] == outcomes[1]


class TestWireCodecErrors:
    def test_negotiate_version(self):
        assert negotiate_version(None) == API_VERSION
        assert negotiate_version(API_VERSION) == API_VERSION
        assert negotiate_version(API_VERSION + 7) == API_VERSION
        with pytest.raises(WireError):
            negotiate_version(0)
        with pytest.raises(WireError):
            negotiate_version("1")
        with pytest.raises(WireError):
            negotiate_version(True)

    def test_invalid_json_is_malformed(self):
        for bad in ["{nope", b'{"op": "stats", "payload": {}, "x": "\xff"}']:
            for decode in (decode_request, decode_response):
                with pytest.raises(WireError) as excinfo:
                    decode(bad)
                assert excinfo.value.error.code is ErrorCode.MALFORMED

    def test_unknown_op(self):
        with pytest.raises(WireError, match="unknown operation"):
            decode_request(json.dumps({"api_version": 1, "op": "frobnicate",
                                       "payload": {}}))

    def test_bad_payload_shape(self):
        with pytest.raises(WireError, match="host_a"):
            decode_request(json.dumps({"api_version": 1, "op": "query",
                                       "payload": {"host_a": 7}}))

    def test_null_sites_require_resolved_both_ways(self):
        # Symmetric strictness: the encoder refuses what the decoder
        # would reject, so nothing the codec emits fails its own decode.
        with pytest.raises(WireError, match="resolved"):
            encode_request(BatchQueryRequest(pairs=[(None, "b.com")]))
        with pytest.raises(WireError, match="pair"):
            decode_request(json.dumps({
                "api_version": 1, "op": "batch_query",
                "payload": {"pairs": [[None, "b.com"]],
                            "resolved": False},
            }))
        round_tripped, _ = decode_request(encode_request(
            BatchQueryRequest(pairs=[(None, "b.com")], resolved=True)))
        assert round_tripped.pairs == [(None, "b.com")]

    def test_kind_mismatch(self):
        wire = encode_request(StatsRequest())
        with pytest.raises(WireError, match="response envelope"):
            decode_response(wire)

    def test_dispatch_wire_never_raises(self, dispatcher):
        for bad in ["{nope", '{"op": "frobnicate"}',
                    '{"api_version": 0, "op": "stats"}', '[]',
                    b'{"op": "query", "payload": {"host_a": "a\xffb.com",'
                    b' "host_b": "b.com"}}']:
            envelope = json.loads(dispatcher.dispatch_wire(bad))
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "MALFORMED"

    def test_lone_surrogate_site_is_unrelated_on_every_node(self):
        # "\\ud800" decodes to a lone surrogate: no UTF-8 form, so no
        # index (the primary's or a replica's) can list it.
        router = Router(RwsService(), 3, lag=0, policy="rendezvous")
        try:
            router.publish(small_list())
            wire = (r'{"op": "batch_query", "payload": {"pairs": '
                    r'[["a\ud800b.com", "example.com"]], "resolved": true}}')
            envelope = json.loads(Dispatcher(router).dispatch_wire(wire))
            assert envelope["ok"] is True, envelope
            assert envelope["payload"]["related"] == [False]
        finally:
            router.primary.queue.shutdown()

    def test_dispatch_wire_round_trip(self, dispatcher):
        wire = encode_request(QueryRequest("www.example.com", "other.com"))
        envelope = json.loads(dispatcher.dispatch_wire(wire))
        assert envelope["ok"] is True
        assert envelope["op"] == "query"
        assert envelope["payload"]["verdict"]["site_a"] == "example.com"

    def test_dispatch_wire_echoes_negotiated_version(self, dispatcher):
        wire = encode_request(StatsRequest(), version=API_VERSION + 3)
        envelope = json.loads(dispatcher.dispatch_wire(wire))
        assert envelope["api_version"] == API_VERSION


class TestBatchedServicePaths:
    """The satellite fix: query_batch/related_batch vs the old loop."""

    def test_query_batch_matches_per_query_loop(self):
        pairs = [("www.example.com", "example-news.com"),
                 ("example.com", "example.com"),
                 ("com", "example.com"),
                 ("stranger.org", "example.com"),
                 ("other.com", "other-shop.com")] * 3
        batched = RwsService()
        batched.publish(small_list())
        looped = RwsService()
        looped.publish(small_list())
        try:
            expected = [looped.query(a, b) for a, b in pairs]
            actual = batched.query_batch(pairs)
            assert actual == expected
            assert batched.stats.queries == looped.stats.queries
            assert batched.stats.related_hits == looped.stats.related_hits
            assert batched.stats.resolver_errors \
                == looped.stats.resolver_errors
            assert batched.related_batch(pairs) \
                == [v.related for v in expected]
        finally:
            batched.queue.shutdown()
            looped.queue.shutdown()

    def test_batch_resolver_accounting_matches_loop(self):
        pairs = [("example.com", "example-news.com"),
                 ("example.com", "example-news.com"),
                 ("other.com", "example.com")]
        # Each service gets its own cold PSL: on a shared one the
        # second would find every host the first just resolved.
        batched = RwsService(psl=PublicSuffixList())
        batched.publish(small_list())
        looped = RwsService(psl=PublicSuffixList())
        looped.publish(small_list())
        try:
            batched.query_batch(pairs)
            for a, b in pairs:
                looped.query(a, b)
            assert batched.stats.resolver_hits == looped.stats.resolver_hits
            assert batched.stats.resolver_misses \
                == looped.stats.resolver_misses
        finally:
            batched.queue.shutdown()
            looped.queue.shutdown()

    def test_disabled_cache_batch_counts_every_miss(self):
        service = RwsService(psl=PublicSuffixList(cache_size=0))
        service.publish(small_list())
        try:
            bits = service.related_batch(
                [("example.com", "example-news.com")] * 4)
            assert bits == [True] * 4
            assert service.stats.resolver_hits == 0
            assert service.stats.resolver_misses == 8
        finally:
            service.queue.shutdown()

    def test_empty_batch(self, service):
        assert service.query_batch([]) == []
        assert service.related_batch([]) == []
        assert service.stats.queries == 0

    def test_queue_stats_snapshot_is_a_consistent_copy(self, service):
        service.submit(small_list().sets[0])
        service.drain()
        snapshot = service.queue.stats_snapshot()
        assert snapshot is not service.queue.stats
        assert snapshot.submitted == 1
        assert snapshot.passed == 1
        assert snapshot.completed == 1


# -- every batch shape against the point loop ---------------------------------

SEED_LIST = build_rws_list()
SEED_MEMBERS = sorted({site for rws_set in SEED_LIST.sets
                       for site in rws_set.members()})
JUNK_HOSTS = ["com", "co.uk", "bad..host", "stranger.org",
              "unlisted.example.net"]


@st.composite
def dressed_hosts(draw) -> str:
    """A seed-list member (or junk) under a case, subdomain and
    trailing-dot dressing."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(JUNK_HOSTS))
    host = draw(st.sampled_from(["", "www.", "m."])) \
        + draw(st.sampled_from(SEED_MEMBERS))
    host = draw(st.sampled_from([str.lower, str.upper, str.title]))(host)
    return host + "." if draw(st.booleans()) else host


@st.composite
def repeating_batches(draw) -> list:
    """Host pairs drawn from a small pool, so hosts repeat."""
    pool = draw(st.lists(dressed_hosts(), min_size=1, max_size=6))
    host = st.sampled_from(pool)
    return draw(st.lists(st.tuples(host, host), min_size=1, max_size=12))


def _cold_service() -> RwsService:
    service = RwsService(psl=PublicSuffixList())
    service.publish(SEED_LIST)
    return service


def _counted(backend, read):
    """``read()``'s answer and the backend's counter deltas around it:
    (queries, related_hits, resolver_hits, resolver_misses,
    resolver_errors)."""
    def counters():
        stats = backend.stats
        return (stats.queries, stats.related_hits, stats.resolver_hits,
                stats.resolver_misses, stats.resolver_errors)

    before = counters()
    answer = read()
    return answer, tuple(after - was
                         for after, was in zip(counters(), before))


class TestBatchShapeEquivalence:
    """Every batch shape on a service and on a 3-replica lag-0 router
    (both policies) equals a per-pair ``query`` loop on its own cold
    PSL: verdicts, bits, response shapes and counter deltas."""

    @pytest.mark.parametrize("policy", [None, "round-robin", "rendezvous"])
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(pairs=repeating_batches())
    def test_every_shape_matches_the_point_loop(self, policy, pairs):
        reference = _cold_service()
        service = _cold_service()
        backend = (service if policy is None
                   else Router(service, replicas=3, policy=policy))
        try:
            self._check(backend, reference, pairs,
                        routes_by_site=policy == "rendezvous")
        finally:
            reference.queue.shutdown()
            service.queue.shutdown()

    @staticmethod
    def _check(backend, reference, pairs, *, routes_by_site):
        def loop():
            return _counted(reference, lambda: [
                reference.query(a, b) for a, b in pairs])

        verdicts, expected = loop()
        answer, delta = _counted(backend,
                                 lambda: backend.query_batch(pairs))
        assert answer == verdicts
        if routes_by_site:
            # Rendezvous resolves each first host for its routing key
            # before any replica sees the batch, so a cold batch moves
            # misses to hits; their sum and everything else hold.
            assert delta[:2] == expected[:2]
            assert delta[2] + delta[3] == expected[2] + expected[3]
            assert delta[4] == expected[4]
        else:
            assert delta == expected

        # Both sides' caches now hold the same hosts.
        bits = [verdict.related for verdict in verdicts]
        for read in (lambda: backend.query_batch(pairs, detail=False),
                     lambda: backend.related_batch(pairs)):
            _, expected = loop()
            answer, delta = _counted(backend, read)
            assert answer == bits
            assert delta == expected

        sites = [(verdict.site_a, verdict.site_b) for verdict in verdicts]
        _, expected = loop()
        answer, delta = _counted(
            backend, lambda: backend.query_batch(sites, resolved=True))
        assert answer == bits
        assert delta == expected[:2] + (0, 0, 0)  # no host resolved

        dispatcher = Dispatcher(backend)
        for detail in (True, False):
            for resolved in (False, True):
                response = dispatcher.dispatch(BatchQueryRequest(
                    sites if resolved else pairs, detail=detail,
                    resolved=resolved))
                assert type(response) is BatchQueryResponse
                assert response.related == bits
                if detail and not resolved:
                    assert response.verdicts == verdicts
                else:
                    assert response.verdicts is None
