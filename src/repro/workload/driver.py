"""Workload drivers: a serial reference path and a sharded executor.

Two execution paths drive generated sessions through the serving
layer's protocol boundary (a per-shard
:class:`~repro.api.dispatcher.Dispatcher` over a private
:class:`~repro.serve.service.RwsService`) and the browser engine
(:class:`~repro.browser.engine.Browser`):

* the **serial reference path** (:func:`run_serial`) executes every
  event individually through the full-fidelity APIs (one
  :class:`~repro.api.envelopes.QueryRequest` dispatch per decision, a
  latency sample per decision) — the readable, obviously-correct
  baseline;
* the **sharded fast path** (:func:`run_sharded`) partitions users into
  contiguous shards, resolves each session's hosts in one bulk pass
  over the shard's PSL (the way Chrome's renderer resolves origin →
  site before consulting the list), buffers a few sessions' site
  pairs, and answers them with one
  ``resolved`` :class:`~repro.api.envelopes.BatchQueryRequest`
  dispatch per buffer — no per-decision round-trip, no verdict
  objects, one latency sample per flush — then merges shard registries.
  Shards run in worker processes (real parallelism on multi-core
  hosts: each worker is pinned to its own CPU) or threads; on a single
  core the fast path still wins because each decision does strictly
  less work.

Both paths produce **identical decision outcomes**: the run digest —
an order- and partition-independent fold of every per-user outcome
stream (see :mod:`repro.workload.metrics`) — is bit-identical for a
given seed across runs, shard counts, and the two paths, which the
tier-1 suite asserts.  Timing figures (decisions/sec, percentiles) are
the only non-reproducible outputs.

Mid-flight list updates (the ``list-update`` scenario) key off the
*global* user index, not shard progress: users below the cutoff are
served the old snapshot, users at or above it the new one, so the
outcome stream stays partition-independent.  Each shard also has a
simulated v1 client fetch the served version whole, in the
``snapshot`` op's wire form, and verify its membership hash — the
component-updater contract under load.

**Replicated execution** (``scenario.replicas > 0``, or
:func:`replicated`): each shard dispatches through a
:class:`~repro.cluster.Router` over a replica set instead of a bare
service.  The router's logical clock is the *global* user index, and a
mid-flight publish is broadcast stamped with the global cutoff, so
replica ``i`` converges exactly at ``cutoff + (i + 1) * replica_lag``
regardless of how users were partitioned.  With ``replica_lag == 0``
every replica converges inside the publish and the outcome digest is
bit-identical to single-service execution; with a positive lag the
``rendezvous`` policy keeps routing a function of query content alone,
so the stale reads — observable in the digest — are still
deterministic across shard counts and executors (the fast path flushes
its batch buffer before any replica transition, so buffered decisions
are answered by the epochs their users actually saw).
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.codec import decode_response, encode_response
from repro.api.dispatcher import Dispatcher, RequestCounter
from repro.api.envelopes import (
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorCode,
    QueryRequest,
    QueryResponse,
    SnapshotResponse,
)
from repro.browser.engine import Browser
from repro.browser.policy import BROWSER_POLICIES
from repro.chaos.plan import chaos_plan
from repro.chaos.router import ChaosRouter
from repro.cluster.router import Router
from repro.obs.registry import (
    DETERMINISTIC_WORKLOAD_COUNTERS,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, Tracer, TraceSummary
from repro.psl import PublicSuffixList, default_psl
from repro.rws.model import RwsList
from repro.serve.epoch import Epoch
from repro.serve.service import RwsService
from repro.serve.snapshot import SnapshotStore, membership_hash
from repro.workload.generator import Session, SessionGenerator, SiteUniverse
from repro.workload.metrics import combine_digests, digest_hex, user_digest
from repro.workload.scenarios import LIST_PROFILES, Scenario, get_scenario

#: Sampling stride for fast-path rSA latency timing (one in N).
_SAMPLE_STRIDE = 32

#: Sessions buffered per fast-path batch dispatch: large enough to
#: amortise the envelope and stats fold across a few hundred pairs,
#: small enough that a buffer never spans a mid-flight list update.
_FLUSH_SESSIONS = 8


@dataclass(frozen=True)
class ShardTask:
    """One shard's picklable work order.

    Attributes:
        scenario: The traffic shape (pure data, travels to workers).
        seed: The run seed.
        user_start: First user id in this shard (inclusive).
        user_end: One past the last user id.
        total_users: The whole run's user count (mid-flight update
            cutoffs are computed against this, not the shard size).
        reference: True for the full-fidelity serial path.
        trace: Attach a deterministic per-request tracer.  Tracing
            forces full-fidelity execution (the fast path's batch
            flush boundaries depend on the partition, which would make
            span streams shard-dependent), so the shard-merged trace
            digest is bit-identical across shard counts and executors.
        transport: ``inproc`` (dispatch in-process, the default) or
            ``tcp`` (dispatch through a shard-private loopback
            :class:`~repro.net.server.RwsTcpServer` and a pooled
            :class:`~repro.net.client.TcpApiClient`).  The TCP hop is
            invisible to outcomes — the server answers requests one at
            a time, in order, over the same backend and the same
            request-counter middleware, so the outcome digest is
            bit-identical to in-process execution.  Mid-flight
            publishes still go straight to the service/router (the
            component-updater side, not client traffic).
            ``transport="tcp"`` with ``trace=True`` is refused: socket
            scheduling would make span streams non-deterministic.
        encoded: The profile's initial list as a binary-encoded epoch
            (:mod:`repro.serve.epochfmt`).  When set, the shard's
            service adopts the buffer in O(size) instead of building
            the list and recompiling the index — the instant fan-out
            path.  ``None`` restores the per-shard publish (the
            reference for digest-equality tests).  Outcomes are
            bit-identical either way.
    """

    scenario: Scenario
    seed: int
    user_start: int
    user_end: int
    total_users: int
    reference: bool
    trace: bool = False
    transport: str = "inproc"
    encoded: bytes | None = None


@dataclass
class WorkloadResult:
    """The merged outcome of one workload run.

    The digest and all decision counts (rsa/rsa-for/queries, grants,
    denies, related hits) are deterministic for a given
    (scenario, users, seed) triple — across runs, shard counts, and
    driver paths.  Wall-clock figures are not, and per-shard
    implementation counters vary with the partition and stay out of
    the registry digest: resolver hits/misses (the fast path counts
    them at the shard's PSL, whose cache inline and thread shards
    share), and ``list_updates`` / ``client_catch_ups``, which count
    once per shard that crosses the update cutoff.

    ``workload.resolver_*`` counts only the serving path's lookups:
    the service's or replicas' probes and the fast path's bulk pass.
    The browser engine's lookups and the router's routing lookups are
    not counted, so ``steady`` (60 users, seed 3) counts 738 of the
    PSL's 1,297 lookups.
    """

    scenario: Scenario
    users: int
    shards: int
    executor: str
    seed: int
    #: The shard-merged metrics registry (counters add, gauges keep
    #: the max, histograms vector-add): the driver's ``workload.*``
    #: counts and latencies beside every layer's own metrics.  Its
    #: deterministic-subset digest is partition-independent like the
    #: outcome digest.
    registry: MetricsRegistry
    digest: int
    wall_seconds: float
    snapshot_version: int
    #: ``inproc`` or ``tcp`` — how shard dispatches reached the backend.
    transport: str = "inproc"
    #: The shard-merged trace summary (``trace=True`` runs only).
    trace: TraceSummary | None = None

    def count(self, name: str) -> int:
        """The merged ``workload.<name>`` counter (0 when absent)."""
        return self.registry.counter_value(f"workload.{name}")

    @property
    def decisions(self) -> int:
        """Total decisions made (rSA + rSAFor + membership queries)."""
        return (self.count("rsa_calls") + self.count("rsa_for_calls")
                + self.count("queries"))

    @property
    def decisions_per_sec(self) -> float:
        """End-to-end throughput (generation + execution + merge)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.decisions / self.wall_seconds

    @property
    def digest_hex(self) -> str:
        """The run digest as 64 hex characters."""
        return digest_hex(self.digest)

    def report_lines(self) -> list[str]:
        """Human-readable report; deterministic lines first."""
        count = self.count
        lines = [
            f"scenario {self.scenario.name}: {self.scenario.description}",
            f"users {self.users}  shards {self.shards} ({self.executor})  "
            f"seed {self.seed}  snapshot v{self.snapshot_version}"
            + (f"  transport {self.transport}"
               if self.transport != "inproc" else ""),
            f"decisions {self.decisions}  "
            f"(rsa {count('rsa_calls')}, "
            f"rsa-for {count('rsa_for_calls')}, "
            f"queries {count('queries')})",
            f"grants {count('rsa_granted')}  "
            f"denies {count('rsa_denied')}  "
            f"related {count('related_hits')}",
            f"digest {self.digest_hex}",
            f"metrics digest {self.registry.digest_hex()}",
        ]
        if self.trace is not None:
            lines.append(f"trace digest {self.trace.digest_hex}  "
                         f"({self.trace.span_count} spans over "
                         f"{self.trace.request_count} requests)")
        if count("list_updates"):
            # One logical update; each shard at/above the cutoff
            # republishes into its private service and re-verifies.
            lines.append(
                f"mid-flight list update applied in "
                f"{count('list_updates')} shard(s); v1 clients "
                f"caught up in {count('client_catch_ups')}"
            )
        lines.append(
            f"throughput {self.decisions_per_sec:,.0f} decisions/sec "
            f"({self.wall_seconds:.2f}s wall)"
        )
        prefix = "workload.latency."
        for name, histogram in sorted(self.registry.histograms.items()):
            if not name.startswith(prefix):
                continue
            summary = histogram.summary()
            lines.append(
                f"latency {name[len(prefix):]}: "
                f"p50 {summary['p50_ns'] / 1e3:.1f}us  "
                f"p95 {summary['p95_ns'] / 1e3:.1f}us  "
                f"p99 {summary['p99_ns'] / 1e3:.1f}us  "
                f"({int(summary['count'])} samples)"
            )
        return lines


# -- shard execution ----------------------------------------------------------


class _ShardState:
    """Mutable per-shard context threaded through session execution."""

    __slots__ = ("scenario", "service", "router", "backend", "dispatcher",
                 "api_counter", "epoch", "psl", "counts", "latencies",
                 "digests", "policy", "rsa_seen", "resolver_hits",
                 "resolver_misses", "pending_users", "pending_pairs")

    def __init__(self, scenario: Scenario, service: RwsService,
                 router: Router | None = None, tracer=NULL_TRACER):
        self.scenario = scenario
        self.service = service
        #: The replica cluster front-end in replicated execution mode,
        #: None for single-service runs.
        self.router = router
        self.backend: RwsService | Router = \
            router if router is not None else service
        self.api_counter = RequestCounter()
        self.dispatcher = Dispatcher(self.backend,
                                     middlewares=(self.api_counter,),
                                     tracer=tracer)
        # Browsers adopt the primary's epoch handle: the client-side
        # rSA decisions follow the publish instant (the primary), while
        # the serving-layer queries may lag behind on stale replicas.
        self.epoch = service.epoch
        self.psl = service.psl
        #: ``workload.*`` event counts and latencies, kept in plain
        #: containers and written into the shard's registry at the end.
        self.counts: Counter[str] = Counter()
        self.latencies: defaultdict[str, LatencyHistogram] = \
            defaultdict(LatencyHistogram)
        self.digests: list[int] = []
        self.policy = BROWSER_POLICIES["chrome-rws"]
        self.rsa_seen = 0
        #: The fast path's resolver counts, taken at the shard's PSL
        #: (plain attributes, added to the counts when the shard
        #: finishes).
        self.resolver_hits = 0
        self.resolver_misses = 0
        # Fast-path batch buffer: (user_id, rsa tokens, pair count) per
        # session, plus the flat resolved site pairs awaiting dispatch.
        self.pending_users: list[tuple[int, list[str], int]] = []
        self.pending_pairs: list[tuple[str | None, str | None]] = []


def _browse_session(state: _ShardState, session: Session, *,
                    reference: bool) -> tuple[list[str],
                                              list[tuple[str, str]]]:
    """Run a session's browser-engine traffic.

    Returns the rSA outcome tokens (in event order) and the
    (top_host, embed_host) pairs for the serving-layer queries.
    """
    counts = state.counts
    rsa_tokens: list[str] = []
    pairs: list[tuple[str, str]] = []
    browser = Browser(policy=state.policy, rws_list=RwsList(),
                      psl=state.psl)
    browser.adopt_epoch(state.epoch)
    for page_visit in session.pages:
        # One bulk PSL call per page load resolves the top-level host
        # and every embed's host together (the engine's natural
        # resolution batch).  The serving-layer query pairs still
        # carry the raw hosts, but browse-step resolutions now ride
        # the PSL layer instead of the per-path resolver, so the
        # reported resolver_hits/resolver_misses counters reflect
        # query-path traffic only (they no longer include the embed
        # warm-up the pre-batch code did); outcomes are unaffected.
        page, embed_sites = browser.visit_with_embeds(
            page_visit.top_host,
            [embed.host for embed in page_visit.embeds],
            interact=page_visit.interact)
        counts["page_visits"] += 1
        for embed, embed_site in zip(page_visit.embeds, embed_sites):
            pairs.append((page_visit.top_host, embed.host))
            if embed_site is None:
                continue
            frame = page.embed(embed_site)
            state.rsa_seen += 1
            timed = reference or state.rsa_seen % _SAMPLE_STRIDE == 0
            started = time.perf_counter_ns() if timed else 0
            decision = browser.request_storage_access(
                frame, user_gesture=embed.user_gesture)
            if timed:
                state.latencies["rsa"].record(
                    time.perf_counter_ns() - started)
            counts["rsa_calls"] += 1
            counts["rsa_granted" if decision.granted else "rsa_denied"] += 1
            rsa_tokens.append(decision.value)
        for host in page_visit.rsa_for_hosts:
            decision = browser.request_storage_access_for(page, host)
            counts["rsa_for_calls"] += 1
            counts["rsa_granted" if decision.granted else "rsa_denied"] += 1
            rsa_tokens.append(f"for:{decision.value}")
    return rsa_tokens, pairs


def _query_pairs(session: Session) -> list[tuple[str, str]]:
    """The (top, embed) query pairs for a browserless (bulk) session."""
    return [(page.top_host, embed.host)
            for page in session.pages for embed in page.embeds]


def _execute_reference(state: _ShardState, session: Session) -> None:
    """Full-fidelity execution: one API dispatch per decision."""
    counts = state.counts
    if state.scenario.browser_traffic:
        rsa_tokens, pairs = _browse_session(state, session, reference=True)
    else:
        rsa_tokens, pairs = [], _query_pairs(session)
    dispatch = state.dispatcher.dispatch
    query_tokens: list[str] = []
    for top_host, embed_host in pairs:
        started = time.perf_counter_ns()
        response = dispatch(QueryRequest(top_host, embed_host))
        state.latencies["query"].record(time.perf_counter_ns() - started)
        counts["queries"] += 1
        if type(response) is QueryResponse:
            related = response.verdict.related
        else:
            # Unresolvable hosts fold into the outcome stream as "not
            # related" (exactly how the pre-protocol verdicts encoded
            # them); any other error — INTERNAL, rate limiting — must
            # fail the shard loudly rather than silently skew digests.
            if response.error.code is not ErrorCode.UNRESOLVABLE_HOST:
                raise RuntimeError(
                    f"query dispatch failed for "
                    f"({top_host!r}, {embed_host!r}): "
                    f"{response.error.code.value}: "
                    f"{response.error.message}")
            related = False
        if related:
            counts["related_hits"] += 1
        query_tokens.append("1" if related else "0")
    state.digests.append(
        user_digest(session.user_id, rsa_tokens + ["#"] + query_tokens))


def _execute_fast(state: _ShardState, session: Session) -> None:
    """Fast-path execution: buffer resolved site pairs, flush in batches.

    The session's hosts resolve in one counted bulk pass over the
    shard's PSL (the client side of the renderer's origin → site
    step); the buffered sites flush through one ``resolved``
    :class:`BatchQueryRequest` dispatch every :data:`_FLUSH_SESSIONS`
    sessions (see :func:`_flush_fast`), which amortises the envelope
    and the service's stats fold across a few hundred decisions.
    """
    if state.scenario.browser_traffic:
        rsa_tokens, pairs = _browse_session(state, session, reference=False)
    else:
        rsa_tokens, pairs = [], _query_pairs(session)
    # The whole session's hosts in one bulk PSL pass, not one resolver
    # call per pair side.
    sites, hits = state.psl.etld_plus_one_many_counted(
        [host for pair in pairs for host in pair])
    state.resolver_hits += hits
    state.resolver_misses += len(sites) - hits
    site_iter = iter(sites)
    state.pending_pairs.extend(zip(site_iter, site_iter))
    state.pending_users.append((session.user_id, rsa_tokens, len(pairs)))
    if len(state.pending_users) >= _FLUSH_SESSIONS:
        _flush_fast(state)


def _flush_fast(state: _ShardState) -> None:
    """Dispatch the fast path's buffered site pairs and fold outcomes.

    Per-user digests are reassembled from the batched verdict bits in
    buffer order, so they are bit-identical to per-session execution —
    the buffer never spans a mid-flight list update
    (:func:`_apply_mid_flight_update` flushes first) or a shard
    boundary, which keeps outcomes partition-independent.
    """
    if not state.pending_users:
        return
    pairs = state.pending_pairs
    bits: list[bool] = []
    if pairs:
        started = time.perf_counter_ns()
        response = state.dispatcher.dispatch(
            BatchQueryRequest(pairs=pairs, detail=False, resolved=True))
        assert type(response) is BatchQueryResponse, response
        bits = response.related
        # One sample per flush: the per-decision mean over the batch.
        state.latencies["query"].record(
            (time.perf_counter_ns() - started) // len(pairs))
        state.counts["queries"] += len(pairs)
        hits = sum(bits)
        if hits:
            state.counts["related_hits"] += hits
    offset = 0
    for user_id, rsa_tokens, pair_count in state.pending_users:
        query_tokens = ["1" if bit else "0"
                        for bit in bits[offset:offset + pair_count]]
        offset += pair_count
        state.digests.append(
            user_digest(user_id, rsa_tokens + ["#"] + query_tokens))
    state.pending_users.clear()
    state.pending_pairs = []


def _apply_mid_flight_update(state: _ShardState, cutoff: int) -> None:
    """Publish the profile's next list version and verify a v1 client
    catches up to the served version.

    In replicated mode the publish goes through the router, stamped
    with the *global* cutoff as its logical publish clock: replica
    ``i`` then owes its catch-up at ``cutoff + lag_i`` no matter where
    this shard's user range starts, which is what keeps stale-replica
    staleness (and the digest) partition-independent.
    """
    # Buffered fast-path queries belong to pre-cutoff users: answer
    # them against the old snapshot before the index swaps.
    _flush_fast(state)
    build_v2 = LIST_PROFILES[state.scenario.list_profile][1]
    assert build_v2 is not None
    base_version = state.service.current_snapshot.version \
        if state.service.current_snapshot else 0
    if state.router is not None:
        snapshot = state.router.publish(build_v2(), published_clock=cutoff)
        # The router decides what the cluster serves: under failover
        # the promoted replica's epoch (the dead primary never
        # adopts), under a canary rollback the *old* epoch.
        state.epoch = state.router.epoch
    else:
        snapshot = state.service.publish(build_v2())
        state.epoch = state.service.epoch
    state.counts["list_updates"] += 1
    if snapshot.version == base_version:
        # A rolled-back canary publish: the cluster kept serving the
        # old version, so there is nothing for a v1 client to catch
        # up to (the aborted candidate stays in store history).
        return
    # A v1 client fetches the served version whole, in the snapshot
    # op's wire form, and checks it against the served content hash
    # (the component-updater contract).  The backend's default is the
    # version it serves: under a staged rollout the store's latest may
    # be a candidate the cluster never promoted.  The fetch stays
    # in-process and off the dispatcher, so it adds no request count
    # and no span to the workload's own traffic.
    served = state.backend.snapshot_at()
    fetched, _version = decode_response(encode_response(SnapshotResponse(
        version=served.version, content_hash=served.content_hash,
        rws_list=served.rws_list)))
    if (membership_hash(fetched.rws_list) == fetched.content_hash
            == snapshot.content_hash):
        state.counts["client_catch_ups"] += 1


def _shard_tcp_front(state: _ShardState):
    """A shard-private loopback TCP hop in front of the backend.

    Builds an :class:`~repro.net.server.RwsTcpServer` over the shard's
    backend — it dispatches serially on its event loop, so request
    handling serialises exactly like in-process dispatch — sharing the
    shard's :class:`RequestCounter` middleware, then swaps a pooled
    :class:`~repro.net.client.TcpApiClient` in as
    ``state.dispatcher``.  Returns the (server harness, client) pair
    the shard must close when done.
    """
    # Imported lazily: repro.net imports repro.api, which this module
    # already feeds; keeping the import local also spares inproc runs
    # the server and client modules entirely.
    from repro.net.client import TcpApiClient
    from repro.net.server import RwsTcpServer, ServerThread

    harness = ServerThread(RwsTcpServer(
        dispatcher=Dispatcher(state.backend,
                              middlewares=(state.api_counter,))))
    host, port = harness.start()
    client = TcpApiClient(host, port, pool_size=2)
    state.dispatcher = client
    return harness, client


def run_shard(task: ShardTask) -> dict:
    """Execute one shard; returns a picklable outcome dict.

    Top-level (not a closure) so process executors can pickle it.
    """
    scenario = task.scenario
    if task.transport not in ("inproc", "tcp"):
        raise ValueError(f"unknown transport {task.transport!r} "
                         "(known: inproc, tcp)")
    if task.transport == "tcp" and task.trace:
        raise ValueError("trace=True requires the inproc transport: "
                         "socket scheduling would make span streams "
                         "non-deterministic")
    started = time.perf_counter()
    build_v1, build_v2 = LIST_PROFILES[scenario.list_profile]
    # The shard's only host cache is its PSL's: a cold-cache scenario
    # gets a cache-disabled one, so both driver paths stay cold.  A
    # warm shard shares the process-wide cache through a view whose
    # counters hold only this shard's lookups, so ``psl.*`` merges
    # across shards without counting a lookup twice on any executor.
    psl = (PublicSuffixList(cache_size=0) if scenario.cold_cache
           else default_psl().counting_view())
    service = RwsService(psl=psl)
    if task.encoded is not None:
        # O(size) spin-up: the shard serves the pre-encoded epoch's
        # array-backed index directly — no list build, no per-entry
        # index compile.  The lazy snapshot list materializes only if
        # something walks it (the site universe below does; the
        # serving hot path never would).
        snapshot = service.adopt_encoded(task.encoded)
        rws_list = snapshot.rws_list
    else:
        rws_list = build_v1()
        service.publish(rws_list)
    router = None
    if scenario.chaos is not None and scenario.replicas <= 0:
        raise ValueError(f"chaos plan {scenario.chaos!r} requires "
                         "replicas > 0")
    if scenario.replicas > 0:
        # Replicas boot from the already-published epoch; staggered
        # propagation lag (i + 1) * replica_lag applies to every
        # *subsequent* publish broadcast.
        lags = [(i + 1) * scenario.replica_lag
                for i in range(scenario.replicas)]
        if scenario.chaos is not None:
            # The fault plan scales against the whole run's clock
            # horizon and is identical in every shard — each shard
            # replays the same fault history as its private clock
            # passes the scheduled ticks.
            router = ChaosRouter(
                service, replicas=scenario.replicas,
                plan=chaos_plan(scenario.chaos, task.total_users,
                                scenario.replica_lag),
                lag=lags, policy=scenario.router_policy,
            )
        else:
            router = Router(
                service, replicas=scenario.replicas, lag=lags,
                policy=scenario.router_policy,
            )
    tracer = Tracer(seed=task.seed) if task.trace else NULL_TRACER
    if task.trace:
        if router is not None:
            router.set_tracer(tracer)  # propagates primary + replicas
        else:
            service.set_tracer(tracer)
    state = _ShardState(scenario, service, router, tracer)
    net_front = (_shard_tcp_front(state) if task.transport == "tcp"
                 else None)
    universe = SiteUniverse(rws_list, trackers=scenario.trackers,
                            outside_sites=scenario.outside_sites)
    generator = SessionGenerator(scenario, task.seed, universe)
    # Tracing forces the full-fidelity path: fast-path flush boundaries
    # depend on the partition, which would shard-skew the span stream.
    execute = (_execute_reference if task.reference or task.trace
               else _execute_fast)

    if scenario.warm_cache:
        for site in universe.member_sites:
            for host in (site, f"www.{site}", f"m.{site}"):
                service.resolve_host(host)
        state.counts["warmup_resolutions"] += 3 * len(universe.member_sites)

    cutoff = None
    if scenario.update_at_fraction is not None and build_v2 is not None:
        cutoff = int(task.total_users * scenario.update_at_fraction)
    updated = False
    for user_id in range(task.user_start, task.user_end):
        if cutoff is not None and not updated and user_id >= cutoff:
            _apply_mid_flight_update(state, cutoff)
            updated = True
        if router is not None:
            # The cluster clock is the global user index.  Flush the
            # fast path's buffer before any replica transition so
            # buffered decisions are answered by the epochs their
            # users actually saw.
            if router.has_due(user_id):
                _flush_fast(state)
            router.advance(user_id)
        if task.trace:
            # The request index is the *global* user id, so the span
            # stream (and its digest) is partition-independent.
            with tracer.request(user_id):
                execute(state, generator.session(user_id))
        else:
            execute(state, generator.session(user_id))
    _flush_fast(state)  # drain the fast path's tail buffer

    # Only the serving path's lookups are counted: the service's or
    # replicas' probes (the reference path and the warm-up) and the
    # fast path's bulk pass at the shard's PSL.  The browser engine's
    # lookups and the router's routing lookups are not.
    counts = state.counts
    backend_stats = state.backend.stats
    counts["resolver_hits"] += (backend_stats.resolver_hits
                                + state.resolver_hits)
    counts["resolver_misses"] += (backend_stats.resolver_misses
                                  + state.resolver_misses)
    if router is not None:
        counts["replica_catch_ups"] += sum(
            replica.catch_ups for replica in router.replicas)
        counts["replica_hops_applied"] += sum(
            replica.hops_applied for replica in router.replicas)
        resyncs = sum(replica.resyncs for replica in router.replicas)
        if resyncs:
            counts["replica_resyncs"] += resyncs
    # The shard's registry: the driver's counts (the deterministic
    # subset marked), its latencies, and every layer's own metrics —
    # merged upstream exactly like digests.
    registry = MetricsRegistry()
    for name, count in counts.items():
        registry.count(f"workload.{name}", count,
                       deterministic=name in DETERMINISTIC_WORKLOAD_COUNTERS)
    for name, histogram in state.latencies.items():
        registry.histogram(f"workload.latency.{name}").merge(histogram)
    state.backend.write_metrics(registry)
    state.api_counter.write_metrics(registry)
    if net_front is not None:
        harness, client = net_front
        harness.server.write_metrics(registry)
        client.write_metrics(registry)
        client.close()
        harness.stop()
    # The version the cluster actually *serves*: the router's acting
    # epoch in replicated mode (under failover the dead primary stays
    # behind; under a canary rollback the old version keeps serving),
    # the service's otherwise.
    if router is not None:
        version = router.epoch.version
    else:
        snapshot = service.current_snapshot
        version = snapshot.version if snapshot else 0
    return {
        "users": task.user_end - task.user_start,
        "registry": registry.to_portable(),
        "trace": tracer.summary().to_portable() if task.trace else None,
        "digest": combine_digests(state.digests),
        "wall_seconds": time.perf_counter() - started,
        "snapshot_version": version,
    }


# -- run orchestration --------------------------------------------------------


#: Per-process memo: list profile -> binary-encoded v1 epoch.  Encoded
#: once per driver process and handed to every shard; immutable bytes,
#: so fork-based process pools share the pages for free.
_PROFILE_BUFFERS: dict[str, bytes] = {}


def _profile_buffer(profile: str) -> bytes:
    """The binary-encoded initial epoch for a list profile (memoized)."""
    buf = _PROFILE_BUFFERS.get(profile)
    if buf is None:
        build_v1, _ = LIST_PROFILES[profile]
        store = SnapshotStore()
        snapshot = store.publish(build_v1())
        epoch = Epoch.compile(snapshot, default_psl())
        buf = epoch.to_buffer()
        _PROFILE_BUFFERS[profile] = buf
    return buf


def _partition(users: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, ascending user-id ranges (empty ranges dropped)."""
    base, extra = divmod(users, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        if size > 0:
            bounds.append((start, start + size))
        start += size
    return bounds


def _resolve_executor(executor: str, shards: int) -> str:
    if executor == "auto":
        if shards <= 1:
            return "inline"
        return "process" if (os.cpu_count() or 1) > 1 else "thread"
    if executor not in ("inline", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r} "
                         "(known: auto, inline, thread, process)")
    return executor


def _merge(scenario: Scenario, users: int, shards: int, executor: str,
           seed: int, outcomes: list[dict], wall_seconds: float,
           transport: str = "inproc") -> WorkloadResult:
    registry = MetricsRegistry()
    trace: TraceSummary | None = None
    digests: list[int] = []
    snapshot_version = 0
    for outcome in outcomes:
        registry.merge(MetricsRegistry.from_portable(outcome["registry"]))
        if outcome.get("trace") is not None:
            shard_trace = TraceSummary.from_portable(outcome["trace"])
            if trace is None:
                trace = shard_trace
            else:
                trace.merge(shard_trace)
        digests.append(outcome["digest"])
        snapshot_version = max(snapshot_version,
                               outcome["snapshot_version"])
    return WorkloadResult(
        scenario=scenario, users=users, shards=shards, executor=executor,
        seed=seed, registry=registry, digest=combine_digests(digests),
        wall_seconds=wall_seconds, snapshot_version=snapshot_version,
        transport=transport, trace=trace,
    )


def run_serial(scenario: Scenario | str, users: int, *,
               seed: int = 0, trace: bool = False,
               transport: str = "inproc",
               encoded_epoch: bool = True) -> WorkloadResult:
    """The serial driver: one shard, full-fidelity execution.

    ``encoded_epoch=False`` restores the per-shard list build +
    publish (the compiled reference for digest-equality tests).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    started = time.perf_counter()
    encoded = (_profile_buffer(scenario.list_profile)
               if encoded_epoch else None)
    outcomes = []
    if users > 0:
        outcomes.append(run_shard(ShardTask(
            scenario=scenario, seed=seed, user_start=0, user_end=users,
            total_users=users, reference=True, trace=trace,
            transport=transport, encoded=encoded,
        )))
    return _merge(scenario, users, 1, "serial", seed, outcomes,
                  time.perf_counter() - started, transport)


def _pin_worker(claimed) -> None:
    """Pool initializer: bind this worker process to a CPU of its own.

    Forked workers start on the parent's CPU, and a scheduler may leave
    them sharing it for longer than a shard runs (seen on a 2-vCPU
    Linux VM: two forked workers took turns on one CPU for ~1 s while
    the other sat idle), so the shards would run one core's worth at a
    time.  Each worker claims the next CPU of the parent's affinity
    set.  Pinning is best effort: a refused ``sched_setaffinity``
    leaves placement to the scheduler.
    """
    with claimed.get_lock():
        index = claimed.value
        claimed.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    except OSError:
        pass


def run_sharded(scenario: Scenario | str, users: int, shards: int, *,
                seed: int = 0, executor: str = "auto",
                trace: bool = False,
                transport: str = "inproc",
                encoded_epoch: bool = True) -> WorkloadResult:
    """The sharded executor: partition users, run shards, merge.

    Args:
        scenario: Registry name or scenario object.
        users: Total simulated users across all shards.
        shards: Worker count (contiguous user ranges).
        seed: Run seed; outcomes are identical for any shard count.
        executor: ``process`` (default on multi-core), ``thread``,
            ``inline`` (run shards in-loop; useful for tests), or
            ``auto``.
        trace: Attach per-shard deterministic tracers (forces
            full-fidelity execution); summaries merge into
            :attr:`WorkloadResult.trace` with a digest bit-identical
            to the serial run's.
        transport: ``inproc`` or ``tcp`` — see
            :attr:`ShardTask.transport`.  Each shard gets its own
            loopback server/client pair, so process executors stay
            picklable (sockets are created inside the worker).
        encoded_epoch: Hand every shard the profile's binary-encoded
            epoch (encoded once in the driver) instead of having each
            shard rebuild the list and recompile its index.  ``False``
            restores the per-shard publish; outcomes are bit-identical
            either way.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    mode = _resolve_executor(executor, shards)
    started = time.perf_counter()
    encoded = (_profile_buffer(scenario.list_profile)
               if encoded_epoch else None)
    tasks = [
        ShardTask(scenario=scenario, seed=seed, user_start=start,
                  user_end=end, total_users=users, reference=False,
                  trace=trace, transport=transport, encoded=encoded)
        for start, end in _partition(users, shards)
    ]
    if len(tasks) <= 1:
        mode = "inline"  # no pool spun up: report what actually ran
    # Shards are independent and the pool drains its queue, so capping
    # workers at the core count bounds memory/scheduler churn for large
    # --shards values without changing any outcome.
    workers = min(len(tasks), os.cpu_count() or 1)
    if mode == "inline":
        outcomes = [run_shard(task) for task in tasks]
    elif mode == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_shard, tasks))
    else:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        initializer, initargs = None, ()
        if hasattr(os, "sched_setaffinity"):
            initializer, initargs = _pin_worker, (context.Value("i", 0),)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                 initializer=initializer,
                                 initargs=initargs) as pool:
            outcomes = list(pool.map(run_shard, tasks))
    return _merge(scenario, users, shards, mode, seed, outcomes,
                  time.perf_counter() - started, transport)


def run_workload(scenario: Scenario | str, users: int, *, shards: int = 1,
                 seed: int = 0, executor: str = "auto",
                 trace: bool = False,
                 transport: str = "inproc",
                 encoded_epoch: bool = True) -> WorkloadResult:
    """Run a workload, serial for one shard, sharded otherwise."""
    if shards <= 1:
        return run_serial(scenario, users, seed=seed, trace=trace,
                          transport=transport,
                          encoded_epoch=encoded_epoch)
    return run_sharded(scenario, users, shards, seed=seed,
                       executor=executor, trace=trace,
                       transport=transport, encoded_epoch=encoded_epoch)


def replicated(scenario: Scenario | str, replicas: int, *, lag: int = 0,
               policy: str = "rendezvous") -> Scenario:
    """A copy of a scenario executing through a replica cluster.

    Args:
        scenario: Registry name or scenario object.
        replicas: Read-replica count behind the router (0 restores
            single-service execution).
        lag: Propagation-lag stagger in users (replica ``i`` converges
            ``(i + 1) * lag`` users after a mid-flight publish).
        policy: Router policy; keep ``rendezvous`` whenever ``lag > 0``
            so digests stay partition-independent.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return dataclasses.replace(scenario, replicas=max(0, replicas),
                               replica_lag=max(0, lag),
                               router_policy=policy)


def chaotic(scenario: Scenario | str, plan: str, *, replicas: int = 3,
            lag: int = 4, policy: str = "rendezvous") -> Scenario:
    """A copy of a scenario executing under a named chaos plan.

    Args:
        scenario: Registry name or scenario object.  Scenarios without
            a replica cluster get one (``replicas``/``lag``/``policy``
            apply); scenarios that already run replicated keep their
            own cluster shape.
        plan: A :data:`~repro.chaos.CHAOS_PLANS` name
            (``replica-churn``, ``failover``, ``lossy-replication``,
            ``canary-rollback``); validated here so a typo fails fast
            instead of inside a worker shard.
        replicas: Replica count applied when the scenario has none.
        lag: Propagation-lag stagger applied when the scenario has no
            cluster.
        policy: Router policy applied when the scenario has no
            cluster; keep ``rendezvous`` — chaos changes membership
            mid-run, and round-robin routing is arrival-order
            dependent.
    """
    from repro.chaos.plan import CHAOS_PLANS

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if plan not in CHAOS_PLANS:
        known = ", ".join(sorted(CHAOS_PLANS))
        raise KeyError(f"unknown chaos plan {plan!r} (known: {known})")
    if scenario.replicas > 0:
        return dataclasses.replace(scenario, chaos=plan)
    return dataclasses.replace(scenario, chaos=plan,
                               replicas=max(1, replicas),
                               replica_lag=max(0, lag),
                               router_policy=policy)
