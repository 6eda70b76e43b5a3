"""The cluster front-end: replicated reads, primary-pinned writes.

:class:`Router` exposes the same surface the
:class:`~repro.api.dispatcher.Dispatcher` drives on a single
:class:`~repro.serve.service.RwsService`, so it drops into the API
layer unchanged — but read traffic (queries, batches, resolutions)
spreads across a set of :class:`~repro.cluster.replica.Replica`
instances while every write (publish, submit) and every
store-anchored read (snapshots, poll, queue reports) pins to the
primary.

Two routing policies ship:

* ``round-robin`` — each dispatch goes to the next replica in turn
  (an atomic counter; batches stay whole).  The right default when
  all replicas serve the same epoch.
* ``rendezvous`` — highest-random-weight hashing of the *query key*
  (the first host/site of a pair) onto the replica set, with batches
  split per pair and reassembled in request order.  Routing then
  depends only on the query content — never on arrival order or how
  traffic was batched — which is what makes stale-replica workloads
  bit-reproducible across shard counts and executors, and what keeps
  a client's repeat questions on the replica whose staleness it
  already observed (read-your-staleness, the component-updater
  behaviour).

Propagation: :meth:`publish` publishes to the primary, broadcasts the
hop (the stored snapshot and the version it was published over) to
every replica stamped with the cluster's logical clock, and
immediately applies whatever is due (a zero-lag cluster therefore
converges inside the publish call).  :meth:`advance` moves the clock —
the workload driver feeds it the global user index — and a lagging
replica that holds several due hops serves the last one.  Clients
follow the same way: :meth:`snapshot_at` hands them a stored version
whole.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Sequence

from repro.obs.registry import MetricsRegistry, MetricsSource
from repro.obs.trace import NULL_TRACER
from repro.psl.lookup import DomainError
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.serve.epoch import Epoch
from repro.serve.index import MembershipIndex
from repro.serve.queue import SubmissionStatus, ValidationQueue
from repro.serve.service import (
    QueryVerdict,
    RwsService,
    ServiceStats,
    write_epoch_gauges,
)
from repro.serve.snapshot import ListSnapshot

from repro.cluster.replica import Replica

#: Routing policies :class:`Router` understands.
POLICIES = ("round-robin", "rendezvous")


def _weight(replica_id: int, key: str) -> int:
    """Rendezvous weight: stable across processes and runs.

    ``zlib.crc32`` rather than ``hash()`` — the builtin string hash is
    salted per process (PYTHONHASHSEED), which would make routing (and
    therefore stale-replica outcome digests) differ between the
    process-pool executor's workers and an inline run.
    """
    return zlib.crc32(f"{replica_id}|{key}".encode("utf-8", "replace"))


class Router(MetricsSource):
    """Spread reads across replicas; pin writes to the primary.

    Args:
        primary: The write-side service (owns the snapshot store and
            the validation queue).
        replicas: How many read replicas to build.
        lag: Propagation lag in logical-clock ticks — one int for a
            uniform cluster, or a per-replica sequence (the
            ``stale-replica`` workload staggers them).
        policy: ``round-robin`` or ``rendezvous`` (see module doc).

    Every replica resolves hosts through the primary's PSL, the same
    cache routing keys come from.
    """

    def __init__(self, primary: RwsService, replicas: int = 2, *,
                 lag: int | Sequence[int] = 0,
                 policy: str = "round-robin"):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} "
                             f"(known: {', '.join(POLICIES)})")
        if isinstance(lag, int):
            lags = [lag] * replicas
        else:
            lags = list(lag)
            if len(lags) != replicas:
                raise ValueError(f"got {len(lags)} lag values for "
                                 f"{replicas} replicas")
        self.primary = primary
        self.policy = policy
        #: Every replica this router has ever owned, in join order —
        #: the stats surface.  Subclasses with dynamic membership route
        #: over :meth:`_read_replicas` instead, so a departed replica's
        #: served-request counters survive in :meth:`write_metrics`.
        self.replicas: list[Replica] = [
            Replica(i, primary, lag=lags[i]) for i in range(replicas)
        ]
        self._clock = 0
        self._rr = itertools.count()  # C-level counter: atomic next()
        self._tracer = NULL_TRACER

    def _read_replicas(self) -> list[Replica]:
        """The replicas eligible for read routing and broadcasts.

        The static cluster routes over every replica; the chaos
        router's override returns only the currently-joined set, which
        is what makes a leave/join reroute atomic — every routing
        decision takes one consistent membership view.
        """
        return self.replicas

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the router, the primary, and every replica.

        Under round-robin (with more than one replica) the chosen
        replica depends on arrival order, so replica identity is
        redacted from spans: each replica's trace node collapses to
        ``"replica"`` and routed spans carry ``replica=-1``, keeping
        the trace digest partition-independent.  Rendezvous routing is
        a function of query content alone, so real replica ids are
        deterministic and stay in the trace.
        """
        self._tracer = tracer
        self.primary.set_tracer(tracer)
        anonymous = self.policy == "round-robin" and len(self.replicas) > 1
        for replica in self.replicas:
            replica.set_tracer(tracer)
            if anonymous:
                replica._trace_node = "replica"

    # -- propagation ----------------------------------------------------------

    def publish(self, rws_list: RwsList, *,
                published_clock: int | None = None) -> ListSnapshot:
        """Publish to the primary and broadcast the hop to replicas.

        Deduplicated republications broadcast nothing, and neither
        does a refused list (one that puts a site in two sets): the
        primary's store keeps no version of it.  Replicas whose lag has
        already elapsed (always true at lag 0) converge before this
        returns.

        Args:
            rws_list: The list to publish.
            published_clock: The logical clock to stamp the broadcast
                with (defaults to the router's current clock).  The
                workload driver passes the *global* update cutoff so a
                shard that starts past it schedules identical due
                times.

        Raises:
            repro.serve.epochfmt.OverlappingSetsError: When the list
                puts a site in two sets.
        """
        clock = self._clock if published_clock is None else published_clock
        before = self.primary.epoch.version
        snapshot = self.primary.publish(rws_list)
        if snapshot.version == before:
            return snapshot
        base_version = before or None  # a first publish is adopted whole
        # A publish stamped at `clock` means the cluster has reached
        # that instant: advance to it so zero-lag replicas converge
        # inside this call even when the stamp is ahead of the
        # router's clock (the workload driver stamps the global
        # cutoff); staggered-lag replicas stay due strictly later.
        if clock > self._clock:
            self._clock = clock
        for replica in self._read_replicas():
            replica.receive(snapshot, base_version=base_version,
                            published_clock=clock)
            replica.advance(self._clock)
        return snapshot

    def advance(self, clock: int) -> None:
        """Move the cluster clock; lagging replicas apply due hops."""
        if clock > self._clock:
            self._clock = clock
        for replica in self._read_replicas():
            replica.advance(clock)

    def has_due(self, clock: int) -> bool:
        """True when :meth:`advance` to ``clock`` would swap an epoch.

        The workload fast path flushes its batch buffer before such an
        advance, so buffered decisions are answered by the epochs their
        users actually saw.
        """
        return any(replica.has_due(clock)
                   for replica in self._read_replicas())

    def converge(self) -> None:
        """Force every joined replica up to date, ignoring lag."""
        for replica in self._read_replicas():
            replica.sync()

    @property
    def converged(self) -> bool:
        """True when no joined replica holds pending updates."""
        return not any(replica.lagging
                       for replica in self._read_replicas())

    # -- routing --------------------------------------------------------------

    def _route_key(self, host: str | None) -> str:
        """The rendezvous key for a host: its resolved eTLD+1 site.

        Raw hosts and pre-resolved sites must route one logical query
        identically — the reference workload path dispatches
        ``www.example.com`` while the fast path dispatches the
        resolved ``example.com`` for the same decision, and under
        replica lag a key mismatch would send them to replicas serving
        different epochs (diverging the outcome digest between driver
        paths).  Resolution rides the PSL's lock-free cache, keyed by
        the raw host exactly as the replica that serves the query will
        look it up, so routing and serving share one cache entry;
        unresolvable hosts key as "" (their verdict is epoch-
        independent anyway).
        """
        if host is None:
            return ""
        try:
            site = self.primary.psl.etld_plus_one(host)
        except DomainError:
            return ""
        return site or ""

    def _pick(self, key: str | None) -> Replica:
        replicas = self._read_replicas()
        if len(replicas) == 1:
            return replicas[0]
        if self.policy == "round-robin" or key is None:
            return replicas[next(self._rr) % len(replicas)]
        return max(replicas,
                   key=lambda replica: _weight(replica.replica_id, key))

    def _split(self, keys: list[str]) -> list[Replica]:
        """Per-item rendezvous assignment for a batch."""
        replicas = self._read_replicas()
        assignments: list[Replica] = []
        memo: dict[str, Replica] = {}
        for key in keys:
            replica = memo.get(key)
            if replica is None:
                replica = max(replicas, key=lambda r: _weight(r.replica_id,
                                                              key))
                memo[key] = replica
            assignments.append(replica)
        return assignments

    # -- read surface (the Dispatcher's query operations) ---------------------

    def _trace_replica_id(self, replica: Replica) -> int:
        """The replica id a routed span may carry (-1 when redacted).

        Round-robin's pick rides an arrival-order counter, so its id is
        nondeterministic under concurrency and is redacted to keep
        trace digests partition-independent; rendezvous (and a
        single-replica cluster) routes by content alone.
        """
        if self.policy == "rendezvous" or len(self._read_replicas()) == 1:
            return replica.replica_id
        return -1

    def query(self, host_a: str, host_b: str) -> QueryVerdict:
        """One pairwise query, routed to a replica."""
        key = (self._route_key(host_a)
               if self.policy == "rendezvous" else None)
        replica = self._pick(key)
        tracer = self._tracer
        if tracer.live:
            tracer.emit("cluster.route", policy=self.policy,
                        replica=self._trace_replica_id(replica))
        return replica.query(host_a, host_b)

    def query_batch(self, pairs: list[tuple[str | None, str | None]], *,
                    detail: bool = True, resolved: bool = False) -> list:
        """The shell's batch read, routed.

        Round-robin keeps the batch whole on one replica.  Rendezvous
        keys each pair by its first host's site (``resolved`` pairs
        already hold it), answers each replica's share as one
        sub-batch, and reassembles the answers in request order — so
        routing depends only on pair content, never on how the traffic
        was batched.
        """
        if not pairs:
            return []
        tracer = self._tracer
        if tracer.live:
            tracer.emit("cluster.route_batch", policy=self.policy,
                        pairs=len(pairs))
        if self.policy == "round-robin" or len(self._read_replicas()) == 1:
            return self._pick(None).query_batch(pairs, detail=detail,
                                                resolved=resolved)
        if resolved:
            keys = [pair[0] or "" for pair in pairs]
        else:
            route_key = self._route_key
            keys = [route_key(pair[0]) for pair in pairs]
        buckets: dict[Replica, tuple[list[int], list]] = {}
        for i, replica in enumerate(self._split(keys)):
            bucket = buckets.get(replica)
            if bucket is None:
                bucket = buckets[replica] = ([], [])
            bucket[0].append(i)
            bucket[1].append(pairs[i])
        answers: list = [None] * len(pairs)
        for replica, (positions, sub) in buckets.items():
            answered = replica.query_batch(sub, detail=detail,
                                           resolved=resolved)
            for position, answer in zip(positions, answered):
                answers[position] = answer
        return answers

    def related_batch(self, pairs: list[tuple[str, str]]) -> list[bool]:
        """``query_batch(pairs, detail=False)``."""
        return self.query_batch(pairs, detail=False)

    def resolve_host(self, host: str) -> str | None:
        """Resolve one host on a routed replica."""
        return self._pick(host).resolve_host(host)

    # -- primary-pinned surface -----------------------------------------------

    def snapshot_at(self, version: int | None = None) -> ListSnapshot:
        """A snapshot from the primary's store: by default the version
        the cluster serves (:attr:`epoch`), never an unpromoted
        candidate the store holds past it."""
        return self.primary.store.get(self.epoch.version if version is None
                                      else version)

    def submit(self, rws_set: RelatedWebsiteSet) -> str:
        """Governance submissions pin to the primary's queue."""
        return self.primary.submit(rws_set)

    def poll(self, ticket: str) -> SubmissionStatus:
        """Ticket polls pin to the primary's queue."""
        return self.primary.poll(ticket)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait out the primary's validation queue."""
        return self.primary.drain(timeout=timeout)

    @property
    def queue(self) -> ValidationQueue:
        """The primary's validation queue (terminal report access)."""
        return self.primary.queue

    @property
    def psl(self):
        """The cluster-wide PSL handle (the primary's)."""
        return self.primary.psl

    @property
    def epoch(self) -> Epoch:
        """The primary's current epoch."""
        return self.primary.epoch

    @property
    def index(self) -> MembershipIndex:
        """The primary's current index."""
        return self.primary.index

    @property
    def current_snapshot(self) -> ListSnapshot | None:
        """The primary's current snapshot."""
        return self.primary.current_snapshot

    # -- observability --------------------------------------------------------

    @property
    def stats(self) -> ServiceStats:
        """Cluster-wide request counters (primary + every replica)."""
        total = self.primary.stats
        for replica in self.replicas:
            total.merge(replica.stats)
        return total

    def replica_versions(self) -> list[int]:
        """Each replica's served snapshot version, in replica order."""
        return [replica.version for replica in self.replicas]

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The cluster's metrics, every node captured exactly once.

        The request counters of the primary and every replica, folded
        into one (:attr:`stats`); the served epoch's gauges
        (:attr:`epoch`, the epoch the cluster answers from); the
        primary's write side (epoch codec, validation queue, PSL); and
        the replica fleet: each replica's catch-up counters, summed,
        plus its size, served-version range and pending hops as
        ``cluster.*`` gauges.
        """
        self.stats.write_metrics(registry)
        write_epoch_gauges(registry, self.epoch)
        self.primary.write_side_metrics(registry)
        for replica in self.replicas:
            replica.write_catch_up_metrics(registry)
        versions = self.replica_versions()
        registry.gauge("cluster.replicas", len(self.replicas))
        registry.gauge("cluster.replica_epoch_min", min(versions))
        registry.gauge("cluster.replica_epoch_max", max(versions))
        registry.gauge("cluster.replica_pending_updates", sum(
            replica.pending_updates for replica in self.replicas))
