"""The `repro.serve` façade: an epoch-swapping shell over immutable state.

:class:`RwsService` ties the serving layer together the way Chrome's
deployment does, but the core is **epoch-immutable**: every publish
compiles a fresh :class:`~repro.serve.epoch.Epoch` (index + snapshot +
PSL handle, constructed once, never mutated) and swaps one reference
under the publication lock.  Queries never take that lock — they
capture the current epoch reference once and serve it to completion,
so a publish landing mid-request can never show a reader a
half-swapped (index, snapshot, version) triple.

The moving parts:

* the **snapshot store** versions every published list
  (:mod:`repro.serve.snapshot`), so clients and replicas update by
  version;
* each publish compiles a new **epoch**
  (:mod:`repro.serve.epoch`) — the membership index is part of the
  immutable value, not mutable service state;
* the **validation queue** accepts new-set submissions asynchronously
  (:mod:`repro.serve.queue`), modelling the GitHub governance pipeline;
* hosts resolve through the epoch's
  :class:`~repro.psl.PublicSuffixList`, whose CLOCK cache is the only
  host cache on the read path; its counted lookups
  (:meth:`~repro.psl.PublicSuffixList.etld_plus_one_counted` and the
  bulk form) hand back each call's hits, so the service's
  ``resolver_*`` counters are counted once, at the PSL's probe;
* request and latency **counters** live in per-thread cells
  (:class:`_StatsCells`): the query hot path bumps plain attributes on
  its own thread's cell — no lock after the epoch capture — and a
  report folds the cells and writes them, with the rest of the
  service's metrics, into a
  :class:`~repro.obs.registry.MetricsRegistry`
  (:meth:`RwsService.write_metrics`).

The read surface lives in :class:`EpochShell` — one point read
(:meth:`~EpochShell.query`) and one batch read
(:meth:`~EpochShell.query_batch`) — which
:class:`~repro.cluster.Replica` reuses verbatim: a replica is the same
lock-free shell over an epoch it advances to the primary's stored
versions instead of by local publishes.

:class:`RwsService` is the engine, not the front door: consumers are
expected to enter through the :class:`~repro.api.dispatcher.Dispatcher`
in :mod:`repro.api` (which accepts a single service or a
:class:`~repro.cluster.Router` over replicas interchangeably).  Call
the service directly only from within the serving layer itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry, MetricsSource
from repro.obs.trace import NULL_TRACER
from repro.psl import PublicSuffixList, default_psl
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.rws.validation import Validator
from repro.serve.epoch import Epoch
from repro.serve.epochfmt import OverlappingSetsError
from repro.serve.index import MembershipIndex, QueryResult
from repro.serve.queue import SubmissionStatus, ValidationQueue
from repro.serve.snapshot import (
    ListSnapshot,
    SnapshotStore,
    StaleSnapshotError,
)


@dataclass
class ServiceStats:
    """Request counters for one service (or replica) instance.

    Attributes:
        queries: Pairwise membership queries answered.
        related_hits: Queries answered "related".
        resolver_hits: Hosts answered from the PSL's cache (a repeat
            within one batch included).
        resolver_misses: Every other host: the PSL's engine ran, or
            its cache is disabled.
        resolver_errors: Hosts answered with no site — invalid, or a
            bare public suffix — once per occurrence.
        publishes: Snapshots published (deduplicated republications
            count too — the request happened; refused lists do not).
        query_ns_total: Cumulative wall-clock nanoseconds in queries.
    """

    queries: int = 0
    related_hits: int = 0
    resolver_hits: int = 0
    resolver_misses: int = 0
    resolver_errors: int = 0
    publishes: int = 0
    query_ns_total: int = 0

    def merge(self, other: ServiceStats) -> None:
        """Fold another stats object into this one (element-wise add)."""
        self.queries += other.queries
        self.related_hits += other.related_hits
        self.resolver_hits += other.resolver_hits
        self.resolver_misses += other.resolver_misses
        self.resolver_errors += other.resolver_errors
        self.publishes += other.publishes
        self.query_ns_total += other.query_ns_total

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The counters under ``serve.*`` (``query_ns_total`` as
        ``serve.query_ns``, which sums across cells and shards)."""
        registry.count("serve.queries", self.queries)
        registry.count("serve.related_hits", self.related_hits)
        registry.count("serve.resolver_hits", self.resolver_hits)
        registry.count("serve.resolver_misses", self.resolver_misses)
        registry.count("serve.resolver_errors", self.resolver_errors)
        registry.count("serve.publishes", self.publishes)
        registry.count("serve.query_ns", self.query_ns_total)


class _StatsCells:
    """Per-thread :class:`ServiceStats` cells, folded on demand.

    The epoch refactor's accounting half: a query thread bumps plain
    attributes on a cell only it writes, so the hot path never takes a
    lock and never loses an increment (the old design folded counters
    under the service RLock on every query).  The registry lock is
    touched once per thread lifetime, when its cell is created.

    Folding reads other threads' cells without stopping them, so a
    report scraped *during* a burst is a momentary approximation; once
    the writing threads are done (or joined), folds are exact.
    """

    __slots__ = ("_local", "_cells", "_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._cells: list[ServiceStats] = []
        self._lock = threading.Lock()

    def cell(self) -> ServiceStats:
        """This thread's private counter cell (created on first use)."""
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = ServiceStats()
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def fold(self) -> ServiceStats:
        """All cells summed into one fresh :class:`ServiceStats`."""
        total = ServiceStats()
        with self._lock:
            cells = list(self._cells)
        for cell in cells:
            total.merge(cell)
        return total


def write_epoch_gauges(registry: MetricsRegistry, epoch: Epoch) -> None:
    """A served epoch's version and index size as ``serve.*`` gauges."""
    registry.gauge("serve.epoch", epoch.version)
    registry.gauge("serve.snapshot_version", epoch.version)
    registry.gauge("serve.index_sites", epoch.index.site_count)
    registry.gauge("serve.index_sets", epoch.index.set_count)


#: Each batch read's shape by ``(detail, resolved)``, the
#: :class:`~repro.api.envelopes.BatchQueryRequest` fields: its span is
#: ``serve.<shape>``, its profiler stage ``<prefix>.<shape>``, and only
#: ``query_batch`` answers verdict objects.  ``resolved`` implies bits.
BATCH_SHAPES = {
    (True, False): "query_batch",
    (False, False): "related_batch",
    (True, True): "related_sites_batch",
    (False, True): "related_sites_batch",
}


@dataclass(slots=True)
class QueryVerdict:
    """A service-level answer to "may these two hosts share storage?".

    Slotted for the same reason as
    :class:`~repro.serve.index.QueryResult`: one is allocated per
    query, so construction cost is throughput.

    Attributes:
        host_a: The raw first host queried.
        host_b: The raw second host queried.
        site_a: host_a's resolved eTLD+1 (None when unresolvable).
        site_b: host_b's resolved eTLD+1.
        result: The index's pairwise result (None when either host
            failed to resolve).
    """

    host_a: str
    host_b: str
    site_a: str | None
    site_b: str | None
    result: QueryResult | None = None

    @property
    def related(self) -> bool:
        """The final verdict; unresolvable hosts are never related."""
        return self.result is not None and self.result.related


class EpochShell(MetricsSource):
    """The lock-free read surface over one swappable epoch reference.

    Everything a *reader* can do to the serving layer lives here:
    capture ``self._epoch`` once, resolve hosts through the epoch's
    PSL, probe the captured index, bump this thread's stats cell.  The
    reads are :meth:`query` for one pair and :meth:`query_batch` for
    every batch shape (plus :meth:`resolve_host`).  No
    method on this class acquires a lock after the epoch capture — the
    property the threaded publish/query stress test in
    ``tests/test_serve.py`` pins down.

    Two shells exist: :class:`RwsService` (which adds the write side —
    store, publishes, validation queue) and
    :class:`~repro.cluster.Replica` (which advances its epoch to the
    primary's stored versions).  Subclasses call
    :meth:`_shell_init` before serving.
    """

    _epoch: Epoch
    _cells: _StatsCells
    _trace_node: str

    def _shell_init(self, psl: PublicSuffixList) -> None:
        self._epoch = Epoch.bootstrap(psl)
        self._cells = _StatsCells()
        # Tracing is off by default: NULL_TRACER.live is False, so the
        # query hot path pays one attribute check per call and nothing
        # else (the ≤2% serve-bench budget in benchmarks/test_bench_obs).
        self._tracer = NULL_TRACER
        self._trace_node = "primary"

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.trace.Tracer` (or detach with
        :data:`~repro.obs.trace.NULL_TRACER`).

        Spans are only recorded inside the tracer's active request
        context, so attaching a tracer never perturbs untraced traffic.
        """
        self._tracer = tracer

    # -- epoch capture --------------------------------------------------------

    @property
    def epoch(self) -> Epoch:
        """The current epoch; capture once for a consistent view."""
        return self._epoch

    @property
    def index(self) -> MembershipIndex:
        """The compiled index of the current epoch."""
        return self._epoch.index

    @property
    def current_snapshot(self) -> ListSnapshot | None:
        """The current epoch's snapshot, or None before any publish."""
        return self._epoch.snapshot

    @property
    def stats(self) -> ServiceStats:
        """All per-thread counter cells folded into one snapshot."""
        return self._cells.fold()

    # -- queries --------------------------------------------------------------

    def resolve_host(self, host: str) -> str | None:
        """A host's eTLD+1 via the PSL cache (None when unresolvable)."""
        site, hit = self._epoch.psl.etld_plus_one_counted(host)
        cell = self._cells.cell()
        if hit:
            cell.resolver_hits += 1
        else:
            cell.resolver_misses += 1
        if site is None:
            cell.resolver_errors += 1
        tracer = self._tracer
        if tracer.live:
            tracer.emit("psl.resolve", host=host, site=site)
        return site

    def query(self, host_a: str, host_b: str) -> QueryVerdict:
        """Answer one pairwise storage-access membership query.

        Thread-safe and lock-free: the epoch reference is captured
        once, so a query serves one consistent snapshot even if a
        publish lands mid-flight, and the stats land in this thread's
        private cell.
        """
        started = time.perf_counter_ns()
        epoch = self._epoch
        cell = self._cells.cell()
        lookup = epoch.psl.etld_plus_one_counted
        site_a, hit_a = lookup(host_a)
        site_b, hit_b = lookup(host_b)
        hits = hit_a + hit_b
        cell.resolver_hits += hits
        cell.resolver_misses += 2 - hits
        if site_a is None or site_b is None:
            cell.resolver_errors += (site_a is None) + (site_b is None)
            result = None
        else:
            result = epoch.index.query(site_a, site_b)
        verdict = QueryVerdict(host_a=host_a, host_b=host_b,
                               site_a=site_a, site_b=site_b, result=result)
        cell.queries += 1
        if verdict.related:
            cell.related_hits += 1
        cell.query_ns_total += time.perf_counter_ns() - started
        tracer = self._tracer
        if tracer.live:
            # Stage chain for the request trace: resolve, resolve,
            # index probe.  Annotations are logical values only (hosts,
            # sites, the verdict) — never timing — so the same seeded
            # request digests identically on any node.
            tracer.emit("psl.resolve", host=host_a, site=site_a)
            tracer.emit("psl.resolve", host=host_b, site=site_b)
            tracer.emit("serve.query", node=self._trace_node,
                        related=verdict.related)
        return verdict

    def query_batch(self, pairs: list[tuple[str | None, str | None]], *,
                    detail: bool = True, resolved: bool = False) -> list:
        """The one batch read: :meth:`query` over many pairs at once.

        The keywords are :class:`~repro.api.envelopes.BatchQueryRequest`'s
        own fields, and :data:`BATCH_SHAPES` names the shape they
        select.  Host pairs resolve in one counted bulk PSL pass;
        ``resolved`` pairs are already sites (lower-case eTLD+1 values,
        or None for a host the client could not resolve), so the
        resolver is skipped and the answer is bits whatever ``detail``
        says.  ``detail`` answers a :class:`QueryVerdict` per pair,
        identical to the per-pair :meth:`query` loop; otherwise only
        the related bit per pair.  One epoch capture, one fold into
        this thread's stats cell and one span per call.
        """
        if not pairs:
            return []
        started = time.perf_counter_ns()
        epoch = self._epoch
        cell = self._cells.cell()
        shape = BATCH_SHAPES[detail, resolved]
        if not resolved:
            sites, hits = epoch.psl.etld_plus_one_many_counted(
                [host for pair in pairs for host in pair])
            cell.resolver_hits += hits
            cell.resolver_misses += len(sites) - hits
            cell.resolver_errors += sites.count(None)
        if shape == "query_batch":  # host pairs: resolved implies bits
            index_query = epoch.index.query
            answers = []
            append = answers.append
            related_hits = 0
            for (host_a, host_b), site_a, site_b in zip(pairs, sites[0::2],
                                                        sites[1::2]):
                if site_a is None or site_b is None:
                    result = None
                else:
                    result = index_query(site_a, site_b)
                    if result.related:
                        related_hits += 1
                append(QueryVerdict(host_a, host_b, site_a, site_b, result))
        else:
            # Sites from the PSL or the client are already normalised,
            # with None for failures.
            answers = epoch.index.related_batch_normalized(
                pairs if resolved else zip(sites[0::2], sites[1::2]))
            related_hits = sum(answers)
        cell.queries += len(pairs)
        cell.related_hits += related_hits
        cell.query_ns_total += time.perf_counter_ns() - started
        tracer = self._tracer
        if tracer.live:
            tracer.emit("serve." + shape, node=self._trace_node,
                        pairs=len(pairs), related=related_hits)
        return answers

    def related_batch(self, pairs: list[tuple[str, str]]) -> list[bool]:
        """``query_batch(pairs, detail=False)``."""
        return self.query_batch(pairs, detail=False)

    # -- observability --------------------------------------------------------

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The folded stats cells and the served epoch's gauges.

        The epoch is captured as one reference, so its version and
        index fields cannot drift apart.  A report scraped during a
        burst is a momentary approximation of in-flight threads'
        cells, and exact once they finish.
        """
        self._cells.fold().write_metrics(registry)
        write_epoch_gauges(registry, self._epoch)


@dataclass
class RwsService(EpochShell):
    """The serving layer over one (evolving) RWS list.

    The write side of the epoch model: :meth:`publish` compiles a new
    :class:`~repro.serve.epoch.Epoch` and swaps the shell's single
    epoch reference under the publication lock (publishers serialize;
    readers never wait).  All read traffic is inherited from
    :class:`EpochShell`.

    Args:
        psl: Public suffix list that resolves hosts (its cache is the
            service's only host cache: pass ``cache_size=0`` for a
            cold service) and backs the validator.
        validator: Validation engine for the submission queue (a
            structure-only validator over the served list by default).
        workers: Validation worker threads.
    """

    psl: PublicSuffixList = field(default_factory=default_psl)
    validator: Validator | None = None
    workers: int = 4

    def __post_init__(self) -> None:
        # The lock covers the *write* side only: the store append, the
        # epoch-reference swap, and the validator repoint.  Queries
        # never touch it — they capture the epoch reference and their
        # own thread's stats cell.
        self._lock = threading.RLock()
        self.store = SnapshotStore()
        self._epoch_encodes = 0
        self._epoch_encode_ns = 0
        self._epoch_loads = 0
        self._epoch_load_ns = 0
        self._shell_init(self.psl)
        if self.validator is None:
            self.validator = Validator(psl=self.psl)
        self.queue = ValidationQueue(self.validator, workers=self.workers)

    # -- publication ----------------------------------------------------------

    def publish(self, rws_list: RwsList) -> ListSnapshot:
        """Publish a list snapshot and swap in a freshly compiled epoch.

        The validator's overlap rule is repointed at the new snapshot,
        so queued submissions are checked against what is being served.
        Republishing content identical to the served snapshot is a
        no-op beyond the counter (the store deduplicates it, and the
        current epoch — index identity included — stays in place).

        A list that puts a site in two sets is refused: the store drops
        the version it minted (:meth:`_compile`), so nothing served or
        stored changes, and publishing the same list again is refused
        again.

        Thread-safe: the store append, the epoch swap, and the
        validator repoint happen under the publication lock, so
        concurrent publishers serialize and a validation worker never
        observes a half-published state.  Readers are unaffected — the
        swap is one reference store, and any epoch they already
        captured stays internally consistent.

        Raises:
            repro.serve.epochfmt.OverlappingSetsError: When the list
                puts a site in two sets.
        """
        with self._lock:
            previous = self.store.latest
            snapshot = self.store.publish(rws_list)
            fresh = snapshot is not previous
            if fresh:
                epoch = self._compile(snapshot)
                self._epoch = epoch
                assert self.validator is not None
                self.validator.set_published(snapshot.rws_list,
                                             index=epoch.index)
            self._cells.cell().publishes += 1
        tracer = self._tracer
        if fresh and tracer.live:
            # Recorded only when a publish happens *inside* a traced
            # request (spans outside a request context are dropped):
            # background publishes are partition-dependent and must not
            # reach the trace digest.
            tracer.emit("serve.publish", version=snapshot.version)
        return snapshot

    def adopt(self, snapshot: ListSnapshot) -> bool:
        """Swap the serving epoch to a snapshot already in the store.

        The staged-rollout promote path: a canary publish mints its
        candidate directly in the store (so a rollback can abandon it
        without ever disturbing the serving epoch), and on promotion
        the service *adopts* the minted snapshot rather than
        republishing content the store would deduplicate.  Adopting the
        already-served version is a no-op.

        Returns:
            True when the serving epoch changed.
        """
        with self._lock:
            if snapshot.version == self._epoch.version:
                return False
            epoch = self._compile(snapshot)
            self._epoch = epoch
            assert self.validator is not None
            self.validator.set_published(snapshot.rws_list,
                                         index=epoch.index)
        return True

    def _compile(self, snapshot: ListSnapshot) -> Epoch:
        """:meth:`Epoch.compile` under the publication lock, counted as
        one epoch encode.

        A publish encodes each version it mints here first, and so do a
        cluster's canary and failover paths, whose replicas ask
        :meth:`encoded_epoch` for the version the cluster minted.  So
        when the encoder refuses the list, the refused snapshot is the
        store's latest and was never served: it is dropped before the
        error propagates, and the store keeps only servable versions.
        """
        started = time.perf_counter_ns()
        try:
            epoch = Epoch.compile(snapshot, self.psl)
        except OverlappingSetsError:
            if self.store.latest is snapshot:
                self.store.snapshots.pop()
            raise
        self._epoch_encodes += 1
        self._epoch_encode_ns += time.perf_counter_ns() - started
        return epoch

    def encoded_epoch(self, version: int | None = None) -> bytes | None:
        """The binary-encoded epoch for ``version`` (default: current).

        The served epoch's own buffer, so N resyncing replicas (or N
        fanned-out shards) cost no encode at all; an older version
        still in the store is encoded on demand.  Buffers carry no PSL
        trie — every in-process consumer shares the service's resolver.

        Returns ``None`` for versions the store no longer resolves
        (and for the pre-publish bootstrap epoch, which has no
        snapshot to encode).
        """
        with self._lock:
            epoch = self._epoch
            if version is not None and version != epoch.version:
                try:
                    snapshot = self.store.get(version)
                except StaleSnapshotError:
                    return None
                epoch = self._compile(snapshot)
                tracer = self._tracer
                if tracer.live:
                    tracer.emit("epoch.encode", version=version,
                                bytes=len(epoch.buffer))
            if epoch.snapshot is None:
                return None
            return epoch.to_buffer()

    def adopt_encoded(self, buf) -> ListSnapshot:
        """Adopt a binary-encoded epoch as the serving epoch.

        The O(size) spin-up path: the buffer's array-backed index view
        is swapped in directly — no encode.  If the encoded
        version extends this service's store by exactly one, the lazy
        snapshot is appended so the store keeps resolving every served
        version; adopting a version already in the store just swaps
        the epoch.

        Raises:
            StaleSnapshotError: When adopting the buffer would leave a
                version gap in the store.
            ValueError: When the buffer carries no snapshot (a
                bootstrap epoch is not adoptable).
            repro.serve.epochfmt.EpochFormatError: On a corrupt or
                truncated buffer.
        """
        started = time.perf_counter_ns()
        epoch = Epoch.from_buffer(buf, psl=self.psl)
        elapsed = time.perf_counter_ns() - started
        if epoch.snapshot is None:
            raise ValueError(
                "encoded epoch carries no snapshot to adopt")
        with self._lock:
            self._epoch_loads += 1
            self._epoch_load_ns += elapsed
            count = len(self.store.snapshots)
            if epoch.version == count + 1:
                self.store.snapshots.append(epoch.snapshot)
            elif epoch.version > count + 1:
                raise StaleSnapshotError(
                    f"cannot adopt encoded v{epoch.version}: store holds "
                    f"versions 1..{count}")
            self._cells.cell().publishes += 1
            self._epoch = epoch
            assert self.validator is not None
            self.validator.set_published(epoch.snapshot.rws_list,
                                         index=epoch.index)
        tracer = self._tracer
        if tracer.live:
            tracer.emit("epoch.load", version=epoch.version,
                        bytes=len(buf))
        return epoch.snapshot

    def snapshot_at(self, version: int | None = None) -> ListSnapshot:
        """The stored snapshot at ``version``: by default the one this
        service serves, which need not be the store's latest.

        Raises:
            StaleSnapshotError: For a version the store does not hold.
        """
        return self.store.get(self._epoch.version if version is None
                              else version)

    # -- governance -----------------------------------------------------------

    def submit(self, rws_set: RelatedWebsiteSet) -> str:
        """Queue a proposed set for validation; returns a ticket id."""
        return self.queue.submit(rws_set)

    def poll(self, ticket: str) -> SubmissionStatus:
        """Status of a queued submission."""
        return self.queue.poll(ticket)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for all queued submissions to reach a terminal status."""
        return self.queue.drain(timeout=timeout)

    # -- observability --------------------------------------------------------

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The shell's metrics plus :meth:`write_side_metrics`."""
        super().write_metrics(registry)
        self.write_side_metrics(registry)

    def write_side_metrics(self, registry: MetricsRegistry) -> None:
        """The write side: the epoch codec's ``epoch.*`` counters, the
        validation queue's four ``queue.*`` counters (one locked
        snapshot) and the PSL's cache as ``psl.*``.

        The ``psl.*`` metrics describe the underlying
        :class:`PublicSuffixList` instance; with the default
        :func:`default_psl` singleton they are process-wide (shared
        with every other subsystem using that PSL), not per-service.
        Construct the service with ``default_psl().counting_view()``
        for counters of its own over the shared cache, or with its own
        ``PublicSuffixList()`` for an isolated cache too.
        """
        registry.count("epoch.encodes", self._epoch_encodes)
        registry.count("epoch.encode_ns", self._epoch_encode_ns)
        registry.count("epoch.loads", self._epoch_loads)
        registry.count("epoch.load_ns", self._epoch_load_ns)
        queue_stats = self.queue.stats_snapshot()
        registry.count("queue.submitted", queue_stats.submitted)
        registry.count("queue.passed", queue_stats.passed)
        registry.count("queue.rejected", queue_stats.rejected)
        registry.count("queue.errored", queue_stats.errored)
        for key, value in self.psl.cache_stats().items():
            if key in ("size", "maxsize"):
                registry.gauge(f"psl.{key}", value)
            else:
                registry.count(f"psl.{key}", value)
