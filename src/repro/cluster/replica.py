"""Read replicas: the primary's epochs, adopted by version, with lag.

A :class:`Replica` is the same lock-free
:class:`~repro.serve.service.EpochShell` read surface as the primary
:class:`~repro.serve.service.RwsService`, but its epoch advances by
*catching up* instead of by local publishes: the
:class:`~repro.cluster.router.Router` broadcasts one hop per publish
(the primary's stored :class:`~repro.serve.snapshot.ListSnapshot` and
the version it was published over), each replica holds the broadcast
until its configured propagation lag has elapsed on the cluster's
logical clock, and a lagging replica that has accumulated several hops
checks that they chain from the version it serves and then serves the
last one, skipping the versions in between.  This is the paper's real
deployment shape: millions of browser instances converge on a list
update at different times.  The replica serves the primary's own copy
of the version, so it answers exactly as the primary does: a new view
over the primary's held buffer when the primary still serves that
version (no encode), else an encode of the stored snapshot.

Lag is measured on a deterministic logical clock (the workload driver
advances it with the global user index), never wall time, so staleness
— and therefore every decision a stale replica serves — is
bit-reproducible across runs, shard counts, and executors.

Delivery is **not** assumed reliable or ordered: a lossy transport
(modelled by :mod:`repro.chaos`) may drop, duplicate, or reorder the
broadcast hops.  Catch-up therefore sorts due updates by target
version, silently skips hops the replica has already applied
(:attr:`Replica.duplicates_ignored`), and refuses to jump across a
missing hop — a version gap raises the structured
:class:`ReplicationGapError` naming exactly what the replica has and
what it needs, so a supervisor can recover with a full-snapshot
:meth:`Replica.resync` (counted in :attr:`Replica.resyncs`).
"""

from __future__ import annotations

import threading
import time

from repro.obs.registry import MetricsRegistry
from repro.serve.epoch import Epoch
from repro.serve.service import EpochShell, RwsService
from repro.serve.snapshot import ListSnapshot, StaleSnapshotError

#: One broadcast hop: the version the primary published it over (None
#: for the first publish, which is adopted whole) and the stored
#: snapshot it published.
Hop = tuple[int | None, ListSnapshot]


class ReplicationGapError(StaleSnapshotError):
    """A hop chain skips over a hop this replica never received.

    Applying it anyway would silently misrepresent list membership, so
    catch-up stops and reports the exact gap instead.  The chaos
    layer's recovery path answers with a full-snapshot
    :meth:`Replica.resync`.

    Attributes:
        replica_id: The replica that detected the gap.
        have_version: The snapshot version the replica serves.
        need_version: The base version the next pending hop expects.
    """

    def __init__(self, replica_id: int, have_version: int,
                 need_version: int):
        super().__init__(
            f"replica {replica_id} serves v{have_version} but the next "
            f"hop needs base v{need_version}: broadcast hop(s) lost")
        self.replica_id = replica_id
        self.have_version = have_version
        self.need_version = need_version


class Replica(EpochShell):
    """One read replica converging on the primary's snapshots.

    A freshly constructed replica boots from the primary's *current*
    epoch (the full-snapshot bootstrap every component-updater client
    performs once), then follows per-publish hops delivered through
    :meth:`receive`.

    Args:
        replica_id: Stable identity (rendezvous routing hashes it).
        primary: The service whose snapshots this replica follows.
        lag: Propagation delay in logical-clock ticks: a hop
            published at clock ``t`` becomes applicable at
            ``t + lag``.  0 means the replica converges inside the
            router's publish call.

    Hosts resolve through the primary's PSL, so the replica shares its
    cache (and its ``psl.*`` counters) with the primary.
    """

    def __init__(self, replica_id: int, primary: RwsService, *,
                 lag: int = 0):
        self.replica_id = replica_id
        self.primary = primary
        self.lag = max(0, lag)
        self._shell_init(primary.psl)
        self._trace_node = f"replica-{replica_id}"
        self._epoch = primary.epoch  # full-snapshot bootstrap
        #: (due_clock, hop) queue.
        self._pending: list[tuple[int, Hop]] = []
        self._clock = 0
        #: Catch-up bookkeeping: how many epoch swaps catch-up made,
        #: and how many broadcast hops they covered.
        self.catch_ups = 0
        self.hops_applied = 0
        #: Robustness bookkeeping: full-snapshot recoveries taken and
        #: already-applied hops a lossy transport redelivered.
        self.resyncs = 0
        self.duplicates_ignored = 0
        #: Binary-epoch bookkeeping: full-snapshot adoptions served
        #: from the primary's encoded buffer instead of an encode.
        self.epoch_loads = 0
        self.epoch_load_ns = 0
        # Guards _pending and the catch-up sequence only; the query
        # path (EpochShell) never touches it.
        self._sync_lock = threading.Lock()

    @property
    def version(self) -> int:
        """The snapshot version this replica currently serves."""
        return self._epoch.version

    @property
    def lagging(self) -> bool:
        """True while broadcast updates are waiting to be applied."""
        return bool(self._pending)

    @property
    def pending_updates(self) -> int:
        """How many broadcast hops are waiting on this replica's lag."""
        return len(self._pending)

    # -- propagation ----------------------------------------------------------

    def receive(self, snapshot: ListSnapshot, *, base_version: int | None,
                published_clock: int) -> None:
        """Accept one broadcast publish, applicable after this lag.

        Args:
            snapshot: The version the primary published, as its store
                holds it.
            base_version: The version it was published over; None for
                the first publish, which is adopted as a full snapshot.
            published_clock: The cluster clock when the primary
                published; the hop applies at
                ``published_clock + self.lag``.
        """
        with self._sync_lock:
            self._pending.append((published_clock + self.lag,
                                  (base_version, snapshot)))

    def has_due(self, clock: int) -> bool:
        """True when advancing to ``clock`` would apply an update.

        Scans the whole queue rather than its head: a reordering
        transport may deliver a later hop with an earlier due time.
        """
        return any(due <= clock for due, _ in self._pending)

    def advance(self, clock: int) -> bool:
        """Advance the logical clock, applying every due update.

        A contiguous run of due hops is one application, which serves
        the run's last version; a due first-publish hop adopts its
        snapshot directly.  Redelivered hops are skipped
        (:attr:`duplicates_ignored`).

        Returns:
            True when the replica's epoch changed.

        Raises:
            ReplicationGapError: When a due hop's base version is
                ahead of this replica — a hop was lost in transit.
                Updates due before the gap have been applied; recover
                with :meth:`resync`.
        """
        with self._sync_lock:
            self._clock = max(self._clock, clock)
            due = [hop for when, hop in self._pending
                   if when <= self._clock]
            if not due:
                return False
            self._pending = [(when, hop) for when, hop
                             in self._pending if when > self._clock]
            return self._apply_updates(due)

    def sync(self) -> bool:
        """Catch up fully, ignoring lag (drain everything pending).

        The recovery path — and the convergence step a zero-lag
        cluster rides on every publish.  Draining does **not** move
        the replica's logical clock: a synced replica still owes its
        configured lag on every subsequent publish.

        Returns:
            True when the replica's epoch changed.
        """
        with self._sync_lock:
            if not self._pending:
                return False
            due = [hop for _, hop in self._pending]
            self._pending.clear()
            return self._apply_updates(due)

    def resync(self, snapshot: ListSnapshot | None = None) -> bool:
        """Recover by adopting a full authoritative snapshot.

        The answer to :class:`ReplicationGapError`: instead of waiting
        for lost hops that will never arrive, the replica abandons its
        pending queue and recompiles from the primary's current
        snapshot (or an explicitly supplied one — the chaos router
        passes the acting primary's, which may be ahead of a failed
        primary's).  Counted in :attr:`resyncs`.

        Returns:
            True when the replica's epoch changed.
        """
        with self._sync_lock:
            if snapshot is None:
                snapshot = self.primary.current_snapshot
            self._pending.clear()
            self.resyncs += 1
            if snapshot is None or snapshot.version == self.version:
                return False
            self._adopt(snapshot)
        return True

    def drop_pending(self) -> int:
        """Discard every queued broadcast (an offline replica loses
        whatever was in flight).  Returns how many hops were dropped."""
        with self._sync_lock:
            dropped = len(self._pending)
            self._pending.clear()
        return dropped

    def adopt(self, snapshot: ListSnapshot) -> bool:
        """Adopt a full snapshot directly (a staged-rollout delivery or
        a joiner's bootstrap), without touching the pending queue.

        Unlike :meth:`resync` this is not a recovery: it counts as an
        ordinary catch-up.  Adopting the already-served version is a
        no-op.  A canary *rollback* also lands here — the snapshot may
        be an older version than the one currently served.

        Returns:
            True when the replica's epoch changed.
        """
        with self._sync_lock:
            if snapshot.version == self.version:
                return False
            self._adopt(snapshot)
        return True

    # -- catch-up internals (caller holds _sync_lock) -------------------------

    def _apply_updates(self, due: list[Hop]) -> bool:
        """Apply drained hops, tolerating loss artefacts.

        Hops are ordered by target version (a lossy transport may
        deliver them out of order), already-applied hops are skipped,
        and each contiguous run is one application.  Returns True when
        the epoch changed.
        """
        ordered = sorted(due, key=lambda hop: hop[1].version)
        before = self._epoch.version
        chain: list[Hop] = []
        for base_version, snapshot in ordered:
            if base_version is not None:
                chain.append((base_version, snapshot))
                continue
            self._apply_chain(chain)
            chain = []
            if snapshot.version <= self._epoch.version:
                self.duplicates_ignored += 1
            else:
                self._adopt(snapshot)
        self._apply_chain(chain)
        return self._epoch.version != before

    def _adopt(self, snapshot: ListSnapshot) -> None:
        """Adopt a full snapshot (a first-publish hop, say).

        Prefers the primary's binary-encoded epoch
        (:meth:`~repro.serve.service.RwsService.encoded_epoch`) — an
        O(size) buffer load instead of an encode, so N replicas
        bootstrapping or resyncing after a
        :class:`ReplicationGapError` reuse the buffer the primary
        encoded when it published.  Falls back to
        :meth:`~repro.serve.epoch.Epoch.compile` when the primary has
        no encoder (a bare shell), no longer resolves the version, or
        the buffer's content hash does not match the snapshot it was
        asked to stand in for.
        """
        epoch: Epoch | None = None
        encoded = getattr(self.primary, "encoded_epoch", None)
        if encoded is not None:
            buf = encoded(snapshot.version)
            if buf is not None:
                started = time.perf_counter_ns()
                loaded = Epoch.from_buffer(buf, psl=self._epoch.psl)
                if loaded.content_hash == snapshot.content_hash:
                    self.epoch_loads += 1
                    self.epoch_load_ns += \
                        time.perf_counter_ns() - started
                    epoch = loaded
        if epoch is None:
            epoch = Epoch.compile(snapshot, self._epoch.psl)
        self._epoch = epoch
        self.catch_ups += 1
        self.hops_applied += 1

    def _apply_chain(self, chain: list[Hop]) -> None:
        """Serve the last version of a hop run.

        Hops whose target the replica already serves (duplicates, or
        stale redeliveries after a resync) are dropped; the surviving
        run must chain contiguously from the served version or a
        :class:`ReplicationGapError` names the missing base.
        """
        if not chain:
            return
        current = self._epoch.version
        fresh: list[Hop] = []
        covered: set[int] = set()
        for base_version, snapshot in chain:
            if snapshot.version <= current or snapshot.version in covered:
                self.duplicates_ignored += 1
                continue
            covered.add(snapshot.version)
            fresh.append((base_version, snapshot))
        if not fresh:
            return
        expected = current
        for base_version, snapshot in fresh:
            if base_version != expected:
                raise ReplicationGapError(self.replica_id, expected,
                                          base_version)
            expected = snapshot.version
        snapshot = fresh[-1][1]
        psl = self._epoch.psl
        served = self.primary.epoch
        if served.snapshot is snapshot and served.buffer is not None:
            self._epoch = Epoch.over(served.buffer, snapshot, psl)
        else:
            self._epoch = Epoch.compile(snapshot, psl)
        self.catch_ups += 1
        self.hops_applied += len(fresh)

    # -- observability --------------------------------------------------------

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The shell's metrics, this replica's catch-up counters, and
        its id and pending hop count as ``cluster.*`` gauges."""
        super().write_metrics(registry)
        self.write_catch_up_metrics(registry)
        registry.gauge("cluster.replica", self.replica_id)
        registry.gauge("cluster.replica_pending_updates",
                       len(self._pending))

    def write_catch_up_metrics(self, registry: MetricsRegistry) -> None:
        """The catch-up bookkeeping as counters, which a
        :class:`~repro.cluster.Router` sums over its replicas."""
        registry.count("cluster.replica_catch_ups", self.catch_ups)
        registry.count("cluster.replica_hops_applied", self.hops_applied)
        registry.count("cluster.resyncs", self.resyncs)
        registry.count("cluster.duplicates_ignored", self.duplicates_ignored)
        registry.count("epoch.loads", self.epoch_loads)
        registry.count("epoch.load_ns", self.epoch_load_ns)
