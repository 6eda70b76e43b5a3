"""The chaos-aware cluster front-end: dynamic membership under fault.

:class:`ChaosRouter` extends :class:`~repro.cluster.router.Router`
with the failure mechanics a :class:`~repro.chaos.plan.FaultPlan`
schedules, while preserving the project's determinism invariant —
every fault fires at a planned logical-clock tick or by a stateless
hash of (seed, replica, hop), never by wall time or arrival order:

* **membership churn** — replicas leave (losing in-flight broadcasts)
  and rejoin, new replicas join mid-workload; a joiner that serves
  some version catches up with one hop from it to the serving
  version, and one that serves none adopts the full authoritative
  snapshot.  Routing reroutes atomically because every read takes one
  consistent view of the joined set (:meth:`_read_replicas`); under
  the ``rendezvous`` policy it stays a function of query content and
  current membership alone.
* **primary failover** — at the planned tick a deterministic election
  (max served version, ties to the lowest replica id) promotes a
  replica to the write role: publishes mint versions in the shared
  snapshot store (the durable substrate that survives the process)
  and the promoted node broadcasts the hop.  The old primary later
  rejoins *as a read replica*; there is no failback.
* **lossy broadcasts** — per (replica, hop) rolls drop, duplicate, or
  delay `receive()` deliveries.  A replica that applies across a gap
  raises :class:`~repro.cluster.replica.ReplicationGapError` and is
  recovered with a full-snapshot resync; dropped hops also schedule an
  anti-entropy heartbeat resync ``resync_delay`` ticks later.  Both
  recoveries count in ``cluster.resyncs``.
* **canary publishes** — when the plan stages rollouts, a publish
  first reaches only the lowest-id ceil(N%) of joined replicas; a
  seeded verdict-divergence probe over old-vs-candidate membership
  decides promote (deliver to the rest) or rollback (canaries revert,
  the store keeps the aborted version, the cluster serves the old
  one).

Governance writes (``submit``/``poll``) stay pinned to the primary
service's validation queue — the queue, like the snapshot store, is
modelled as durable infrastructure rather than a process that dies.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Sequence

from repro.cluster.replica import Replica, ReplicationGapError
from repro.cluster.router import Router
from repro.obs.registry import MetricsRegistry
from repro.rws.model import RwsList
from repro.serve.epoch import Epoch
from repro.serve.index import MembershipIndex
from repro.serve.service import RwsService
from repro.serve.snapshot import ListSnapshot

from repro.chaos.plan import FaultPlan, fault_roll


def _member_sites(rws_list: RwsList) -> list[str]:
    """Every member site of every set, in list order."""
    sites: list[str] = []
    for rws_set in rws_list.sets:
        sites.append(rws_set.primary)
        sites.extend(rws_set.associated)
        sites.extend(rws_set.service)
    return sites


class ChaosRouter(Router):
    """A :class:`Router` executing a seeded :class:`FaultPlan`.

    Args:
        primary: The write-side service; its snapshot store and
            validation queue are the durable substrate that survives
            every injected failure.
        replicas: The initial replica count.
        plan: The fault schedule (pure data; identical in every shard).
        lag: As for :class:`Router`.
        policy: Keep ``rendezvous`` for digest-stable workloads —
            routing must depend on content + membership only.
    """

    def __init__(self, primary: RwsService, replicas: int = 2, *,
                 plan: FaultPlan, lag: int | Sequence[int] = 0,
                 policy: str = "rendezvous"):
        super().__init__(primary, replicas, lag=lag, policy=policy)
        self.plan = plan
        #: The currently-joined (routable) subset of ``self.replicas``.
        self._active: list[Replica] = list(self.replicas)
        self._offline: dict[int, Replica] = {}
        #: The node accepting publishes: the primary service until a
        #: failover promotes a replica.
        self._acting: RwsService | Replica = primary
        self._primary_down = False
        self._counters = {
            "drops": 0, "duplicates": 0, "reorders": 0,
            "leaves": 0, "rejoins": 0, "joins": 0, "failovers": 0,
            "canary_promotes": 0, "canary_rollbacks": 0,
            "bootstrap_hops": 0, "bootstrap_snapshots": 0,
        }
        # Availability accounting: replica-tick capacity actually
        # joined vs the full fleet's, integrated over the clock.
        self._fleet_size = max(1, replicas)
        self._avail_clock = 0
        self._avail_capacity = 0.0
        self._avail_full = 0.0
        #: Scheduled events: (clock, seq, kind, arg) — seq breaks ties
        #: deterministically and keeps args out of heap comparisons.
        self._events: list[tuple[int, int, str, object]] = []
        self._event_seq = itertools.count()
        for replica_id, leave_clock, rejoin_clock in plan.leaves:
            self._push_event(leave_clock, "leave", replica_id)
            if rejoin_clock >= 0:
                self._push_event(rejoin_clock, "rejoin", replica_id)
        for replica_id, join_clock, join_lag in plan.joins:
            self._push_event(join_clock, "join", (replica_id, join_lag))
        if plan.primary_failure is not None:
            fail_clock, rejoin_clock = plan.primary_failure
            self._push_event(fail_clock, "fail_primary", None)
            if rejoin_clock >= 0:
                self._push_event(rejoin_clock, "recover_primary", None)

    # -- plan execution -------------------------------------------------------

    def _push_event(self, clock: int, kind: str, arg: object) -> None:
        heapq.heappush(self._events,
                       (clock, next(self._event_seq), kind, arg))

    def _read_replicas(self) -> list[Replica]:
        return self._active

    def _serving_snapshot(self) -> ListSnapshot | None:
        """The authoritative snapshot: the acting primary's."""
        return self._acting.current_snapshot

    @property
    def acting_primary_id(self) -> int:
        """-1 while the primary service holds the write role, else the
        promoted replica's id."""
        return (self._acting.replica_id
                if isinstance(self._acting, Replica) else -1)

    @property
    def availability(self) -> float:
        """Joined read capacity as a fraction of the full fleet's,
        integrated over the logical clock (1.0 before any tick)."""
        if self._avail_full <= 0:
            return 1.0
        return min(1.0, self._avail_capacity / self._avail_full)

    def _track_availability(self, clock: int) -> None:
        dt = clock - self._avail_clock
        if dt > 0:
            self._avail_capacity += dt * len(self._active)
            self._avail_full += dt * self._fleet_size
            self._avail_clock = clock

    def _advance_replica(self, replica: Replica, clock: int) -> None:
        """Advance one replica, recovering a detected version gap."""
        try:
            replica.advance(clock)
        except ReplicationGapError:
            self._resync(replica)

    def _resync(self, replica: Replica) -> None:
        """Full-snapshot recovery from the acting primary."""
        target = self._serving_snapshot()
        if target is None:
            replica.drop_pending()
            return
        replica.resync(target)
        if self._tracer.live:
            self._tracer.emit("chaos.resync", replica=replica.replica_id,
                              version=target.version)

    def _apply_events(self, clock: int) -> None:
        """Fire every scheduled event at or before ``clock``, in order.

        Replicas are advanced to each event's tick first, so an
        election (or a bootstrap target) sees exactly the replica
        versions the serial run saw on its way to that tick — the
        property that keeps fault history identical across shards.
        """
        while self._events and self._events[0][0] <= clock:
            event_clock, _seq, kind, arg = heapq.heappop(self._events)
            for replica in list(self._active):
                self._advance_replica(replica, event_clock)
            self._track_availability(event_clock)
            getattr(self, f"_on_{kind}")(arg, event_clock)
        self._track_availability(clock)

    def _on_leave(self, replica_id: object, clock: int) -> None:
        replica = next((r for r in self._active
                        if r.replica_id == replica_id), None)
        if replica is None:
            return
        self._active.remove(replica)
        self._offline[replica.replica_id] = replica
        replica.drop_pending()  # in-flight broadcasts are lost with it
        self._counters["leaves"] += 1
        if self._tracer.live:
            self._tracer.emit("chaos.leave", replica=replica.replica_id,
                              joined=len(self._active))
        if replica is self._acting and self._active:
            self._elect()

    def _on_rejoin(self, replica_id: object, clock: int) -> None:
        replica = self._offline.pop(replica_id, None)  # type: ignore[arg-type]
        if replica is None:
            return
        self._bootstrap(replica)
        self._join(replica)
        self._counters["rejoins"] += 1
        if self._tracer.live:
            self._tracer.emit("chaos.rejoin", replica=replica.replica_id,
                              version=replica.version)

    def _on_join(self, arg: object, clock: int) -> None:
        replica_id, join_lag = arg  # type: ignore[misc]
        if any(r.replica_id == replica_id for r in self.replicas):
            return
        replica = Replica(replica_id, self.primary, lag=join_lag)
        if self._tracer.live:
            replica.set_tracer(self._tracer)
            if self.policy == "round-robin" and len(self._active) > 0:
                replica._trace_node = "replica"
        self._bootstrap(replica)
        self.replicas.append(replica)
        self._join(replica)
        self._counters["joins"] += 1
        if self._tracer.live:
            self._tracer.emit("chaos.join", replica=replica.replica_id,
                              joined=len(self._active))

    def _on_fail_primary(self, _arg: object, clock: int) -> None:
        if self._primary_down or not self._active:
            return
        self._primary_down = True
        self._elect()
        self._counters["failovers"] += 1
        if self._tracer.live:
            self._tracer.emit("chaos.failover",
                              promoted=self.acting_primary_id)

    def _on_recover_primary(self, _arg: object, clock: int) -> None:
        if not self._primary_down:
            return
        # The old primary rejoins as a read replica next to the store
        # (lag 0); the promoted node keeps the write role — no
        # failback, so the role history stays monotone and replayable.
        replica_id = max(r.replica_id for r in self.replicas) + 1
        replica = Replica(replica_id, self.primary, lag=0)
        if self._tracer.live:
            replica.set_tracer(self._tracer)
        self._bootstrap(replica)
        self.replicas.append(replica)
        self._join(replica)
        self._counters["rejoins"] += 1
        if self._tracer.live:
            self._tracer.emit("chaos.rejoin", replica=replica.replica_id,
                              version=replica.version)

    def _on_resync(self, replica_id: object, clock: int) -> None:
        """Anti-entropy heartbeat: a drop victim notices its gap."""
        replica = next((r for r in self._active
                        if r.replica_id == replica_id), None)
        if replica is None:
            return
        target = self._serving_snapshot()
        if target is not None and replica.version < target.version:
            self._resync(replica)

    def _join(self, replica: Replica) -> None:
        """Add a replica to the routable set, kept in id order so
        round-robin indexing is as deterministic as membership is."""
        self._active.append(replica)
        self._active.sort(key=lambda r: r.replica_id)

    def _elect(self) -> None:
        """Deterministic election: max version, ties to the lowest id."""
        self._acting = max(self._active,
                           key=lambda r: (r.version, -r.replica_id))

    def _bootstrap(self, replica: Replica) -> None:
        """Bring a joiner up to the serving version.

        A rejoiner (or a joiner booted from a stale primary epoch)
        catches up with one hop from the version it serves to the
        stored serving version; a joiner that serves no version yet
        adopts the full authoritative snapshot.  Either way it starts
        clean — no stale pending hops.
        """
        replica.drop_pending()
        target = self._serving_snapshot()
        if target is None:
            return
        if replica.version >= target.version:
            if replica.version > target.version:
                # Joined ahead of a rolled-back cluster: fall back.
                replica.adopt(target)
                self._counters["bootstrap_snapshots"] += 1
            return
        if replica.version > 0:
            replica.receive(self.primary.store.get(target.version),
                            base_version=replica.version,
                            published_clock=self._clock - replica.lag)
            replica.sync()
            self._counters["bootstrap_hops"] += 1
            return
        replica.adopt(target)
        self._counters["bootstrap_snapshots"] += 1

    # -- clock ----------------------------------------------------------------

    def advance(self, clock: int) -> None:
        """Move the cluster clock: fire due events, catch up replicas."""
        if clock > self._clock:
            self._clock = clock
        self._apply_events(self._clock)
        for replica in list(self._active):
            self._advance_replica(replica, self._clock)

    def has_due(self, clock: int) -> bool:
        """True when advancing to ``clock`` fires any event or catch-up.

        Includes scheduled chaos events: the workload fast path must
        flush its buffer before membership or role transitions so
        buffered decisions are answered by the cluster their users
        actually saw.
        """
        if self._events and self._events[0][0] <= clock:
            return True
        return any(replica.has_due(clock) for replica in self._active)

    # -- publication ----------------------------------------------------------

    def publish(self, rws_list: RwsList, *,
                published_clock: int | None = None) -> ListSnapshot:
        """Publish through the acting primary under the fault plan.

        Returns the snapshot the cluster *serves* after the call: the
        new version on an ordinary or promoted publish, the old one
        when a canary probe rolls the candidate back (the store keeps
        the aborted version in history either way).
        """
        clock = self._clock if published_clock is None else published_clock
        if clock > self._clock:
            self._clock = clock
        self._apply_events(self._clock)
        serving = self._serving_snapshot()
        before = serving.version if serving is not None else 0
        if self.plan.canary_fraction is not None and serving is not None:
            return self._canary_publish(rws_list, clock, serving)
        if self._primary_down:
            snapshot = self.primary.store.publish(rws_list)
            if snapshot.version == before:
                return snapshot
            assert isinstance(self._acting, Replica)
            self._acting.adopt(snapshot)
        else:
            snapshot = self.primary.publish(rws_list)
            if snapshot.version == before:
                return snapshot
        base_version = before or None  # a first publish is adopted whole
        for replica in self._active:
            if replica is self._acting:
                continue
            self._deliver(replica, snapshot, base_version, clock)
        return snapshot

    def _deliver(self, replica: Replica, snapshot: ListSnapshot,
                 base_version: int | None, clock: int) -> None:
        """One broadcast hop through the lossy transport model."""
        plan = self.plan
        replica_id = replica.replica_id
        hop = snapshot.version
        if plan.drop_rate and fault_roll(plan.seed, "drop",
                                         replica_id, hop) < plan.drop_rate:
            self._counters["drops"] += 1
            if plan.resync_delay > 0:
                self._push_event(clock + plan.resync_delay, "resync",
                                 replica_id)
            if self._tracer.live:
                self._tracer.emit("chaos.drop", replica=replica_id, hop=hop)
            return
        delay = 0
        if plan.reorder_rate and fault_roll(plan.seed, "reorder",
                                            replica_id,
                                            hop) < plan.reorder_rate:
            delay = plan.reorder_delay
            self._counters["reorders"] += 1
            if self._tracer.live:
                self._tracer.emit("chaos.reorder", replica=replica_id,
                                  hop=hop, delay=delay)
        replica.receive(snapshot, base_version=base_version,
                        published_clock=clock + delay)
        if plan.duplicate_rate and fault_roll(
                plan.seed, "duplicate", replica_id,
                hop) < plan.duplicate_rate:
            self._counters["duplicates"] += 1
            replica.receive(snapshot, base_version=base_version,
                            published_clock=clock + delay)
            if self._tracer.live:
                self._tracer.emit("chaos.duplicate", replica=replica_id,
                                  hop=hop)
        self._advance_replica(replica, self._clock)

    def _canary_publish(self, rws_list: RwsList, clock: int,
                        serving: ListSnapshot) -> ListSnapshot:
        """Stage a publish through the canary subset, probe, decide."""
        plan = self.plan
        store = self.primary.store
        candidate = store.publish(rws_list)
        if candidate.content_hash == serving.content_hash:
            return candidate  # republication: nothing to stage
        canaries = sorted(self._active, key=lambda r: r.replica_id)
        canaries = canaries[:plan.canary_count(len(self._active))]
        for replica in canaries:
            replica.adopt(candidate)  # staged delivery: canaries first
        divergence = self._probe_divergence(serving, candidate)
        promote = divergence <= plan.canary_max_divergence
        if self._tracer.live:
            self._tracer.emit(
                "chaos.canary", version=candidate.version,
                canaries=len(canaries),
                divergence_bp=int(round(divergence * 10_000)),
                promoted=int(promote))
        if not promote:
            for replica in canaries:
                replica.adopt(serving)  # roll back to the old version
            self._counters["canary_rollbacks"] += 1
            return serving
        self._counters["canary_promotes"] += 1
        # The candidate is already minted in the store; the acting
        # primary adopts it rather than republishing content the store
        # would deduplicate into a no-op.
        self._acting.adopt(candidate)
        staged = set(id(replica) for replica in canaries)
        for replica in self._active:
            if id(replica) in staged or replica is self._acting:
                continue
            self._deliver(replica, candidate, serving.version, clock)
        return candidate

    def _probe_divergence(self, serving: ListSnapshot,
                          candidate: ListSnapshot) -> float:
        """The seeded verdict-divergence probe.

        Samples pairs from the union of both versions' member sites
        (seeded by plan and versions, never by arrival order) and
        compares membership verdicts between freshly compiled indexes
        — no serving replica's counters are touched, and the result is
        a pure function of list contents.
        """
        pairs = self.plan.canary_probe_pairs
        if pairs <= 0:
            return 0.0
        universe = sorted(set(_member_sites(serving.rws_list))
                          | set(_member_sites(candidate.rws_list)))
        if len(universe) < 2:
            return 0.0
        old_index = MembershipIndex.from_list(serving.rws_list)
        new_index = MembershipIndex.from_list(candidate.rws_list)
        rng = random.Random(
            f"{self.plan.seed}|{serving.version}|{candidate.version}")
        diverging = 0
        for _ in range(pairs):
            site_a = universe[rng.randrange(len(universe))]
            site_b = universe[rng.randrange(len(universe))]
            if old_index.related(site_a, site_b) \
                    != new_index.related(site_a, site_b):
                diverging += 1
        return diverging / pairs

    # -- read/serving surface -------------------------------------------------

    @property
    def epoch(self) -> Epoch:
        """The acting primary's current epoch (the publish instant)."""
        return self._acting.epoch

    @property
    def index(self) -> MembershipIndex:
        return self._acting.index

    @property
    def current_snapshot(self) -> ListSnapshot | None:
        return self._acting.current_snapshot

    # -- observability --------------------------------------------------------

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """The cluster's metrics plus availability and ``chaos.*``.

        The served-epoch gauges follow :attr:`epoch`, the acting
        primary's.  ``self.replicas`` keeps every node ever joined —
        including currently-offline ones — so a replica's
        served-request counters never vanish from a report captured
        mid-churn.
        """
        super().write_metrics(registry)
        registry.gauge("cluster.active_replicas", len(self._active))
        registry.gauge("cluster.availability", self.availability)
        for key, value in self._counters.items():
            registry.count(f"chaos.{key}", value)
