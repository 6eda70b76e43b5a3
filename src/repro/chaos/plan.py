"""Seeded fault plans: every injected failure keyed to the logical clock.

A :class:`FaultPlan` is pure data — a frozen dataclass of primitives,
picklable across process shards exactly like a
:class:`~repro.workload.scenarios.Scenario` — describing *when* the
cluster is attacked (membership churn and primary failure at absolute
logical-clock ticks) and *how hard* its broadcast transport misbehaves
(drop/duplicate/reorder rates).  Nothing in a plan, and nothing in its
execution, consults wall time or stateful RNG:

* membership and failover events carry absolute clocks, so a shard
  whose user range starts past an event applies it during its first
  clock advance exactly as the serial run did on the way there;
* per-hop transport faults are decided by :func:`fault_roll`, a
  stateless hash of ``(seed, kind, replica_id, hop_version)`` — never
  by arrival order, RNG draw order, or how traffic was partitioned.

That is what keeps a chaos workload's outcome digest bit-identical
across runs, shard counts, and executors: every shard replays the same
fault history because the history is a function, not a log.

Named plans live in :data:`CHAOS_PLANS` as builders parameterised by
the run's total user count (event fractions become absolute clocks)
and the scenario's lag stagger; :func:`chaos_plan` materialises one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro import sha256


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault schedule (all fields primitive and picklable).

    Attributes:
        name: The plan's registry name (also salts the fault rolls).
        seed: Salt for :func:`fault_roll` decisions and the canary
            probe's pair sample.
        leaves: ``(replica_id, leave_clock, rejoin_clock)`` triples —
            the replica drops out of routing (losing any in-flight
            broadcasts) at ``leave_clock`` and rejoins at
            ``rejoin_clock`` (-1: never), bootstrapping with one hop
            from the version it serves, or a full snapshot.
        joins: ``(replica_id, join_clock, lag)`` triples — a brand-new
            replica joins mid-workload with the given propagation lag,
            bootstrapping from the acting primary's snapshot.
        primary_failure: ``(fail_clock, rejoin_clock)`` — the primary
            stops accepting writes at ``fail_clock`` (a deterministic
            election promotes a replica) and rejoins *as a read
            replica* at ``rejoin_clock`` (-1: never).  There is no
            failback: the promoted replica keeps the write role.
        drop_rate: Per (replica, hop) probability a broadcast
            :meth:`~repro.cluster.Replica.receive` is dropped.
        duplicate_rate: Probability a delivered hop is delivered twice.
        reorder_rate: Probability a delivered hop is delayed by
            ``reorder_delay`` extra ticks (so a later hop can overtake
            it — the out-of-order arrival case).
        reorder_delay: Extra ticks a reordered hop is held back.
        resync_delay: Ticks after a *dropped* hop at which the victim
            replica's anti-entropy heartbeat notices the version gap
            and takes a full-snapshot resync (counted in
            ``cluster.resyncs``).
        canary_fraction: When set, publishes stage through a canary
            subset of ceil(fraction * joined replicas) (lowest ids
            first) and a verdict-divergence probe decides
            promote-vs-rollback.
        canary_probe_pairs: Seeded site pairs the divergence probe
            evaluates on old vs candidate epochs.
        canary_max_divergence: Promote iff the diverging fraction is
            at or below this threshold; otherwise roll the canaries
            back and keep serving the old version.
    """

    name: str
    seed: int = 0
    leaves: tuple[tuple[int, int, int], ...] = ()
    joins: tuple[tuple[int, int, int], ...] = ()
    primary_failure: tuple[int, int] | None = None
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay: int = 0
    resync_delay: int = 0
    canary_fraction: float | None = None
    canary_probe_pairs: int = 0
    canary_max_divergence: float = 0.0

    def canary_count(self, joined: int) -> int:
        """How many of ``joined`` replicas stage a canary publish."""
        if self.canary_fraction is None or joined <= 0:
            return 0
        return min(joined, max(1, math.ceil(self.canary_fraction * joined)))


def fault_roll(seed: int, kind: str, replica_id: int, hop: int) -> float:
    """A stateless uniform draw in [0, 1) for one fault decision.

    sha256 over ``(seed, kind, replica_id, hop)`` rather than a shared
    RNG stream: every shard (and every run) asks the same question and
    gets the same answer regardless of the order questions are asked
    in — the property a stateful ``random.Random`` cannot give once
    shards replay different slices of the clock.
    """
    digest = sha256(
        f"{seed}|{kind}|{replica_id}|{hop}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


# -- the named plans ----------------------------------------------------------


def _replica_churn(total_users: int, lag_stagger: int) -> FaultPlan:
    """Replica 1 leaves and later rejoins; a fresh replica joins."""
    stagger = max(1, lag_stagger)
    return FaultPlan(
        name="replica-churn",
        seed=11,
        leaves=((1, total_users // 4, (3 * total_users) // 4),),
        joins=((101, (2 * total_users) // 5, 2 * stagger),),
    )


def _failover(total_users: int, lag_stagger: int) -> FaultPlan:
    """The primary fails before the mid-flight publish, rejoins after."""
    return FaultPlan(
        name="failover",
        seed=23,
        primary_failure=((3 * total_users) // 10, (4 * total_users) // 5),
    )


def _lossy_replication(total_users: int, lag_stagger: int) -> FaultPlan:
    """Broadcast hops dropped, duplicated, and reordered at high rates."""
    stagger = max(1, lag_stagger)
    return FaultPlan(
        name="lossy-replication",
        seed=37,
        drop_rate=0.45,
        duplicate_rate=0.30,
        reorder_rate=0.30,
        reorder_delay=2 * stagger,
        resync_delay=5 * stagger,
    )


def _canary_rollback(total_users: int, lag_stagger: int) -> FaultPlan:
    """Staged rollout of the takedown; the divergence probe rejects it.

    The takedown removes an oversized set, so the candidate's verdicts
    diverge massively from the serving version's — far past the strict
    threshold — and the canaries roll back.  (A benign update like the
    seed profile's v2 stays under the threshold and promotes; the
    chaos tests pin both directions.)
    """
    return FaultPlan(
        name="canary-rollback",
        seed=41,
        canary_fraction=0.5,
        canary_probe_pairs=64,
        canary_max_divergence=0.02,
    )


#: Plan name -> builder(total_users, lag_stagger) -> materialised plan.
CHAOS_PLANS: dict[str, Callable[[int, int], FaultPlan]] = {
    "replica-churn": _replica_churn,
    "failover": _failover,
    "lossy-replication": _lossy_replication,
    "canary-rollback": _canary_rollback,
}


def chaos_plan(name: str, total_users: int, lag_stagger: int = 0) -> FaultPlan:
    """Materialise a named plan against a run's clock horizon.

    Args:
        name: Key into :data:`CHAOS_PLANS`.
        total_users: The run's total user count — the logical-clock
            horizon event fractions scale against.
        lag_stagger: The scenario's per-replica lag stagger; reorder
            and resync delays scale with it so the injected windows
            stay visible relative to ordinary propagation lag.

    Raises:
        KeyError: With the known names, for unknown plans.
    """
    try:
        builder = CHAOS_PLANS[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_PLANS))
        raise KeyError(
            f"unknown chaos plan {name!r} (known: {known})") from None
    return builder(max(0, total_users), max(0, lag_stagger))
