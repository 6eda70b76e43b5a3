"""Seeded fault injection for the replicated serving cluster.

The paper's deployment — millions of browser instances converging on
list updates through an unreliable component updater — does not fail
cleanly: clients drop off mid-update, updates arrive late, twice, or
not at all, and rollouts are staged and sometimes rolled back.
``repro.chaos`` models that failure surface *deterministically*:

* :mod:`repro.chaos.plan` — :class:`FaultPlan`: a frozen, picklable
  fault schedule keyed entirely to the cluster's logical clock and a
  seed; :func:`fault_roll` makes per-hop drop/duplicate/reorder
  decisions as a stateless hash, and :data:`CHAOS_PLANS` /
  :func:`chaos_plan` name four canonical schedules
  (``replica-churn``, ``failover``, ``lossy-replication``,
  ``canary-rollback``).
* :mod:`repro.chaos.router` — :class:`ChaosRouter`: a
  :class:`~repro.cluster.router.Router` that executes a plan —
  membership churn with hop-or-snapshot bootstraps, deterministic
  primary failover, lossy broadcast delivery with gap-triggered
  resyncs, and canary publishes gated by a seeded verdict-divergence
  probe.

Because every fault is a function of (seed, clock, content) rather
than of wall time or arrival order, a chaos workload's outcome digest
stays bit-identical across runs, shard counts, and executors — the
same determinism invariant the fault-free engine guarantees — while
provably differing from its fault-free counterpart's.
"""

from repro.chaos.plan import CHAOS_PLANS, FaultPlan, chaos_plan, fault_roll
from repro.chaos.router import ChaosRouter

__all__ = [
    "CHAOS_PLANS",
    "ChaosRouter",
    "FaultPlan",
    "chaos_plan",
    "fault_roll",
]
