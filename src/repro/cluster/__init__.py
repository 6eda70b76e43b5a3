"""Replicated serving: epochs propagated by version behind one front-end.

The paper's deployment is not one server — it is millions of browser
instances, each holding a versioned copy of the RWS list and
converging on updates at different times via the component updater.
``repro.cluster`` models that shape on top of the epoch-immutable
serving core:

* :mod:`repro.cluster.replica` — :class:`Replica`: the lock-free
  :class:`~repro.serve.service.EpochShell` read surface over an epoch
  that advances to the primary's broadcast versions (each a stored
  :class:`~repro.serve.snapshot.ListSnapshot` and the version it was
  published over) after a configurable propagation lag, serving the
  last of several accumulated hops in one step;
* :mod:`repro.cluster.router` — :class:`Router`: the cluster
  front-end that spreads query/batch traffic across replicas
  (round-robin or rendezvous-hash routing) while pinning publishes
  and governance writes to the primary, with cluster-wide merged
  stats.

The :class:`Router` exposes the same surface the API layer drives on
a single service, so ``Dispatcher(Router(...))`` is a drop-in
replicated deployment — the CLI's ``cluster`` subcommand and the
workload engine's replicated execution mode are both built that way.
"""

from repro.cluster.replica import Replica, ReplicationGapError
from repro.cluster.router import POLICIES, Router

__all__ = [
    "POLICIES",
    "Replica",
    "ReplicationGapError",
    "Router",
]
