"""The RWS serving layer: compiled queries, versioned snapshots, queues.

The paper studies an ecosystem that is operationally a *service*:
Chrome ships the Related Website Sets list to millions of browsers via
the component updater, every ``requestStorageAccess`` decision performs
a membership lookup against it, and the GitHub governance pipeline
accepts submissions asynchronously.  The seed reproduction modelled the
artefacts (the list, the bot, the browser) but only offered linear
scans and synchronous validation; this package is the serving layer:

* :mod:`repro.serve.index` — :class:`MembershipIndex`, the
  eTLD+1 → (set, role) index with point and batch query APIs,
  always a view over a binary epoch buffer (built from a list by
  encoding it and loading the result);
* :mod:`repro.serve.snapshot` — versioned, content-hashed list
  snapshots (:class:`SnapshotStore`), which clients and the cluster's
  replicas follow by version, taking each stored version whole;
* :mod:`repro.serve.queue` — :class:`ValidationQueue`, the
  submit → poll → report governance front-end over
  :class:`~repro.rws.validation.Validator` with a worker pool;
* :mod:`repro.serve.epoch` — :class:`Epoch`, the immutable
  (index, snapshot, PSL) unit of serving truth a publish encodes
  once and swaps atomically;
* :mod:`repro.serve.epochfmt` — the zero-copy binary epoch format
  every index serves from: :func:`encode_epoch` serializes an epoch's
  list (the PSL stays with each reader, as in Chrome) as one row per
  member record, refusing a list that puts a site in two sets
  (:class:`~repro.serve.epochfmt.OverlappingSetsError`), and
  :func:`load_epoch` stands one up in O(size) behind the array-backed
  :class:`MembershipIndex` view;
* :mod:`repro.serve.service` — :class:`RwsService`, the thin stateful
  shell over the epoch model: lock-free queries (per-thread counter
  cells, counted lookups on the PSL's own cache) with the
  read surface factored into :class:`EpochShell` so the cluster
  layer's replicas (:mod:`repro.cluster`) reuse it verbatim.
"""

from repro.serve.epoch import Epoch
from repro.serve.epochfmt import EpochFormatError, encode_epoch, load_epoch
from repro.serve.index import MembershipIndex, QueryResult
from repro.serve.queue import (
    QueueStats,
    Submission,
    SubmissionStatus,
    ValidationQueue,
)
from repro.serve.service import (
    EpochShell,
    QueryVerdict,
    RwsService,
    ServiceStats,
)
from repro.serve.snapshot import (
    ListSnapshot,
    SnapshotDelta,
    SnapshotStore,
    StaleSnapshotError,
    membership_hash,
)

__all__ = [
    "Epoch",
    "EpochFormatError",
    "EpochShell",
    "ListSnapshot",
    "MembershipIndex",
    "QueryResult",
    "QueryVerdict",
    "QueueStats",
    "RwsService",
    "ServiceStats",
    "SnapshotDelta",
    "SnapshotStore",
    "StaleSnapshotError",
    "Submission",
    "SubmissionStatus",
    "ValidationQueue",
    "encode_epoch",
    "load_epoch",
    "membership_hash",
]
