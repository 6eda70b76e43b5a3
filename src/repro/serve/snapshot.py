"""Versioned, content-hashed RWS list snapshots.

Chrome ships the RWS list to browsers through the component updater:
clients hold a versioned copy and replace it with the whole file of a
newer version.  This module reproduces that contract:

* :func:`membership_hash` canonically fingerprints a list's membership
  (set, role, site) independent of declaration order — the content
  identity a client checks a fetched copy against;
* :class:`SnapshotStore` assigns monotonically increasing versions to
  published lists, deduplicating republications of identical content,
  and hands any stored version back whole (:meth:`SnapshotStore.get`,
  :class:`StaleSnapshotError` for a version it does not hold).

Clients and replicas both follow the store by version: the API's
``snapshot`` op and the workload's v1 client fetch a stored version
whole, and the cluster's replicas serve the primary's stored snapshots
(:mod:`repro.cluster.replica`).  :meth:`SnapshotStore.delta` diffs
two versions (:func:`repro.rws.diff.diff_lists`); only the benchmark
ledger's ``snapshot.delta_ms`` row calls it.

Rationales, contact fields, ccTLD variant-of attributions, and
within-subset declaration order are not part of the membership
identity (the browser never consults them), so changing only them
mints no new version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from repro import sha256
from repro.rws.diff import ListDiff, diff_lists, membership_keys
from repro.rws.model import RwsList


class StaleSnapshotError(ValueError):
    """A snapshot version the store does not hold, or one that would
    leave a gap in a version chain."""


_primary = attrgetter("primary")


def membership_hash(rws_list: RwsList) -> str:
    """A canonical content hash of a list's membership.

    Order-independent: two lists declaring the same (set, role, site)
    facts hash identically regardless of set or subset ordering, and a
    fact declared twice is hashed once.  The facts are exactly
    :func:`repro.rws.diff.membership_keys`, which
    :func:`repro.rws.diff.diff_lists` diffs as sets, so a delta is
    empty exactly when the hashes agree — rationales, contacts, and ccTLD
    variant-of attributions are submitter metadata the browser never
    consults, and changing only them neither mints a new version nor
    invalidates client copies.
    """
    digest = sha256()
    update = digest.update
    # Keys sort by primary first, so hashing one primary's sets at a
    # time keeps the canonical order while holding only that primary's
    # keys: a list-wide key set raised the peak RSS of a 100k-domain
    # publish.  One joined update per primary hashes the same bytes as
    # one update per fact in a twentieth of the calls (synthetic lists),
    # which offsets the builtin SHA-256's slower compression.
    by_primary = sorted(rws_list.sets, key=_primary)
    for _, group in groupby(by_primary, key=_primary):
        update("".join([
            f"{primary}\x1f{role}\x1f{site}\x1e"
            for primary, role, site in sorted(set(membership_keys(group)))
        ]).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class ListSnapshot:
    """One published, versioned list snapshot.

    Attributes:
        version: Monotonically increasing publication number (1-based).
        content_hash: :func:`membership_hash` of the list.
        rws_list: The snapshot's list.
    """

    version: int
    content_hash: str
    rws_list: RwsList


@dataclass(frozen=True)
class SnapshotDelta:
    """A component-updater-style patch between two snapshot versions.

    Attributes:
        from_version: The base version the patch applies to.
        to_version: The version the patch produces.
        from_hash: Membership hash the client's base copy must have.
        to_hash: Membership hash the patched copy must have.
        diff: The structured membership changes.
    """

    from_version: int
    to_version: int
    from_hash: str
    to_hash: str
    diff: ListDiff

    @property
    def is_empty(self) -> bool:
        """True when base and target have identical membership."""
        return self.from_hash == self.to_hash


@dataclass
class SnapshotStore:
    """The server-side registry of published list snapshots."""

    snapshots: list[ListSnapshot] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def latest(self) -> ListSnapshot | None:
        """The most recently published snapshot, or None."""
        return self.snapshots[-1] if self.snapshots else None

    def publish(self, rws_list: RwsList) -> ListSnapshot:
        """Register a list, returning its snapshot.

        Publishing content identical to the latest snapshot returns the
        existing snapshot instead of minting a new version (republishing
        an unchanged list must not force clients to update).
        """
        content = membership_hash(rws_list)
        latest = self.latest
        if latest is not None and latest.content_hash == content:
            return latest
        snapshot = ListSnapshot(
            version=len(self.snapshots) + 1,
            content_hash=content,
            rws_list=rws_list,
        )
        self.snapshots.append(snapshot)
        return snapshot

    def get(self, version: int) -> ListSnapshot:
        """The snapshot with a given version.

        Raises:
            StaleSnapshotError: For versions never published here.
        """
        if not 1 <= version <= len(self.snapshots):
            raise StaleSnapshotError(
                f"unknown snapshot version {version} "
                f"(published: 1..{len(self.snapshots)})"
            )
        return self.snapshots[version - 1]

    def versions(self) -> list[int]:
        """All published version numbers, ascending."""
        return [snapshot.version for snapshot in self.snapshots]

    def delta(self, from_version: int,
              to_version: int | None = None) -> SnapshotDelta:
        """The patch taking a client from one version to another.

        Args:
            from_version: The client's current version.
            to_version: Target version (the latest when omitted).

        Raises:
            StaleSnapshotError: When either version is unknown, or the
                store is empty.
        """
        if not self.snapshots:
            raise StaleSnapshotError("no snapshots published")
        base = self.get(from_version)
        target = self.get(to_version if to_version is not None
                          else len(self.snapshots))
        return SnapshotDelta(
            from_version=base.version,
            to_version=target.version,
            from_hash=base.content_hash,
            to_hash=target.content_hash,
            diff=diff_lists(base.rws_list, target.rws_list),
        )
