"""Versioned, content-hashed RWS list snapshots with deltas.

Chrome ships the RWS list to browsers through the component updater:
clients hold a versioned copy and fetch compact updates rather than
re-downloading the whole list.  This module reproduces that contract:

* :func:`membership_hash` canonically fingerprints a list's membership
  (set, role, site — exactly the facts deltas transport) independent
  of declaration order — the content identity a client and server can
  compare;
* :class:`SnapshotStore` assigns monotonically increasing versions to
  published lists, deduplicating republications of identical content;
* :meth:`SnapshotStore.delta` packages the change between two versions
  (reusing :func:`repro.rws.diff.diff_lists`) and :func:`apply_delta`
  replays it on a client's copy, refusing to patch a stale or diverged
  base (:class:`StaleSnapshotError`) and verifying the result hash.

Deltas are the client contract: the API's delta request and the
workload's v1 client use them.  The cluster's replicas share the
primary's store, so they follow it by version and serve its stored
snapshots (:mod:`repro.cluster.replica`); no broadcast carries a
delta.

Rationales, contact fields, ccTLD variant-of attributions, and
within-subset declaration order are not part of the membership
identity (the browser never consults them), so deltas neither carry
nor version them; reconstruction preserves them for unchanged sets and
carries them best-effort (via :class:`MemberRecord`) for changed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING

from repro import sha256
from repro.rws.diff import (
    ListDiff,
    diff_lists,
    membership_key,
    membership_keys,
)
from repro.rws.model import MemberRecord, RelatedWebsiteSet, RwsList, SiteRole

if TYPE_CHECKING:
    from repro.rws.history import RwsHistory


class StaleSnapshotError(ValueError):
    """A delta cannot be produced for, or applied to, the given base."""


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

    def to_history(self, dates: dict[int, str]) -> RwsHistory:
        """Project the store onto an :class:`RwsHistory` for analysis.

        Args:
            dates: Mapping from version number to its ISO snapshot date.
        """
        from repro.rws.history import RwsHistory

        history = RwsHistory()
        for snapshot in self.snapshots:
            if snapshot.version in dates:
                history.add(dates[snapshot.version], snapshot.rws_list)
        return history


def _rebuild_set(records: list[MemberRecord],
                 template: RelatedWebsiteSet | None) -> RelatedWebsiteSet:
    """Assemble a set from membership records (order of the records)."""
    primary = records[0].set_primary
    associated: list[str] = []
    service: list[str] = []
    cctlds: dict[str, list[str]] = {}
    rationales: dict[str, str] = {}
    for record in records:
        if record.rationale is not None:
            rationales[record.site] = record.rationale
        if record.role is SiteRole.ASSOCIATED:
            associated.append(record.site)
        elif record.role is SiteRole.SERVICE:
            service.append(record.site)
        elif record.role is SiteRole.CCTLD:
            cctlds.setdefault(record.variant_of or primary, []).append(record.site)
    return RelatedWebsiteSet(
        primary=primary,
        associated=associated,
        service=service,
        cctlds=cctlds,
        rationales=rationales,
        contact=template.contact if template is not None else None,
    )


def apply_delta(client_list: RwsList, delta: SnapshotDelta) -> RwsList:
    """Patch a client's list copy with a server delta.

    Args:
        client_list: The client's current copy (must match the delta's
            base version content).
        delta: The patch, from :meth:`SnapshotStore.delta`.

    Returns:
        The patched list, verified to hash to ``delta.to_hash``.

    Raises:
        StaleSnapshotError: When the client copy does not match the
            delta's base hash (diverged or stale client), or when the
            patched result does not reproduce the target hash (corrupt
            delta).
    """
    base_hash = membership_hash(client_list)
    if base_hash != delta.from_hash:
        raise StaleSnapshotError(
            f"client copy does not match delta base v{delta.from_version} "
            f"(client {base_hash[:12]}…, expected {delta.from_hash[:12]}…)"
        )

    removed = {membership_key(record)
               for record in delta.diff.removed_members}
    removed_sets = set(delta.diff.removed_sets)
    touched = set(delta.diff.changed_sets) | {
        record.set_primary for record in delta.diff.added_members
    }

    added_by_primary: dict[str, list[MemberRecord]] = {}
    for record in delta.diff.added_members:
        added_by_primary.setdefault(record.set_primary, []).append(record)

    patched_sets: list[RelatedWebsiteSet] = []
    seen_primaries: set[str] = set()
    for rws_set in client_list:
        seen_primaries.add(rws_set.primary)
        if rws_set.primary in removed_sets:
            continue
        if rws_set.primary not in touched:
            patched_sets.append(rws_set)
            continue
        survivors = [
            record for record in rws_set.member_records()
            if membership_key(record) not in removed
        ]
        survivors.extend(added_by_primary.get(rws_set.primary, []))
        patched_sets.append(_rebuild_set(survivors, rws_set))

    for primary in delta.diff.added_sets:
        if primary in seen_primaries:
            continue
        records = added_by_primary.get(primary, [])
        if records:
            patched_sets.append(_rebuild_set(records, None))

    patched = RwsList(sets=patched_sets, version=client_list.version)
    result_hash = membership_hash(patched)
    if result_hash != delta.to_hash:
        raise StaleSnapshotError(
            f"patched copy does not match delta target v{delta.to_version} "
            f"(got {result_hash[:12]}…, expected {delta.to_hash[:12]}…)"
        )
    return patched
