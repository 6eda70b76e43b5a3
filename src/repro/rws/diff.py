"""Diffing RWS list snapshots.

The paper characterises how the list changed between early 2023 and
March 2024 (Figures 7-9); this module computes the per-snapshot deltas
those analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.rws.model import ROLES, MemberRecord, RelatedWebsiteSet, RwsList


@dataclass
class ListDiff:
    """The delta between two list snapshots.

    Attributes:
        added_sets: Primaries of sets present only in the new snapshot.
        removed_sets: Primaries of sets present only in the old one.
        added_members: Member records new in the new snapshot (including
            all members of newly added sets).
        removed_members: Member records absent from the new snapshot.
        changed_sets: Primaries of sets present in both but with
            different membership.
    """

    added_sets: list[str] = field(default_factory=list)
    removed_sets: list[str] = field(default_factory=list)
    added_members: list[MemberRecord] = field(default_factory=list)
    removed_members: list[MemberRecord] = field(default_factory=list)
    changed_sets: list[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the snapshots have identical membership."""
        return not (self.added_sets or self.removed_sets
                    or self.added_members or self.removed_members)


#: Role values by role code, for membership keys built from rows.
_ROLE_VALUES = tuple(role.value for role in ROLES)

MembershipKey = tuple[str, str, str]


def membership_key(record: MemberRecord) -> MembershipKey:
    """A record's ``(set primary, role value, site)`` membership fact."""
    return (record.set_primary, record.role.value, record.site)


def membership_keys(sets: Iterable[RelatedWebsiteSet]) -> list[MembershipKey]:
    """Every membership fact some sets declare, in row order.

    Repeats are kept.  Read from
    :meth:`~repro.rws.model.RelatedWebsiteSet.member_rows`, so no
    :class:`MemberRecord` is built.
    """
    return [
        (rws_set.primary, _ROLE_VALUES[code], site)
        for rws_set in sets
        for site, code, _ in rws_set.member_rows()
    ]


def _records_for(rws_list: RwsList,
                 keys: set[MembershipKey]) -> list[MemberRecord]:
    """The records declaring ``keys``, in key order.

    Only the sets a key names are walked.  A fact declared twice keeps
    its last record, as a dict keyed by fact over every record would.
    """
    primaries = {primary for primary, _, _ in keys}
    found: dict[MembershipKey, MemberRecord] = {}
    for rws_set in rws_list.sets:
        if rws_set.primary in primaries:
            for record in rws_set.member_records():
                key = membership_key(record)
                if key in keys:
                    found[key] = record
    return [found[key] for key in sorted(keys)]


def diff_lists(old: RwsList, new: RwsList) -> ListDiff:
    """Compute the delta from ``old`` to ``new``.

    The two lists' :func:`membership_keys` are diffed as sets, and
    records are built only for the sets that a changed fact names, so
    an edit to a large list costs one row walk per side plus the
    records of the sets it touches.

    Args:
        old: The earlier snapshot.
        new: The later snapshot.

    Returns:
        The structured diff: member records sorted by membership key.
    """
    old_primaries = set(old.primaries())
    new_primaries = set(new.primaries())

    old_keys = set(membership_keys(old.sets))
    new_keys = set(membership_keys(new.sets))
    added_keys = new_keys - old_keys
    removed_keys = old_keys - new_keys
    changed = {primary for primary, _, _ in added_keys | removed_keys}

    return ListDiff(
        added_sets=sorted(new_primaries - old_primaries),
        removed_sets=sorted(old_primaries - new_primaries),
        added_members=_records_for(new, added_keys),
        removed_members=_records_for(old, removed_keys),
        changed_sets=sorted(changed & old_primaries & new_primaries),
    )
