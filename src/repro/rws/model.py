"""Data model for Related Website Sets.

Terminology follows the proposal (and §2 of the paper):

* every set has exactly one **primary** site;
* **associated** sites must be *clearly affiliated* with the primary
  (common branding, an about page, ...) but need not share ownership —
  the paper's central privacy concern;
* **service** sites must share ownership with the primary, support the
  functionality of other members, and cannot be the top-level site in a
  storage-access grant without prior user interaction with the set;
* **ccTLD** sites are country-code variants of another member and must
  share ownership with the site they are a variant of.

All sites are identified by their registrable domain (eTLD+1); the
canonical JSON format spells them as ``https://`` origins, which the
schema layer handles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class SiteRole(enum.Enum):
    """The role a site plays within its set."""

    PRIMARY = "primary"
    ASSOCIATED = "associated"
    SERVICE = "service"
    CCTLD = "cctld"


#: Every role, indexed by its integer code: the codes
#: :meth:`RelatedWebsiteSet.member_rows` yields and the binary epoch
#: format stores.
ROLES: tuple[SiteRole, ...] = (SiteRole.PRIMARY, SiteRole.ASSOCIATED,
                               SiteRole.SERVICE, SiteRole.CCTLD)


@dataclass(frozen=True)
class MemberRecord:
    """One site's membership in one set.

    Attributes:
        site: The member's domain (eTLD+1).
        role: Subset the site belongs to.
        set_primary: The primary domain of the containing set.
        variant_of: For ccTLD members, the member they are a variant of.
        rationale: The human-readable affiliation rationale, if declared.
    """

    site: str
    role: SiteRole
    set_primary: str
    variant_of: str | None = None
    rationale: str | None = None


@dataclass
class RelatedWebsiteSet:
    """One Related Website Set.

    Attributes:
        primary: The set primary's domain.
        associated: Associated-subset domains, in declaration order.
        service: Service-subset domains, in declaration order.
        cctlds: Mapping from a member domain to its declared ccTLD
            variant domains.
        rationales: Mapping from member domain to the declared rationale
            (the submission guidelines require one for every associated
            and service site).
        contact: Submitter contact (free text, optional).
    """

    primary: str
    associated: list[str] = field(default_factory=list)
    service: list[str] = field(default_factory=list)
    cctlds: dict[str, list[str]] = field(default_factory=dict)
    rationales: dict[str, str] = field(default_factory=dict)
    contact: str | None = None

    def __post_init__(self) -> None:
        self.primary = self.primary.lower()
        self.associated = [site.lower() for site in self.associated]
        self.service = [site.lower() for site in self.service]
        self.cctlds = {
            member.lower(): [variant.lower() for variant in variants]
            for member, variants in self.cctlds.items()
        }
        self.rationales = {
            site.lower(): rationale for site, rationale in self.rationales.items()
        }

    @property
    def cctld_sites(self) -> list[str]:
        """All declared ccTLD variant domains, in declaration order."""
        variants: list[str] = []
        for member_variants in self.cctlds.values():
            variants.extend(member_variants)
        return variants

    def members(self) -> list[str]:
        """Every domain in the set (primary first), without duplicates."""
        seen: list[str] = [self.primary]
        for site in self.associated + self.service + self.cctld_sites:
            if site not in seen:
                seen.append(site)
        return seen

    def member_rows(self) -> list[tuple[str, int, str | None]]:
        """``(site, role code, variant_of)`` for every member record.

        The one place set fields map to roles.  Rows come in
        :meth:`member_records` order (primary, associated, service,
        then ccTLD variants grouped by the member they vary), keep
        repeats, and carry the role as its index in :data:`ROLES`.
        Publish-path consumers — the membership hash, the list diff
        and the epoch encoder — read these plain tuples instead of
        building a :class:`MemberRecord` per member.
        """
        rows: list[tuple[str, int, str | None]] = [(self.primary, 0, None)]
        rows += [(site, 1, None) for site in self.associated]
        rows += [(site, 2, None) for site in self.service]
        for member, variants in self.cctlds.items():
            rows += [(variant, 3, member) for variant in variants]
        return rows

    def member_records(self) -> Iterator[MemberRecord]:
        """Typed membership records for every site in the set.

        One record per :meth:`member_rows` row, in the same order, with
        the declared rationale attached.
        """
        primary = self.primary
        rationale = self.rationales.get
        for site, code, variant_of in self.member_rows():
            yield MemberRecord(site, ROLES[code], primary,
                               variant_of, rationale(site))

    def role_of(self, site: str) -> SiteRole | None:
        """The role a domain plays in this set, or None if absent."""
        wanted = site.lower()
        if wanted == self.primary:
            return SiteRole.PRIMARY
        if wanted in self.associated:
            return SiteRole.ASSOCIATED
        if wanted in self.service:
            return SiteRole.SERVICE
        if wanted in self.cctld_sites:
            return SiteRole.CCTLD
        return None

    def contains(self, site: str) -> bool:
        """Whether a domain is any kind of member of this set."""
        return self.role_of(site) is not None

    def size(self) -> int:
        """Total number of distinct member domains, primary included."""
        return len(self.members())


@dataclass
class RwsList:
    """A full Related Website Sets list (one published snapshot).

    Attributes:
        sets: The sets, in list order.
        version: Schema/list version tag.
        as_of: ISO date this snapshot reflects, if known.
    """

    sets: list[RelatedWebsiteSet] = field(default_factory=list)
    version: str = "1.0"
    as_of: str | None = None

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[RelatedWebsiteSet]:
        return iter(self.sets)

    def primaries(self) -> list[str]:
        """All set primaries, in list order."""
        return [rws_set.primary for rws_set in self.sets]

    def all_members(self) -> list[MemberRecord]:
        """Membership records across all sets."""
        records: list[MemberRecord] = []
        for rws_set in self.sets:
            records.extend(rws_set.member_records())
        return records

    def members_with_role(self, role: SiteRole) -> list[MemberRecord]:
        """All membership records with a given role."""
        return [record for record in self.all_members() if record.role is role]

    def find_set_for(self, site: str) -> RelatedWebsiteSet | None:
        """The set containing a domain, or None.

        The RWS rules require each domain to appear in at most one set,
        so the first match is the only match for a valid list.
        """
        wanted = site.lower()
        for rws_set in self.sets:
            if rws_set.contains(wanted):
                return rws_set
        return None

    def related(self, site_a: str, site_b: str) -> bool:
        """The browser-facing predicate: are two sites in the same set?

        This is the policy question Chrome answers when deciding whether
        a ``requestStorageAccess`` call between the two sites may be
        granted without a user prompt.  A site is trivially related to
        itself.
        """
        a = site_a.lower()
        b = site_b.lower()
        if a == b:
            return True
        set_a = self.find_set_for(a)
        return set_a is not None and set_a.contains(b)

    def duplicate_members(self) -> list[str]:
        """Domains that (invalidly) appear in more than one set.

        A domain repeated inside one set is one set's member, however
        many of its records name it.
        """
        sets_of: dict[str, int] = {}
        for rws_set in self.sets:
            for site in {site for site, _, _ in rws_set.member_rows()}:
                sets_of[site] = sets_of.get(site, 0) + 1
        return sorted(site for site, count in sets_of.items() if count > 1)

    def composition(self) -> dict[SiteRole, int]:
        """Count of member records per role (Figure 7's quantities)."""
        counts = {role: 0 for role in SiteRole}
        for record in self.all_members():
            counts[record.role] += 1
        return counts

    def sets_with_role(self, role: SiteRole) -> list[RelatedWebsiteSet]:
        """Sets that declare at least one member with the given role."""
        result = []
        for rws_set in self.sets:
            if any(record.role is role for record in rws_set.member_records()
                   if record.role is not SiteRole.PRIMARY or role is SiteRole.PRIMARY):
                result.append(rws_set)
        return result
