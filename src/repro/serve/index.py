"""The membership index for RWS queries, served off a binary epoch.

Chrome does not answer ``requestStorageAccess`` decisions by scanning
the shipped list: the component updater hands the browser a compiled
form it can query in constant time.  :class:`MembershipIndex` is that
form for this reproduction, and it has exactly one representation: a
read-only view over an encoded epoch buffer
(:mod:`repro.serve.epochfmt`).  An index built from a list
(:meth:`MembershipIndex.from_list`,
:meth:`~repro.serve.epoch.Epoch.compile`) encodes it and loads the
result, the same load a buffer from a primary or a shard driver goes
through — so a verdict never depends on how a list version arrived.
Every membership question (`lookup`, `related`, `query`, batches) is
a string-table probe plus u32 compares instead of the O(sets ×
members) scan behind :meth:`~repro.rws.model.RwsList.related`.

The index is immutable: build a new one when the list changes (see
:mod:`repro.serve.snapshot` for the versioning story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.rws.model import ROLES, RelatedWebsiteSet, RwsList, SiteRole
from repro.serve.epochfmt import _BufferData, _read_set, encode_list

#: Bound on the memo keyed by client input (probed sites) before it is
#: dropped wholesale: the PSL resolution cache's size.  Memos keyed by
#: string id need no bound — the buffer bounds them.
#:
#: The site memo (``_site_eidx``) earns its place on point traffic,
#: where the same sites repeat.  Measured on point-open pairs (2 CPUs,
#: Python 3.11.7, best of 7, two alternating runs): ``query`` took
#: 0.93–1.43 µs per pair with it and 2.28–2.35 µs without;
#: ``related_batch_normalized`` 0.20–0.35 µs against 1.20–1.23 µs.  On
#: batch-cold traffic the two were not resolvably apart (3.1–4.2 µs
#: against 3.1–3.3 µs per pair).
_PROBE_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class IndexEntry:
    """One domain's compiled membership facts.

    Attributes:
        site: The member's domain (interned eTLD+1).
        role: The member's subset role.
        set_primary: Primary domain of the containing set.
        variant_of: For ccTLD members, the member they are a variant of.
    """

    site: str
    role: SiteRole
    set_primary: str
    variant_of: str | None = None


@dataclass(slots=True)
class QueryResult:
    """The answer to one pairwise membership query.

    A plain slotted value object rather than a frozen dataclass: one is
    allocated per answered query, and ``object.__setattr__``-based
    frozen construction costs ~3x a plain slot fill on that hot path.
    Treat instances as immutable by convention.

    Attributes:
        site_a: First queried domain (normalised to lower case).
        site_b: Second queried domain.
        related: The browser-facing verdict (same set, or same site).
        set_primary: Primary of the shared set, when related via RWS.
        role_a: site_a's role in its set, if any.
        role_b: site_b's role in its set, if any.
    """

    site_a: str
    site_b: str
    related: bool
    set_primary: str | None = None
    role_a: SiteRole | None = None
    role_b: SiteRole | None = None


class MembershipIndex:
    """An eTLD+1 → (set, role) index over one encoded epoch buffer.

    Probes hash a site into the buffer's string table and compare the
    u32 ids of set primaries; :class:`IndexEntry` and
    :class:`~repro.rws.model.RelatedWebsiteSet` objects are built only
    when a caller asks for them, and memoized.  When a domain
    (invalidly) appears in more than one set, the first set in list
    order wins — the same tie-break :meth:`RwsList.find_set_for`
    applies, resolved once by the encoder.

    Args:
        buf: An encoded epoch: any 1-byte buffer object, which must
            outlive the index.
        sets: The sets ``buf`` was just encoded from, in list order:
            :meth:`set_for` and :meth:`members_of` then answer with
            those objects instead of rebuilding sets from the buffer.
        verify: Check the buffer's CRC (skip it for buffers encoded in
            this process).

    Raises:
        repro.serve.epochfmt.EpochFormatError: On a corrupt, truncated,
            or incompatible buffer.

    Example:
        >>> from repro.data import build_rws_list
        >>> index = MembershipIndex.from_list(build_rws_list())
        >>> index.related("timesinternet.in", "indiatimes.com")
        True
    """

    __slots__ = ("_data", "_sets", "_site_eidx", "_entry_objs",
                 "_set_objs", "_set_count")

    def __init__(self, buf, *,
                 sets: Sequence[RelatedWebsiteSet] | None = None,
                 verify: bool = True) -> None:
        self._data = _BufferData(buf, verify=verify)
        self._sets = sets
        self._site_eidx: dict[str, int] = {}
        self._entry_objs: dict[int, IndexEntry] = {}
        self._set_objs: dict[int, RelatedWebsiteSet] = {}
        self._set_count: int | None = None

    @classmethod
    def from_list(cls, rws_list: RwsList) -> MembershipIndex:
        """Encode a list (no snapshot) and load it."""
        return cls(encode_list(rws_list), sets=tuple(rws_list.sets),
                   verify=False)

    # -- probing helpers ------------------------------------------------------

    def _entry_index(self, site: str) -> int:
        """Entry index for an already-lowercased site, -1 if absent."""
        eidx = self._site_eidx.get(site)
        if eidx is None:
            data = self._data
            sid = data.string_id(site)
            eidx = data.str_entry[sid] - 1 if sid >= 0 else -1
            if len(self._site_eidx) >= _PROBE_MEMO_LIMIT:
                self._site_eidx.clear()
            self._site_eidx[site] = eidx
        return eidx

    def _entry(self, eidx: int) -> IndexEntry:
        entry = self._entry_objs.get(eidx)
        if entry is None:
            data = self._data
            vid = data.entry_variant[eidx]
            entry = IndexEntry(
                site=data.string(data.entry_site[eidx]),
                role=ROLES[data.entry_role[eidx]],
                set_primary=data.string(data.entry_primary[eidx]),
                variant_of=data.string(vid - 1) if vid else None)
            self._entry_objs[eidx] = entry
        return entry

    def _set(self, set_idx: int) -> RelatedWebsiteSet:
        if self._sets is not None:
            return self._sets[set_idx]
        rws_set = self._set_objs.get(set_idx)
        if rws_set is None:
            rws_set = _read_set(self._data, set_idx)
            self._set_objs[set_idx] = rws_set
        return rws_set

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return self._data.n_entries

    def __contains__(self, site: str) -> bool:
        return self._entry_index(site.lower()) >= 0

    @property
    def set_count(self) -> int:
        """Number of distinct set primaries in the indexed list."""
        if self._set_count is None:
            self._set_count = len(set(self._data.set_primary))
        return self._set_count

    @property
    def site_count(self) -> int:
        """Number of distinct member domains indexed."""
        return self._data.n_entries

    # -- single-domain queries ------------------------------------------------

    def lookup(self, site: str) -> IndexEntry | None:
        """The membership entry for a domain, or None."""
        eidx = self._entry_index(site.lower())
        return self._entry(eidx) if eidx >= 0 else None

    def role_of(self, site: str) -> SiteRole | None:
        """The role a domain plays in its set, or None if unlisted."""
        eidx = self._entry_index(site.lower())
        return ROLES[self._data.entry_role[eidx]] if eidx >= 0 else None

    def set_for(self, site: str) -> RelatedWebsiteSet | None:
        """The set containing a domain, or None (O(1) find_set_for)."""
        eidx = self._entry_index(site.lower())
        return self._set(self._data.entry_set[eidx]) if eidx >= 0 else None

    def primary_of(self, site: str) -> str | None:
        """The primary of the set containing a domain, or None."""
        eidx = self._entry_index(site.lower())
        if eidx < 0:
            return None
        return self._data.string(self._data.entry_primary[eidx])

    def members_of(self, primary: str) -> list[str] | None:
        """All member domains of the set with a given primary, or None."""
        data = self._data
        sid = data.string_id(primary.lower())
        set_plus = data.str_set[sid] if sid >= 0 else 0
        return self._set(set_plus - 1).members() if set_plus else None

    # -- pairwise queries -----------------------------------------------------

    def related(self, site_a: str, site_b: str) -> bool:
        """The browser-facing predicate: same set (or same site)?

        Two probes instead of a scan over every set.  Identical to
        :meth:`RwsList.related` for every valid (disjoint-membership)
        list.  For *invalid* lists with duplicate members the naive
        scan is not even symmetric; the index resolves each site to its
        first containing set, making the predicate a consistent
        equivalence over the first-wins partition.
        """
        a = site_a.lower()
        b = site_b.lower()
        if a == b:
            return True
        ea = self._entry_index(a)
        if ea < 0:
            return False
        eb = self._entry_index(b)
        primary = self._data.entry_primary
        return eb >= 0 and primary[ea] == primary[eb]

    def query(self, site_a: str, site_b: str) -> QueryResult:
        """One pairwise query with full context (set and roles)."""
        a = site_a.lower()
        b = site_b.lower()
        ea = self._entry_index(a)
        eb = self._entry_index(b)
        data = self._data
        # One set-primary comparison decides both fields: a shared
        # primary means related, and same-site pairs are related even
        # when unlisted (shared stays None unless both are members).
        shared = None
        if ea >= 0 and eb >= 0:
            pa = data.entry_primary[ea]
            if pa == data.entry_primary[eb]:
                shared = data.string(pa)
        return QueryResult(
            a,
            b,
            shared is not None or a == b,
            shared,
            ROLES[data.entry_role[ea]] if ea >= 0 else None,
            ROLES[data.entry_role[eb]] if eb >= 0 else None,
        )

    def related_batch(self, pairs: Iterable[tuple[str, str]]) -> list[bool]:
        """Bulk form of :meth:`related` for request batches."""
        return self.related_batch_normalized(
            [(a.lower(), b.lower()) for a, b in pairs])

    def related_batch_normalized(
        self, pairs: Iterable[tuple[str | None, str | None]],
    ) -> list[bool]:
        """:meth:`related_batch` minus input normalisation.

        The serving shell hands this method *sites* straight out of a
        resolver (or a client's ``resolved`` batch) — already
        lower-case eTLD+1 values, with None for hosts that failed to
        resolve (never related) — so the per-pair ``lower()`` calls in
        :meth:`related_batch` would be pure overhead.  Callers own the
        precondition; a non-normalised site simply fails to match, like
        any unknown site.
        """
        primary = self._data.entry_primary
        entry_index = self._entry_index
        verdicts: list[bool] = []
        for a, b in pairs:
            if a is None or b is None:
                verdicts.append(False)
                continue
            if a == b:
                verdicts.append(True)
                continue
            ea = entry_index(a)
            if ea < 0:
                verdicts.append(False)
                continue
            eb = entry_index(b)
            verdicts.append(eb >= 0 and primary[ea] == primary[eb])
        return verdicts

    def entries(self) -> Iterator[IndexEntry]:
        """All entries, in list order."""
        for eidx in range(self._data.n_entries):
            yield self._entry(eidx)
