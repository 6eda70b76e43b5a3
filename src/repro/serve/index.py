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
Every membership question (`related`, `query`, `set_for`, batches) is
a string-table probe plus u32 compares instead of the O(sets ×
members) scan behind :meth:`~repro.rws.model.RwsList.related`.

The index is immutable: build a new one when the list changes (see
:mod:`repro.serve.snapshot` for the versioning story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.rws.model import ROLES, RelatedWebsiteSet, RwsList, SiteRole
from repro.serve.epochfmt import _BufferData, _read_set, encode_list

#: Bound on the memo keyed by client input (probed sites) before it is
#: dropped wholesale: the PSL resolution cache's size.  Memos keyed by
#: string id need no bound — the buffer bounds them.
#:
#: The site memo (``_site_row``) earns its place on point traffic,
#: where the same sites repeat.  Measured on point-open pairs (2 CPUs,
#: Python 3.11.7, best of 7, two alternating runs): ``query`` took
#: 0.93–1.43 µs per pair with it and 2.28–2.35 µs without;
#: ``related_batch_normalized`` 0.20–0.35 µs against 1.20–1.23 µs.  On
#: batch-cold traffic the two were not resolvably apart (3.1–4.2 µs
#: against 3.1–3.3 µs per pair).
_PROBE_MEMO_LIMIT = 4096


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

    Probes hash a site into the buffer's string table, land on the
    site's member row and compare the u32 set indices of rows;
    :class:`~repro.rws.model.RelatedWebsiteSet` objects are built only
    when :meth:`set_for` asks for one, and memoized.  The buffer's list
    puts each site in at most one set (the encoder refuses any other),
    so a site's row names its only set.

    Args:
        buf: An encoded epoch: any 1-byte buffer object, which must
            outlive the index.
        sets: The sets ``buf`` was just encoded from, in list order:
            :meth:`set_for` then answers with those objects instead of
            rebuilding sets from the buffer.
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

    __slots__ = ("_data", "_sets", "_site_row", "_set_objs")

    def __init__(self, buf, *,
                 sets: Sequence[RelatedWebsiteSet] | None = None,
                 verify: bool = True) -> None:
        self._data = _BufferData(buf, verify=verify)
        self._sets = sets
        self._site_row: dict[str, int] = {}
        self._set_objs: dict[int, RelatedWebsiteSet] = {}

    @classmethod
    def from_list(cls, rws_list: RwsList) -> MembershipIndex:
        """Encode a list (no snapshot) and load it.

        Raises:
            repro.serve.epochfmt.OverlappingSetsError: When the list
                puts a site in two sets.
        """
        return cls(encode_list(rws_list), sets=tuple(rws_list.sets),
                   verify=False)

    # -- probing helpers ------------------------------------------------------

    def _row(self, site: str) -> int:
        """Member row for an already-lowercased site, -1 if absent."""
        row = self._site_row.get(site)
        if row is None:
            data = self._data
            sid = data.string_id(site)
            row = data.str_entry[sid] - 1 if sid >= 0 else -1
            if len(self._site_row) >= _PROBE_MEMO_LIMIT:
                self._site_row.clear()
            self._site_row[site] = row
        return row

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
        return self._row(site.lower()) >= 0

    @property
    def set_count(self) -> int:
        """Number of sets (their primaries are distinct) in the list."""
        return self._data.n_sets

    @property
    def site_count(self) -> int:
        """Number of distinct member domains indexed."""
        return self._data.n_entries

    # -- single-domain queries ------------------------------------------------

    def set_for(self, site: str) -> RelatedWebsiteSet | None:
        """The set containing a domain, or None (O(1) find_set_for)."""
        row = self._row(site.lower())
        return self._set(self._data.rec_set[row]) if row >= 0 else None

    # -- pairwise queries -----------------------------------------------------

    def related(self, site_a: str, site_b: str) -> bool:
        """The browser-facing predicate: same set (or same site)?

        Two probes instead of a scan over every set; identical to
        :meth:`RwsList.related`.
        """
        a = site_a.lower()
        b = site_b.lower()
        if a == b:
            return True
        ra = self._row(a)
        if ra < 0:
            return False
        rb = self._row(b)
        rec_set = self._data.rec_set
        return rb >= 0 and rec_set[ra] == rec_set[rb]

    def query(self, site_a: str, site_b: str) -> QueryResult:
        """One pairwise query with full context (set and roles)."""
        a = site_a.lower()
        b = site_b.lower()
        ra = self._row(a)
        rb = self._row(b)
        data = self._data
        # One set comparison decides both fields: a shared set means
        # related, and same-site pairs are related even when unlisted
        # (shared stays None unless both are members).
        shared = None
        if ra >= 0 and rb >= 0:
            set_idx = data.rec_set[ra]
            if set_idx == data.rec_set[rb]:
                shared = data.string(data.set_primary[set_idx])
        return QueryResult(
            a,
            b,
            shared is not None or a == b,
            shared,
            ROLES[data.rec_role[ra]] if ra >= 0 else None,
            ROLES[data.rec_role[rb]] if rb >= 0 else None,
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
        rec_set = self._data.rec_set
        row_of = self._row
        verdicts: list[bool] = []
        for a, b in pairs:
            if a is None or b is None:
                verdicts.append(False)
                continue
            if a == b:
                verdicts.append(True)
                continue
            ra = row_of(a)
            if ra < 0:
                verdicts.append(False)
                continue
            rb = row_of(b)
            verdicts.append(rb >= 0 and rec_set[ra] == rec_set[rb])
        return verdicts
