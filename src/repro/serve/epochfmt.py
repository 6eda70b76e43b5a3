"""Zero-copy binary epoch format: the one form every index serves from.

A list version is encoded once into a compact binary *epoch*, and
every :class:`~repro.serve.index.MembershipIndex` is a read-only view
over such a buffer: :meth:`~repro.serve.epoch.Epoch.compile` encodes a
published snapshot and loads the result, while shard workers and
cluster :class:`~repro.cluster.Replica` nodes load buffers encoded
elsewhere in O(size) with **no per-entry Python object
construction**.  Either way the views answer ``query`` / ``related`` /
batch probes directly off the buffer through ``memoryview`` casts, so
no verdict depends on how a list version arrived.

The buffer carries the list only.  As in Chrome, which compiles the
Public Suffix List into the browser and ships the Related Website Sets
list through the component updater, every reader resolves hosts with
its own PSL.

Wire layout (all integers little-endian; the loader refuses to run on
big-endian hosts rather than silently mis-read)::

    header   "<4sHHI32sIIIIIIII"  (76 bytes)
        magic=b"RWSE"  format_version  flags  snap_version
        content_hash(32 raw sha256 bytes)  list_version_id  as_of_id
        n_strings  hash_cap  n_entries  n_sets  n_records  total_len
    section table  10 x (offset u32, length u32)   (80 bytes)
    sections  (each 4-byte aligned, zero-padded)
    crc32    u32 over everything before it

Sections, in order:

====  ==================  =====================================
idx   name                contents
====  ==================  =====================================
0     str_offsets         (n_strings+1) x u32 into str_blob
1     str_blob            UTF-8 bytes of every interned string
2     str_hash            hash_cap x u32 open-addressed table,
                          slot = string_id+1 (0 = empty); probe
                          start crc32(bytes) & (hash_cap-1)
3     str_entry           n_strings x u32 -> the string's member
                          row+1 (0 = not a member)
4     set_primary         n_sets x u32 string ids
5     set_rec_start       (n_sets+1) x u32 into the rec_* rows
6     rec_site            n_records x u32 string ids
7     rec_role            n_records x u8 role codes
8     rec_variant         n_records x u32 string_id+1 (0 = none)
9     rec_set             n_records x u32 set indices
====  ==================  =====================================

``n_entries`` counts the distinct member sites (the strings whose
``str_entry`` is set).  Flag bits: 0x2 = the buffer carries a list
snapshot (a bootstrap epoch carries neither rows nor snapshot).  Bit
0x1 is unused: format version 1 set it when a compiled PSL trie rode
along.  Version 3 loaders refuse version 1 and 2 buffers at the
version field.

Design notes:

* One *unified* string table interns domains, set primaries, and the
  list version / as-of strings, so ``related`` probes reduce to u32
  comparisons of ``rec_set``.
* A site belongs to at most one set, the Related Website Sets rule, and
  the encoder refuses any other list (:class:`OverlappingSetsError`),
  so one row family both answers probes and rebuilds the list
  bit-for-bit under :func:`~repro.serve.snapshot.membership_hash`.  A
  fact declared twice inside one set keeps its rows; ``str_entry``
  points at the first.  Rationales and contacts are **not** carried:
  they are outside membership identity (see ``membership_hash``).
* Encoding runs on every publish, so its peak heap, the returned
  buffer included, stays within 1.5x that buffer (1.4x on 20k- and
  100k-domain lists; small lists pay a fixed overhead on top).
  Strings are interned through the ``str_hash`` table itself, sized
  from an upper bound on the string count and probed against the
  list's own ``str`` objects, so no str-to-id dict or per-string int
  is built; the table is rebuilt at the exact capacity only when the
  bound lands on a larger power of two.  Columns grow as
  ``array("I")`` / ``bytearray``, and the sections stream into one
  ``BytesIO`` under a running CRC, each column dropped once written,
  so the output is never copied.
"""

from __future__ import annotations

import io
import struct
import sys
import zlib
from array import array
from typing import TYPE_CHECKING

from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.serve.snapshot import ListSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.epoch import Epoch

__all__ = [
    "EPOCH_MAGIC",
    "EPOCH_FORMAT_VERSION",
    "EpochFormatError",
    "OverlappingSetsError",
    "encode_epoch",
    "encode_list",
    "epoch_stat",
    "load_epoch",
]

EPOCH_MAGIC = b"RWSE"
EPOCH_FORMAT_VERSION = 3

_FLAG_SNAPSHOT = 0x2

_HEADER = struct.Struct("<4sHHI32sIIIIIIII")
_N_SECTIONS = 10
_SECTION_TABLE = struct.Struct("<" + "II" * _N_SECTIONS)
_DATA_START = _HEADER.size + _SECTION_TABLE.size
_TRAILER = struct.Struct("<I")

# Section indices (see module docstring for the layout table).
_S_STR_OFFSETS = 0
_S_STR_BLOB = 1
_S_STR_HASH = 2
_S_STR_ENTRY = 3
_S_SET_PRIMARY = 4
_S_SET_REC_START = 5
_S_REC_SITE = 6
_S_REC_ROLE = 7
_S_REC_VARIANT = 8
_S_REC_SET = 9

_SECTION_NAMES = (
    "str_offsets", "str_blob", "str_hash", "str_entry", "set_primary",
    "set_rec_start", "rec_site", "rec_role", "rec_variant", "rec_set",
)

#: Sections holding u32 arrays (everything except the blob and u8 roles).
_U8_SECTIONS = frozenset({_S_STR_BLOB, _S_REC_ROLE})

if array("I").itemsize != 4:  # pragma: no cover - exotic platforms only
    raise ImportError("repro.serve.epochfmt requires 4-byte unsigned ints")


class EpochFormatError(ValueError):
    """A buffer is not a valid epoch: wrong magic, truncation, bad CRC.

    Carries structured context: ``section`` names the wire section the
    problem was detected in (or ``None`` for header/trailer problems)
    and ``offset`` the byte offset, when known.
    """

    def __init__(self, message: str, *, section: str | None = None,
                 offset: int | None = None) -> None:
        detail = message
        if section is not None:
            detail += f" [section={section}]"
        if offset is not None:
            detail += f" [offset={offset}]"
        super().__init__(detail)
        self.section = section
        self.offset = offset


class OverlappingSetsError(ValueError):
    """A list puts a site in two sets, which the Related Website Sets
    rules forbid: ``site`` is the first such site in list order, and
    ``primaries`` those of the set that claims it first and of the one
    that claims it again (equal when two sets share a primary)."""

    def __init__(self, site: str, primaries: tuple[str, str]) -> None:
        super().__init__(f"{site} is in the sets of {primaries[0]} and "
                         f"{primaries[1]}: a site belongs to at most one "
                         f"set")
        self.site = site
        self.primaries = primaries


def _require_little_endian() -> None:
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are little
        raise EpochFormatError(
            "epoch buffers are little-endian; refusing on a "
            f"{sys.byteorder}-endian host")


# ---------------------------------------------------------------------------
# Encoding


def _hash_capacity(n_strings: int) -> int:
    """The string table's capacity: at least ``2 * n_strings``, a power
    of two, never below 8."""
    cap = 8
    while cap < 2 * n_strings:
        cap <<= 1
    return cap


def _list_sections(rws_list: RwsList) -> tuple[list, int, int]:
    """The 10 wire sections of ``rws_list`` in section-index order,
    with the list version's and as-of date's string ids + 1 (0 = none).

    Ids are dense in first-encounter order and enter ``str_hash`` in
    that order, so the table equals an id-ordered fill at the same
    capacity (see the module's design notes).
    """
    # Every string is a row's site, a ccTLD row's variant key, the list
    # version or its as-of date, so this bounds the string count
    # without building any set's rows.
    bound = 2
    for rws_set in rws_list.sets:
        bound += 1 + len(rws_set.associated) + len(rws_set.service)
        for variants in rws_set.cctlds.values():
            bound += 1 + len(variants)
    mask = _hash_capacity(bound) - 1
    str_hash = array("I", [0]) * (mask + 1)
    texts: list[str] = []
    crcs = array("I")
    blob = bytearray()
    str_offsets = array("I", [0])
    str_entry = array("I")

    crc32 = zlib.crc32

    def add(text: str) -> int:
        raw = text.encode()
        crc = crc32(raw)
        slot = crc & mask
        value = str_hash[slot]
        while value:
            if texts[value - 1] == text:
                return value - 1
            slot = (slot + 1) & mask
            value = str_hash[slot]
        sid = len(texts)
        texts.append(text)
        str_hash[slot] = sid + 1
        crcs.append(crc)
        blob.extend(raw)
        str_offsets.append(len(blob))
        str_entry.append(0)
        return sid

    set_primary = array("I")
    set_rec_start = array("I", [0])
    rec_site = array("I")
    rec_role = bytearray()
    rec_variant = array("I")
    rec_set = array("I")

    # Rows in member_rows() order.  A site's first row is its entry; a
    # later row of the same set repeats a fact, and one of a later set
    # claims the site twice.
    for set_idx, rws_set in enumerate(rws_list.sets):
        pid = add(rws_set.primary)
        set_primary.append(pid)
        start = len(rec_site)
        for site, code, variant_of in rws_set.member_rows():
            sid = add(site) if code else pid  # row 0 is the primary's
            row = str_entry[sid]
            if not row:
                str_entry[sid] = len(rec_site) + 1
            elif row <= start:
                first = rws_list.sets[rec_set[row - 1]].primary
                raise OverlappingSetsError(site, (first, rws_set.primary))
            rec_site.append(sid)
            rec_role.append(code)
            rec_variant.append(add(variant_of) + 1 if variant_of else 0)
            rec_set.append(set_idx)
        set_rec_start.append(len(rec_site))

    list_version_id = add(rws_list.version) + 1
    as_of_id = add(rws_list.as_of) + 1 if rws_list.as_of else 0
    del add, texts
    cap = _hash_capacity(len(crcs))
    if cap != len(str_hash):  # the bound overshot: rebuild in id order
        str_hash = array("I", [0]) * cap
        mask = cap - 1
        for sid, crc in enumerate(crcs, 1):
            slot = crc & mask
            while str_hash[slot]:
                slot = (slot + 1) & mask
            str_hash[slot] = sid
    sections = [
        str_offsets, blob, str_hash, str_entry, set_primary, set_rec_start,
        rec_site, rec_role, rec_variant, rec_set,
    ]
    return sections, list_version_id, as_of_id


def encode_list(rws_list: RwsList, *,
                snapshot: ListSnapshot | None = None) -> bytes:
    """Serialize a list to the binary wire format.

    ``snapshot``, when given, is the published snapshot of
    ``rws_list``: its version and content hash go in the header and
    the buffer loads back as that snapshot's epoch.

    Encoding is O(list size) Python work and runs once per publish;
    only the *load* side needs to be allocation-free.  It walks each
    set's :meth:`~repro.rws.model.RelatedWebsiteSet.member_rows`, whose
    role codes are the wire's, so no per-member record is built.  The
    sections stream into one ``BytesIO`` under a running CRC, each
    column dropped once written, and ``getvalue()`` hands that buffer
    out without a second copy.

    Raises:
        OverlappingSetsError: When the list puts a site in two sets.
    """
    _require_little_endian()
    sections, list_version_id, as_of_id = _list_sections(rws_list)
    n_strings = len(sections[_S_STR_ENTRY])
    n_entries = n_strings - sections[_S_STR_ENTRY].count(0)
    table: list[int] = []
    offset = _DATA_START
    for section in sections:
        size = memoryview(section).nbytes
        table += (offset, size)
        offset += size + -size % 4
    header = _HEADER.pack(
        EPOCH_MAGIC, EPOCH_FORMAT_VERSION,
        _FLAG_SNAPSHOT if snapshot is not None else 0,
        snapshot.version if snapshot is not None else 0,
        bytes.fromhex(snapshot.content_hash) if snapshot is not None
        else bytes(32),
        list_version_id, as_of_id, n_strings, len(sections[_S_STR_HASH]),
        n_entries, len(sections[_S_SET_PRIMARY]),
        len(sections[_S_REC_SITE]), offset + _TRAILER.size)
    out = io.BytesIO()
    crc = 0
    for part in (header, _SECTION_TABLE.pack(*table)):
        out.write(part)
        crc = zlib.crc32(part, crc)
    for idx, size in enumerate(table[1::2]):
        section, sections[idx] = sections[idx], None
        out.write(section)
        crc = zlib.crc32(section, crc)
        if size % 4:
            pad = bytes(-size % 4)
            out.write(pad)
            crc = zlib.crc32(pad, crc)
    out.write(_TRAILER.pack(crc))
    return out.getvalue()


def encode_epoch(epoch: "Epoch") -> bytes:
    """Serialize an epoch to the binary wire format."""
    snapshot = epoch.snapshot
    if snapshot is None and len(epoch.index) > 0:
        raise ValueError("cannot encode an epoch with entries but no "
                         "snapshot: the wire format is list-derived")
    return encode_list(epoch.rws_list, snapshot=snapshot)


# ---------------------------------------------------------------------------
# Parsed buffer


class _BufferData:
    """Validated header fields + per-section ``memoryview`` casts."""

    __slots__ = (
        "buf", "flags", "snap_version", "content_hash_hex", "list_version",
        "as_of", "n_strings", "hash_cap", "hash_mask", "n_entries",
        "n_sets", "n_records", "total_len",
        "str_offsets", "str_blob", "str_hash", "str_entry", "set_primary",
        "set_rec_start", "rec_site", "rec_role", "rec_variant", "rec_set",
        "_strings",
    )

    def __init__(self, buf, *, verify: bool = True) -> None:
        _require_little_endian()
        view = memoryview(buf)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        self.buf = view
        size = len(view)
        if size < _DATA_START + _TRAILER.size:
            raise EpochFormatError(
                f"buffer too short for an epoch header: {size} bytes")
        (magic, fmt_version, flags, snap_version, content_hash,
         list_version_id, as_of_id, n_strings, hash_cap, n_entries,
         n_sets, n_records, total_len) = _HEADER.unpack_from(view, 0)
        if magic != EPOCH_MAGIC:
            raise EpochFormatError(f"bad magic {bytes(magic)!r}", offset=0)
        if fmt_version != EPOCH_FORMAT_VERSION:
            raise EpochFormatError(
                f"unsupported epoch format version {fmt_version} "
                f"(expected {EPOCH_FORMAT_VERSION})", offset=4)
        if total_len != size:
            raise EpochFormatError(
                f"declared length {total_len} != buffer length {size} "
                f"(truncated or padded buffer)")
        if verify:
            expected = _TRAILER.unpack_from(view, size - _TRAILER.size)[0]
            actual = zlib.crc32(view[:size - _TRAILER.size])
            if actual != expected:
                raise EpochFormatError(
                    f"crc mismatch: computed {actual:#010x}, "
                    f"stored {expected:#010x}",
                    offset=size - _TRAILER.size)
        self.flags = flags
        self.snap_version = snap_version
        self.content_hash_hex = content_hash.hex()
        self.n_strings = n_strings
        self.hash_cap = hash_cap
        self.hash_mask = hash_cap - 1
        self.n_entries = n_entries
        self.n_sets = n_sets
        self.n_records = n_records
        self.total_len = total_len
        if hash_cap < 8 or hash_cap & (hash_cap - 1):
            raise EpochFormatError(
                f"string hash capacity {hash_cap} is not a power of two")

        table = _SECTION_TABLE.unpack_from(view, _HEADER.size)
        expected_lengths = {
            _S_STR_OFFSETS: 4 * (n_strings + 1),
            _S_STR_HASH: 4 * hash_cap,
            _S_STR_ENTRY: 4 * n_strings,
            _S_SET_PRIMARY: 4 * n_sets,
            _S_SET_REC_START: 4 * (n_sets + 1),
            _S_REC_SITE: 4 * n_records,
            _S_REC_ROLE: n_records,
            _S_REC_VARIANT: 4 * n_records,
            _S_REC_SET: 4 * n_records,
        }
        views: list[memoryview] = []
        limit = size - _TRAILER.size
        for idx in range(_N_SECTIONS):
            off, length = table[2 * idx], table[2 * idx + 1]
            name = _SECTION_NAMES[idx]
            if off % 4 or off < _DATA_START or off + length > limit:
                raise EpochFormatError(
                    f"section out of bounds (len={length})",
                    section=name, offset=off)
            want = expected_lengths.get(idx)
            if want is not None and length != want:
                raise EpochFormatError(
                    f"section length {length} != expected {want}",
                    section=name, offset=off)
            part = view[off:off + length]
            if idx not in _U8_SECTIONS:
                if length % 4:
                    raise EpochFormatError(
                        f"u32 section length {length} not a multiple of 4",
                        section=name, offset=off)
                part = part.cast("I")
            views.append(part)

        (self.str_offsets, self.str_blob, self.str_hash, self.str_entry,
         self.set_primary, self.set_rec_start, self.rec_site,
         self.rec_role, self.rec_variant, self.rec_set) = views

        if n_strings and self.str_offsets[n_strings] != \
                len(self.str_blob):
            raise EpochFormatError(
                "string offsets do not cover the blob",
                section="str_offsets")
        if not 0 < list_version_id <= n_strings:
            raise EpochFormatError(
                f"list version string id {list_version_id} out of range")
        if as_of_id > n_strings:
            raise EpochFormatError(
                f"as-of string id {as_of_id} out of range")
        self._strings: dict[int, str] = {}
        self.list_version = self.string(list_version_id - 1)
        self.as_of = self.string(as_of_id - 1) if as_of_id else None

    @property
    def has_snapshot(self) -> bool:
        return bool(self.flags & _FLAG_SNAPSHOT)

    def string(self, sid: int) -> str:
        """Materialize (and memoize) string ``sid``."""
        text = self._strings.get(sid)
        if text is None:
            start = self.str_offsets[sid]
            end = self.str_offsets[sid + 1]
            text = str(bytes(self.str_blob[start:end]), "utf-8")
            self._strings[sid] = text
        return text

    def string_id(self, text: str) -> int:
        """Return the id of ``text`` in the table, or -1 if absent."""
        try:
            raw = text.encode("utf-8")
        except UnicodeEncodeError:
            return -1  # a lone surrogate: no UTF-8 form, so not listed
        mask = self.hash_mask
        table = self.str_hash
        offsets = self.str_offsets
        blob = self.str_blob
        slot = zlib.crc32(raw) & mask
        while True:
            value = table[slot]
            if value == 0:
                return -1
            sid = value - 1
            if blob[offsets[sid]:offsets[sid + 1]] == raw:
                return sid
            slot = (slot + 1) & mask


# ---------------------------------------------------------------------------
# Buffer-backed views


def _read_set(data: _BufferData, set_idx: int) -> RelatedWebsiteSet:
    """Reconstruct set ``set_idx`` from its member records.

    Rationales and contacts are not carried by the wire format (they
    are outside membership identity), so the reconstructed set has
    empty ``rationales`` and ``contact=None``.
    """
    primary = data.string(data.set_primary[set_idx])
    associated: list[str] = []
    service: list[str] = []
    cctlds: dict[str, list[str]] = {}
    for ridx in range(data.set_rec_start[set_idx],
                      data.set_rec_start[set_idx + 1]):
        code = data.rec_role[ridx]
        if code == 0:  # the set's own primary record
            continue
        site = data.string(data.rec_site[ridx])
        if code == 1:
            associated.append(site)
        elif code == 2:
            service.append(site)
        else:
            vid = data.rec_variant[ridx]
            variant = data.string(vid - 1) if vid else primary
            cctlds.setdefault(variant, []).append(site)
    return RelatedWebsiteSet(primary=primary, associated=associated,
                             service=service, cctlds=cctlds)


class _BufferRwsList(RwsList):
    """Lazy ``RwsList`` view: sets materialize on first ``.sets`` access.

    A few readers need the actual list object behind a buffer-loaded
    epoch (a ``snapshot`` fetch encoding it for a client, say).  This
    subclass defers reconstructing the per-set objects until something
    touches ``.sets`` — pure membership serving never does.
    """

    def __init__(self, data: _BufferData) -> None:
        # Deliberately no dataclass __init__: `sets` is a class-level
        # property (a data descriptor), so materialization stays lazy.
        self._data = data
        self._materialized: list[RelatedWebsiteSet] | None = None
        self.version = data.list_version
        self.as_of = data.as_of

    def _materialize(self) -> list[RelatedWebsiteSet]:
        return [_read_set(self._data, set_idx)
                for set_idx in range(self._data.n_sets)]

    @property
    def sets(self) -> list[RelatedWebsiteSet]:
        if self._materialized is None:
            self._materialized = self._materialize()
        return self._materialized

    @sets.setter
    def sets(self, value: list[RelatedWebsiteSet]) -> None:
        self._materialized = list(value)


# ---------------------------------------------------------------------------
# Loading


def load_epoch(buf, *, psl=None, verify: bool = True) -> "Epoch":
    """Load an :class:`Epoch` from an encoded buffer in O(size).

    ``buf`` may be any 1-byte buffer object (``bytes``, ``bytearray``,
    ``mmap``, ``memoryview``); the loaded epoch keeps a read-only view
    into it, so the underlying storage must outlive the epoch.  The
    buffer carries no PSL: pass ``psl`` to resolve hosts with an
    existing resolver, otherwise the default snapshot PSL serves.
    ``verify=False`` skips the CRC check for hot in-process hand-offs
    of trusted buffers.
    """
    from repro.serve.epoch import Epoch
    from repro.serve.index import MembershipIndex

    index = MembershipIndex(buf, verify=verify)
    data = index._data
    if psl is None:
        from repro.psl.lookup import default_psl
        psl = default_psl()
    snapshot = None
    if data.has_snapshot:
        snapshot = ListSnapshot(version=data.snap_version,
                                content_hash=data.content_hash_hex,
                                rws_list=_BufferRwsList(data))
    held = buf if isinstance(buf, bytes) else None
    return Epoch(index=index, snapshot=snapshot, psl=psl, buffer=held)


def epoch_stat(buf, *, verify: bool = True) -> dict:
    """Summarize an encoded epoch without building any views."""
    data = _BufferData(buf, verify=verify)
    return {
        "bytes": data.total_len,
        "format_version": EPOCH_FORMAT_VERSION,
        "snapshot_version": data.snap_version,
        "content_hash": data.content_hash_hex,
        "list_version": data.list_version,
        "as_of": data.as_of,
        "has_snapshot": data.has_snapshot,
        "strings": data.n_strings,
        "entries": data.n_entries,
        "sets": data.n_sets,
        "records": data.n_records,
    }

