"""Immutable serving epochs: one encoded, versioned unit of truth.

An :class:`Epoch` bundles everything a reader needs to answer
membership questions — the :class:`MembershipIndex` over the epoch's
binary buffer, the :class:`ListSnapshot` it was encoded from, and the
PSL handle the snapshot's domains were resolved against — into one
value that is **constructed once and never mutated**.  Publication
does not update an epoch; it builds a new one and swaps a single
reference, so a reader that captured an epoch keeps a consistent
(index, snapshot, version) triple for as long as it holds the
reference, no matter how many publishes land mid-request.

Every epoch serves from an encoded buffer
(:mod:`repro.serve.epochfmt`): :meth:`Epoch.compile` encodes the
snapshot once and loads the result, and :meth:`Epoch.from_buffer`
loads a buffer encoded elsewhere, so one index representation answers
however a list version arrived.

This is the unit the whole serving stack moves:

* :class:`~repro.serve.service.RwsService` holds the *current* epoch
  and swaps it atomically on publish (the thin stateful shell);
* :class:`~repro.cluster.Replica` catches up to the primary's epochs
  by version: it loads the primary's buffer, takes a new view over the
  buffer the primary serves, or encodes the primary's stored snapshot;
* :class:`~repro.browser.engine.Browser` adopts an epoch the way
  Chrome consumes a component-updater payload
  (:meth:`~repro.browser.engine.Browser.adopt_epoch`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.psl import PublicSuffixList
from repro.rws.model import RwsList
from repro.serve.epochfmt import encode_epoch, encode_list, load_epoch
from repro.serve.index import MembershipIndex
from repro.serve.snapshot import ListSnapshot


@dataclass(frozen=True, slots=True)
class Epoch:
    """One immutable, queryable generation of the served list.

    Attributes:
        index: The membership index over the epoch's encoded buffer.
        snapshot: The published snapshot this epoch serves (None only
            for the bootstrap epoch, before any publish).
        psl: The public suffix list the serving stack resolves hosts
            against; carried so an adopted epoch is self-contained.
        buffer: The encoded bytes the index was loaded from — what
            :meth:`to_buffer` hands out without encoding again.  None
            for the bootstrap epoch and for an epoch loaded from
            another buffer object (a mapped file, say).
    """

    index: MembershipIndex
    snapshot: ListSnapshot | None
    psl: PublicSuffixList
    buffer: bytes | None = None

    @property
    def version(self) -> int:
        """The served snapshot version (0 before any publish)."""
        return self.snapshot.version if self.snapshot is not None else 0

    @property
    def content_hash(self) -> str:
        """The served membership hash ("" before any publish)."""
        return (self.snapshot.content_hash
                if self.snapshot is not None else "")

    @property
    def rws_list(self) -> RwsList:
        """The served list (empty before any publish)."""
        return (self.snapshot.rws_list
                if self.snapshot is not None else RwsList())

    @classmethod
    def bootstrap(cls, psl: PublicSuffixList) -> Epoch:
        """The pre-publish epoch: an empty list's index, no snapshot."""
        return cls(index=MembershipIndex.from_list(RwsList()),
                   snapshot=None, psl=psl)

    @classmethod
    def compile(cls, snapshot: ListSnapshot, psl: PublicSuffixList) -> Epoch:
        """Encode a published snapshot once and serve the loaded buffer.

        The epoch keeps ``snapshot`` itself (and the index hands back
        its list's own sets), so nothing is rebuilt from the buffer.
        """
        return cls.over(encode_list(snapshot.rws_list, snapshot=snapshot),
                        snapshot, psl)

    @classmethod
    def over(cls, buf: bytes, snapshot: ListSnapshot,
             psl: PublicSuffixList) -> Epoch:
        """Serve ``buf``, an encoding of ``snapshot`` made in-process.

        A new index view over the buffer, with no encode and no CRC
        check; the epoch keeps ``snapshot`` itself, as :meth:`compile`
        does.
        """
        index = MembershipIndex(buf, sets=tuple(snapshot.rws_list.sets),
                                verify=False)
        return cls(index=index, snapshot=snapshot, psl=psl, buffer=buf)

    def to_buffer(self, *, include_psl: bool = False) -> bytes:
        """This epoch in the zero-copy binary wire format.

        Hands out the held :attr:`buffer`, encoding only when the epoch
        holds none.  The buffer loads back via :meth:`from_buffer` in
        O(size) with no per-entry object construction — see
        :mod:`repro.serve.epochfmt` for the layout.  The format carries
        no PSL, so ``include_psl`` accepts only ``False``.

        Raises:
            ValueError: When ``include_psl`` is true.
        """
        if include_psl:
            raise ValueError("the epoch format carries no PSL")
        if self.buffer is not None:
            return self.buffer
        return encode_epoch(self)

    @classmethod
    def from_buffer(cls, buf, *, psl: PublicSuffixList | None = None,
                    verify: bool = True) -> Epoch:
        """Load an epoch from an encoded buffer in O(size).

        The returned epoch's index is a lazy, array-backed view over
        ``buf`` (which must outlive the epoch); ``psl`` is the resolver
        it serves with (default: the snapshot PSL).  ``verify=False``
        skips the CRC for trusted in-process hand-offs.

        Raises:
            repro.serve.epochfmt.EpochFormatError: On a corrupt,
                truncated, or incompatible buffer.
        """
        return load_epoch(buf, psl=psl, verify=verify)
