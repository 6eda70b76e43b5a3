"""Length-prefixed framing for the API wire codec.

The wire format is deliberately minimal — one frame per JSON wire
document from :mod:`repro.api.codec`::

    +----------------+---------------------------+
    | length: u32 BE | payload: UTF-8 JSON bytes |
    +----------------+---------------------------+

* the 4-byte big-endian unsigned length counts payload bytes only;
* a frame's payload is exactly one codec document (a request envelope,
  a response envelope, or a hello message — the transport never looks
  inside);
* the length must be ``1 ..`` :data:`~repro.api.codec.MAX_WIRE_BYTES`
  (or the peer-negotiated ceiling).  Anything outside that range is a
  :class:`FrameError` **before** any payload is read: a garbage or
  hostile prefix can never force an unbounded buffer, and a zero
  length cannot smuggle an empty document.

Decoding is incremental and split-agnostic: :class:`FrameDecoder`
accepts bytes in whatever chunks the socket produced — partial
prefixes, coalesced frames, one-byte dribble — and yields complete
payloads in order.  ``tests/test_net_frame.py`` property-tests the
round-trip under randomized chunkings; nothing here needs a running
server.
"""

from __future__ import annotations

import struct
from collections import deque

from repro.api.codec import MAX_WIRE_BYTES
from repro.api.envelopes import ApiError, ErrorCode

#: Frame prefix: one network-order unsigned 32-bit payload length.
_PREFIX = struct.Struct("!I")

#: Bytes of length prefix ahead of every payload.
PREFIX_BYTES = _PREFIX.size


class FrameError(ValueError):
    """A byte stream could not be framed (bad prefix, oversized frame).

    Carries a ``MALFORMED`` :class:`~repro.api.envelopes.ApiError` so
    transports can answer with a structured error envelope before
    closing the connection, mirroring
    :class:`~repro.api.codec.WireError` one layer up.
    """

    def __init__(self, message: str, detail: dict[str, str] | None = None):
        super().__init__(message)
        self.error = ApiError(code=ErrorCode.MALFORMED, message=message,
                              detail=detail or {})


def encode_frame(payload: str | bytes,
                 max_bytes: int = MAX_WIRE_BYTES) -> bytes:
    """One wire document as a length-prefixed frame.

    Args:
        payload: The codec document (str is UTF-8 encoded).
        max_bytes: Payload ceiling; refusing oversized frames at the
            sender keeps a well-behaved peer from ever tripping the
            receiver's limit.

    Raises:
        FrameError: For empty or over-limit payloads.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    size = len(payload)
    if size == 0:
        raise FrameError("cannot frame an empty payload")
    if size > max_bytes:
        raise FrameError(
            f"payload of {size} bytes exceeds the {max_bytes}-byte "
            f"frame limit",
            detail={"bytes": str(size), "max_bytes": str(max_bytes)},
        )
    return _PREFIX.pack(size) + payload


class FrameDecoder:
    """Incremental frame decoder over an arbitrarily chunked stream.

    Feed bytes as they arrive (:meth:`feed`), then drain complete
    payloads (:meth:`frames`).  The decoder validates each length
    prefix as soon as its four bytes are available — an out-of-range
    length poisons the decoder permanently (a stream is unrecoverable
    once framing is lost), and every later call re-raises.

    Args:
        max_bytes: Payload ceiling a prefix may declare.
    """

    __slots__ = ("max_bytes", "_buffer", "_need", "_frames", "_error")

    def __init__(self, max_bytes: int = MAX_WIRE_BYTES):
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        #: Payload bytes the current frame still needs (None while
        #: waiting for a complete prefix).
        self._need: int | None = None
        self._frames: deque[bytes] = deque()
        self._error: FrameError | None = None

    def feed(self, data: bytes | bytearray | memoryview) -> int:
        """Absorb one chunk; returns how many frames completed.

        ``data`` is any bytes-like chunk.  The decoder copies what it
        keeps, so the caller may reuse the chunk's memory on return.

        Raises:
            FrameError: When any contained prefix is out of range —
                immediately, even if the payload bytes never arrive.
        """
        if self._error is not None:
            raise self._error
        self._buffer += data
        completed = 0
        while True:
            if self._need is None:
                if len(self._buffer) < PREFIX_BYTES:
                    return completed
                (size,) = _PREFIX.unpack_from(self._buffer)
                if size == 0 or size > self.max_bytes:
                    self._error = FrameError(
                        f"frame prefix declares {size} bytes "
                        f"(limit {self.max_bytes}); framing lost",
                        detail={"bytes": str(size),
                                "max_bytes": str(self.max_bytes)},
                    )
                    raise self._error
                del self._buffer[:PREFIX_BYTES]
                self._need = size
            if len(self._buffer) < self._need:
                return completed
            payload = bytes(self._buffer[:self._need])
            del self._buffer[:self._need]
            self._need = None
            self._frames.append(payload)
            completed += 1

    def frames(self) -> list[bytes]:
        """Drain every completed payload, oldest first."""
        drained = list(self._frames)
        self._frames.clear()
        return drained

    def next_frame(self) -> bytes | None:
        """Pop the oldest completed payload (None when empty)."""
        return self._frames.popleft() if self._frames else None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    @property
    def idle(self) -> bool:
        """True when no partial frame is buffered (a clean boundary)."""
        return not self._buffer and self._need is None and not self._frames
