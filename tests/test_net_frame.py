"""Framing-layer property tests (repro.net.frame) — no server needed.

Round-trips the length-prefixed wire format through every chunking a
socket could produce (random splits, one-byte dribble, coalesced
frames), and pins the failure modes: garbage prefixes, oversized
declarations, decoder poisoning.  Also covers the codec-hardening
satellite: oversized and truncated wire documents must come back as
structured ``MALFORMED`` errors, bounded by
:data:`repro.api.codec.MAX_WIRE_BYTES`.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.codec import (
    MAX_WIRE_BYTES,
    WireError,
    decode_request,
    decode_response,
    encode_request,
)
from repro.api.dispatcher import Dispatcher
from repro.api.envelopes import ErrorCode, QueryRequest
from repro.net.frame import (
    PREFIX_BYTES,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.rws import RelatedWebsiteSet, RwsList
from repro.serve import RwsService


def chunked(blob: bytes, cut_points: list[int]) -> list[bytes]:
    """Split a blob at the given sorted offsets (no empty requirement)."""
    cuts = sorted(set(point % (len(blob) + 1) for point in cut_points))
    pieces = []
    previous = 0
    for cut in cuts:
        pieces.append(blob[previous:cut])
        previous = cut
    pieces.append(blob[previous:])
    return [piece for piece in pieces]


payloads = st.lists(
    st.text(min_size=1, max_size=64).map(lambda s: s.encode("utf-8")),
    min_size=1, max_size=8,
)


class TestRoundTrip:
    @settings(max_examples=50)
    @given(payloads=payloads, cuts=st.lists(st.integers(min_value=0,
                                                        max_value=10_000),
                                            max_size=12))
    def test_random_chunk_splits(self, payloads, cuts):
        """Any chunking of any frame sequence yields the same payloads."""
        blob = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for piece in chunked(blob, cuts):
            decoder.feed(piece)
            out.extend(decoder.frames())
        assert out == payloads
        assert decoder.idle

    @settings(max_examples=50)
    @given(payloads=payloads, cuts=st.lists(st.integers(min_value=0,
                                                        max_value=10_000),
                                            max_size=12))
    def test_reused_chunk_buffer(self, payloads, cuts):
        """Chunks fed as views of one reused buffer, overwritten with
        junk after every feed, still yield the same payloads: the
        decoder copies what it keeps (as the server's reads rely on)."""
        blob = b"".join(encode_frame(p) for p in payloads)
        buffer = bytearray(len(blob))
        view = memoryview(buffer)
        decoder = FrameDecoder()
        out = []
        for piece in chunked(blob, cuts):
            view[:len(piece)] = piece
            decoder.feed(view[:len(piece)])
            buffer[:] = b"\xff" * len(buffer)
            out.extend(decoder.frames())
        assert out == payloads
        assert decoder.idle

    @settings(max_examples=25)
    @given(payloads=payloads)
    def test_one_byte_dribble(self, payloads):
        """The pathological chunking: one byte per feed."""
        blob = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(len(blob)):
            decoder.feed(blob[i:i + 1])
            out.extend(decoder.frames())
        assert out == payloads

    @settings(max_examples=25)
    @given(payloads=payloads)
    def test_coalesced_single_feed(self, payloads):
        """Every frame in one feed call — the opposite extreme."""
        decoder = FrameDecoder()
        completed = decoder.feed(b"".join(encode_frame(p)
                                          for p in payloads))
        assert completed == len(payloads)
        assert decoder.frames() == payloads

    def test_next_frame_pops_in_order(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"a") + encode_frame(b"b"))
        assert decoder.next_frame() == b"a"
        assert decoder.next_frame() == b"b"
        assert decoder.next_frame() is None


class TestRejection:
    def test_garbage_prefix_rejected_before_payload(self):
        """A hostile length never waits for its payload bytes."""
        decoder = FrameDecoder(max_bytes=1024)
        bad = (2048).to_bytes(4, "big")
        with pytest.raises(FrameError) as excinfo:
            decoder.feed(bad)
        assert excinfo.value.error.code is ErrorCode.MALFORMED
        assert "2048" in str(excinfo.value)

    def test_zero_length_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed((0).to_bytes(4, "big"))

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder(max_bytes=16)
        with pytest.raises(FrameError):
            decoder.feed((17).to_bytes(4, "big"))
        # Even a perfectly fine follow-up frame re-raises: framing is
        # lost for good on this stream.
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(b"ok", 16))

    @settings(max_examples=30)
    @given(garbage=st.binary(min_size=PREFIX_BYTES, max_size=64))
    def test_random_garbage_never_overallocates(self, garbage):
        """Random bytes either frame innocently or raise — the buffer
        never exceeds prefix + declared (in-range) payload."""
        decoder = FrameDecoder(max_bytes=256)
        try:
            decoder.feed(garbage)
        except FrameError:
            return
        assert decoder.pending_bytes <= 256

    def test_encode_rejects_empty_and_oversized(self):
        with pytest.raises(FrameError):
            encode_frame(b"")
        with pytest.raises(FrameError):
            encode_frame(b"x" * 17, max_bytes=16)


class TestCodecHardening:
    """Satellite: oversized / truncated payloads → structured MALFORMED."""

    def test_oversized_request_document_refused(self):
        text = encode_request(QueryRequest(host_a="a.example",
                                           host_b="b.example"))
        with pytest.raises(WireError) as excinfo:
            decode_request(text, max_bytes=10)
        error = excinfo.value.error
        assert error.code is ErrorCode.MALFORMED
        assert error.detail["max_bytes"] == "10"
        assert int(error.detail["bytes"]) == len(text.encode("utf-8"))

    def test_oversized_response_document_refused(self):
        with pytest.raises(WireError) as excinfo:
            decode_response("x" * 64, max_bytes=32)
        assert excinfo.value.error.code is ErrorCode.MALFORMED

    def test_max_bytes_none_disables_the_check(self):
        text = encode_request(QueryRequest(host_a="a.example",
                                           host_b="b.example"))
        request, version = decode_request(text, max_bytes=None)
        assert request == QueryRequest(host_a="a.example",
                                       host_b="b.example")

    def test_default_ceiling_is_the_wire_constant(self):
        # A normal document sails through the 4 MiB default.
        text = encode_request(QueryRequest(host_a="a.example",
                                           host_b="b.example"))
        assert len(text.encode("utf-8")) < MAX_WIRE_BYTES
        decode_request(text)

    def test_truncated_payload_is_malformed(self):
        text = encode_request(QueryRequest(host_a="a.example",
                                           host_b="b.example"))
        with pytest.raises(WireError) as excinfo:
            decode_request(text[:len(text) // 2])
        assert excinfo.value.error.code is ErrorCode.MALFORMED

    def test_dispatch_wire_oversized_is_an_error_envelope(self):
        """The never-raises wire entry point folds the size refusal
        into a MALFORMED response envelope."""
        service = RwsService()
        service.publish(RwsList(sets=[RelatedWebsiteSet(
            primary="example.com", associated=["example-news.com"],
            rationales={"example-news.com": "Shared branding."})]))
        try:
            dispatcher = Dispatcher(service)
            text = encode_request(QueryRequest(host_a="example-news.com",
                                               host_b="example.com"))
            envelope = json.loads(dispatcher.dispatch_wire(text,
                                                           max_bytes=10))
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "MALFORMED"
            # And within bounds the same document dispatches fine.
            assert json.loads(dispatcher.dispatch_wire(text))["ok"] is True
        finally:
            service.queue.shutdown()
