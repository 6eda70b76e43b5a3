"""Tests for the zero-copy binary epoch format (repro.serve.epochfmt).

Four concerns, matching the format's claims:

* **Fidelity** — every :class:`~repro.serve.MembershipIndex` answer
  (each index is a view over an encoded epoch) must equal a naive
  oracle built from :class:`~repro.rws.RwsList` scans, a loaded buffer
  must reconstruct a membership hash bit-identical to the stored
  content hash, and a loaded epoch resolves hosts with the caller's
  (or the default) PSL, since the buffer carries none.
* **One set per site** — the encoder refuses exactly the lists that
  put a site in two sets (:class:`OverlappingSetsError`), and every
  publish path keeps no version of a refused list.
* **Robustness** — corrupt, truncated, foreign, or format-version-1
  and -2 buffers are rejected with a structured
  :class:`~repro.serve.EpochFormatError` (never a crash or a silently
  wrong index), and text with no UTF-8 form probes as unlisted.
* **Integration** — every route an epoch arrives by serves the same
  index class, the service hands out the served epoch's own buffer
  (:meth:`~repro.serve.RwsService.encoded_epoch`) instead of encoding
  again, replicas resync from it, and the workload driver's encoded
  fan-out leaves run digests bit-identical to per-shard publishing.
* **Scale fixtures** — the seeded synthetic list generator is
  deterministic and hits its requested domain count exactly, and the
  encoder's transient heap stays within a fixed multiple of its
  output.
* **Publish path** — the membership hash and the encoded buffer are
  pinned bit for bit, the hash and the list diff agree with reference
  formulas built from :class:`~repro.rws.MemberRecord` objects on
  drawn lists, the encoder refuses a drawn list exactly when it has a
  duplicate member and otherwise writes a plain dict-based reference
  encoder's bytes, which load back to the list's hash and answers,
  and a publish's encode peaks within 1.5x the buffer it returns.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import Replica
from repro.data import (
    build_rws_list,
    build_small_synthetic_list,
    build_synthetic_list,
)
from repro.data.synthetic import SMALL_SYNTHETIC_DOMAINS, \
    build_small_synthetic_list_v2
from repro.psl import default_psl
from repro.rws import MemberRecord, RelatedWebsiteSet, RwsList, SiteRole
from repro.rws.diff import ListDiff, diff_lists
from repro.serve import (
    Epoch,
    EpochFormatError,
    ListSnapshot,
    MembershipIndex,
    RwsService,
    SnapshotStore,
    StaleSnapshotError,
    encode_epoch,
    load_epoch,
    membership_hash,
)
from repro.serve.epochfmt import (
    EPOCH_FORMAT_VERSION,
    EPOCH_MAGIC,
    OverlappingSetsError,
    encode_list,
    epoch_stat,
)
from repro.workload import run_serial, run_sharded


def compile_epoch(rws_list: RwsList) -> Epoch:
    snapshot = SnapshotStore().publish(rws_list)
    return Epoch.compile(snapshot, default_psl())


def with_format_version(buf: bytes, version: int) -> bytes:
    """``buf`` with its header's format version rewritten, CRC redone."""
    body = bytearray(buf[:-4])
    struct.pack_into("<H", body, 4, version)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def tricky_list() -> RwsList:
    """A list exercising every index path: all four roles and ccTLD
    variants."""
    return RwsList(sets=[
        RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com", "shared.com"],
            service=["example-cdn.com"],
            cctlds={"example.com": ["example.co.uk", "example.ca"],
                    "example-news.com": ["example-news.co.uk"]},
            rationales={
                "example-news.com": "Shared branding with example.com.",
                "shared.com": "Shared branding.",
                "example-cdn.com": "Asset host for example.com.",
            },
        ),
        RelatedWebsiteSet(
            primary="other.com",
            associated=["other-shop.com"],
            rationales={"other-shop.com": "Affiliated storefront."},
        ),
    ], version="tricky-1", as_of="2024-03-26")


PROBE_SITES = ["example.com", "example-news.com", "example-cdn.com",
               "example.co.uk", "example.ca", "example-news.co.uk",
               "shared.com", "other.com", "other-shop.com",
               "missing.net", "Example.COM"]


def assert_index_matches_oracle(index, rws_list: RwsList, sites) -> None:
    """Every MembershipIndex read answers as scans of the list do."""
    sets = {site: rws_list.find_set_for(site) for site in sites}
    listed = {site for rws_set in rws_list for site in rws_set.members()}
    assert len(index) == index.site_count == len(listed)
    assert index.set_count == len(rws_list.sets)
    for site, want in sets.items():
        assert (site in index) == (want is not None)
        got = index.set_for(site)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.primary == want.primary
            assert got.member_rows() == want.member_rows()
    pairs = [(a, b) for a in sites for b in sites]
    # RwsList.related, with one find_set_for scan per site.
    expected = [a.lower() == b.lower()
                or (sets[a] is not None and sets[a] is sets[b])
                for a, b in pairs]
    assert index.related_batch(pairs) == expected
    normalized = [(a.lower(), b.lower()) for a, b in pairs]
    assert index.related_batch_normalized(normalized) == expected
    for (a, b), related in zip(pairs, expected):
        result = index.query(a, b)
        set_a, set_b = sets[a], sets[b]
        assert result.related == related
        assert result.set_primary == (
            set_a.primary if set_a is not None and set_a is set_b else None)
        assert result.role_a == (set_a.role_of(a) if set_a else None)
        assert result.role_b == (set_b.role_of(b) if set_b else None)


class TestRoundTrip:
    def test_tricky_list_full_api_equivalence(self):
        rws_list = tricky_list()
        epoch = compile_epoch(rws_list)
        loaded = Epoch.from_buffer(epoch.to_buffer())
        for index in (epoch.index, loaded.index):
            assert_index_matches_oracle(index, rws_list, PROBE_SITES)

    def test_seed_list_full_api_equivalence(self):
        rws_list = build_rws_list()
        epoch = compile_epoch(rws_list)
        loaded = Epoch.from_buffer(epoch.to_buffer())
        sites = [site for rws_set in rws_list for site in rws_set.members()]
        sites += ["missing.example", "WWW.SONY.COM"]
        for index in (epoch.index, loaded.index):
            assert_index_matches_oracle(index, rws_list, sites)

    def test_membership_hash_is_bit_identical(self):
        # The rows must carry enough to reconstruct the exact content
        # hash.
        for rws_list in (tricky_list(), build_rws_list(),
                         build_small_synthetic_list()):
            epoch = compile_epoch(rws_list)
            loaded = Epoch.from_buffer(epoch.to_buffer())
            assert loaded.snapshot is not None
            assert membership_hash(loaded.snapshot.rws_list) \
                == epoch.snapshot.content_hash
            assert loaded.snapshot.content_hash \
                == epoch.snapshot.content_hash
            assert loaded.snapshot.version == epoch.snapshot.version
            assert loaded.snapshot.rws_list.version == rws_list.version
            assert loaded.snapshot.rws_list.as_of == rws_list.as_of

    def test_without_psl_section_uses_caller_psl(self):
        epoch = compile_epoch(tricky_list())
        buf = epoch.to_buffer()
        loaded = Epoch.from_buffer(buf, psl=epoch.psl)
        assert loaded.psl is epoch.psl
        # Without an explicit PSL the default snapshot is used.
        assert Epoch.from_buffer(buf).psl.resolve("a.example.co.uk")

    def test_bootstrap_epoch_without_entries_round_trips(self):
        empty = Epoch.bootstrap(default_psl())
        loaded = Epoch.from_buffer(empty.to_buffer())
        assert loaded.snapshot is None
        assert len(loaded.index) == 0
        assert "example.com" not in loaded.index

    def test_stat_reports_section_counts(self):
        epoch = compile_epoch(tricky_list())
        buf = epoch.to_buffer()
        stat = epoch_stat(buf)
        assert stat["bytes"] == len(buf)
        assert stat["snapshot_version"] == 1
        assert stat["content_hash"] == epoch.snapshot.content_hash
        assert stat["list_version"] == "tricky-1"
        assert stat["as_of"] == "2024-03-26"
        assert stat["has_snapshot"]
        assert stat["entries"] == len(epoch.index)
        assert stat["sets"] == 2
        assert stat["records"] == stat["entries"] == 9

    def test_site_without_utf8_form_probes_as_unlisted(self):
        # JSON "\\ud800" escapes decode to lone surrogates, which have no
        # UTF-8 form, so no such text can be in the string table.
        site = "a\ud800b.com"
        loaded = Epoch.from_buffer(compile_epoch(tricky_list()).to_buffer())
        for index in (loaded.index, compile_epoch(tricky_list()).index):
            assert site not in index
            assert not index.related(site, "example.com")
            assert index.related(site, site)
            assert index.related_batch_normalized(
                [(site, "example.com")]) == [False]

    def test_buffer_is_plain_bytes_and_reusable(self):
        buf = compile_epoch(tricky_list()).to_buffer()
        assert isinstance(buf, bytes)
        # Loading twice from the same buffer is independent.
        one = Epoch.from_buffer(buf)
        two = Epoch.from_buffer(memoryview(buf))
        assert one.index.set_for("example.com").members() \
            == two.index.set_for("example.com").members()


class TestRandomizedEquivalence:
    """Fuzzed differential: compiled and loaded index == naive oracle."""

    @staticmethod
    def random_list(rng: random.Random) -> RwsList:
        sets = []
        for set_idx in range(rng.randint(1, 6)):
            base = f"fuzz{set_idx}"
            associated = [f"{base}-a{i}.com"
                          for i in range(rng.randint(0, 3))]
            service = [f"{base}-s{i}.net"
                       for i in range(rng.randint(0, 2))]
            cctlds = {}
            if associated and rng.random() < 0.5:
                cctlds[associated[0]] = \
                    [associated[0].replace(".com", ".co.uk")]
            sets.append(RelatedWebsiteSet(
                primary=f"{base}.com", associated=associated,
                service=service, cctlds=cctlds,
                rationales={m: "fuzzed" for m in associated + service},
            ))
        return RwsList(sets=sets, version=f"fuzz-{rng.random():.6f}")

    def test_fuzzed_lists_round_trip(self):
        for seed in range(25):
            rng = random.Random(seed)
            rws_list = self.random_list(rng)
            epoch = compile_epoch(rws_list)
            loaded = Epoch.from_buffer(epoch.to_buffer(), psl=epoch.psl)
            sites = sorted({site for rws_set in rws_list
                            for site in rws_set.members()})
            probe = sites + ["absent.example"]
            for index in (epoch.index, loaded.index):
                assert_index_matches_oracle(index, rws_list, probe)
            assert membership_hash(loaded.snapshot.rws_list) \
                == epoch.snapshot.content_hash


class TestCorruptionRejection:
    def setup_method(self):
        self.buf = compile_epoch(tricky_list()).to_buffer()

    def test_truncated_buffer_rejected(self):
        for cut in (0, 3, 10, 80, 200, len(self.buf) - 1):
            with pytest.raises(EpochFormatError):
                load_epoch(self.buf[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(self.buf + b"\x00\x00\x00\x00")
        assert "length" in str(excinfo.value)

    def test_bad_magic_rejected(self):
        mangled = b"NOPE" + self.buf[4:]
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(mangled)
        assert "magic" in str(excinfo.value)

    def test_unknown_format_version_rejected(self):
        mangled = bytearray(self.buf)
        mangled[4] = 0xFF  # format_version u16 little-endian low byte
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(bytes(mangled))
        assert "version" in str(excinfo.value)

    def test_format_version_1_buffer_is_refused(self):
        # Version 1 carried the PSL trie sections; a version 1 header
        # with an intact CRC is refused at the version field, before
        # any section is read.
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(with_format_version(self.buf, 1))
        assert excinfo.value.offset == 4
        assert "version 1" in str(excinfo.value)
        # The rewrite itself keeps the buffer valid: only the version
        # field decides.
        assert load_epoch(with_format_version(self.buf, 3)).index \
            .related("example.com", "shared.com")

    def test_format_version_2_buffer_is_refused(self):
        # Version 2 answered from first-wins entry columns that
        # version 3 dropped; its header is refused at the version field.
        with pytest.raises(EpochFormatError) as excinfo:
            epoch_stat(with_format_version(self.buf, 2))
        assert excinfo.value.offset == 4
        assert "version 2" in str(excinfo.value)
        assert epoch_stat(self.buf)["format_version"] == 3

    def test_single_byte_flips_never_crash(self):
        # Any single-byte corruption must surface as EpochFormatError
        # (the CRC trailer catches what structural checks miss) —
        # never an IndexError, struct.error, or a silently wrong load.
        rng = random.Random(7)
        offsets = rng.sample(range(len(self.buf)), 64)
        for offset in offsets:
            mangled = bytearray(self.buf)
            mangled[offset] ^= 0x5A
            with pytest.raises(EpochFormatError):
                load_epoch(bytes(mangled))

    def test_errors_carry_structured_context(self):
        error = None
        try:
            load_epoch(self.buf[: len(self.buf) // 2])
        except EpochFormatError as caught:
            error = caught
        assert error is not None
        assert hasattr(error, "section") and hasattr(error, "offset")
        assert isinstance(error, ValueError)

    def test_verify_false_skips_only_the_checksum(self):
        # Corrupting just the CRC trailer: strict load rejects,
        # verify=False (a trusted mmap'd cache hit) still loads.
        mangled = bytearray(self.buf)
        mangled[-1] ^= 0xFF
        with pytest.raises(EpochFormatError) as excinfo:
            load_epoch(bytes(mangled))
        assert "checksum" in str(excinfo.value) \
            or "crc" in str(excinfo.value).lower()
        loaded = load_epoch(bytes(mangled), verify=False)
        assert loaded.index.related("example.com", "shared.com")
        # Structural damage is rejected even without verification.
        with pytest.raises(EpochFormatError):
            load_epoch(self.buf[:40], verify=False)


class TestServiceIntegration:
    def test_encoded_epoch_is_cached_per_version(self):
        service = RwsService()
        try:
            service.publish(tricky_list())
            first = service.encoded_epoch()
            second = service.encoded_epoch()
            assert first is second  # the served epoch's own bytes
            report = service.stats_report()
            assert report["epoch.encodes"] == 1.0  # the publish
            assert report["epoch.encode_ns"] > 0.0
        finally:
            service.queue.shutdown()

    def test_encoded_epoch_without_publish_is_none(self):
        service = RwsService()
        try:
            assert service.encoded_epoch() is None
        finally:
            service.queue.shutdown()

    def test_adopt_encoded_bootstraps_a_follower(self):
        primary, follower = RwsService(), RwsService()
        try:
            primary.publish(tricky_list())
            buf = primary.encoded_epoch()
            snapshot = follower.adopt_encoded(buf)
            assert snapshot.version == 1
            assert follower.current_snapshot.content_hash \
                == primary.current_snapshot.content_hash
            assert follower.epoch.index.related("example.com",
                                                "shared.com")
            report = follower.stats_report()
            assert report["epoch.loads"] == 1.0
            assert report["epoch.load_ns"] > 0.0
            # The follower hands out the very buffer it adopted.
            assert follower.encoded_epoch(1) is buf
            assert follower.stats_report()["epoch.encodes"] == 0.0
        finally:
            primary.queue.shutdown()
            follower.queue.shutdown()

    def test_adopt_encoded_rejects_version_gap(self):
        primary, follower = RwsService(), RwsService()
        try:
            primary.publish(tricky_list())
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            primary.publish(grown)
            with pytest.raises(StaleSnapshotError):
                follower.adopt_encoded(primary.encoded_epoch(2))
        finally:
            primary.queue.shutdown()
            follower.queue.shutdown()

    def test_adopt_encoded_rejects_bootstrap_buffer(self):
        service = RwsService()
        try:
            empty = Epoch.bootstrap(default_psl())
            with pytest.raises(ValueError):
                service.adopt_encoded(empty.to_buffer())
        finally:
            service.queue.shutdown()

    def test_stale_version_encodes_from_the_store(self):
        service = RwsService()
        try:
            service.publish(tricky_list())
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            service.publish(grown)
            old = service.encoded_epoch(1)
            assert old is not None
            assert epoch_stat(old)["snapshot_version"] == 1
            assert service.encoded_epoch(99) is None
        finally:
            service.queue.shutdown()


class TestReplicaResync:
    def test_resync_reuses_the_primary_encoded_epoch(self):
        primary = RwsService(workers=2)
        try:
            primary.publish(tricky_list())
            replicas = [Replica(i, primary) for i in range(3)]
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            primary.publish(grown)
            encodes = primary.stats_report()["epoch.encodes"]
            for replica in replicas:
                assert replica.resync()
                assert replica.version == 2
                assert replica.epoch_loads == 1
                assert replica.epoch_load_ns > 0
                assert replica.stats_report()["epoch.loads"] == 1.0
            # The publish's own encode serves the whole fleet.
            assert primary.stats_report()["epoch.encodes"] == encodes
            # Resynced replicas answer from the loaded buffer index.
            for replica in replicas:
                verdict = replica.query("new.com", "new-blog.com")
                assert verdict.related
        finally:
            primary.queue.shutdown()

    def test_resync_survives_a_primary_without_encoder(self):
        # _adopt degrades to a recompile when the primary has no
        # encoded_epoch surface (an older peer, say).
        primary = RwsService(workers=2)
        try:
            primary.publish(tricky_list())
            replica = Replica(0, primary)
            grown = tricky_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."}))
            snapshot = primary.publish(grown)
            replica.primary = object()  # no encoded_epoch attribute
            assert replica.resync(snapshot)
            assert replica.version == 2
            assert replica.epoch_loads == 0  # compiled, not loaded
        finally:
            primary.queue.shutdown()


class TestOneRepresentation:
    """However an epoch arrives, it serves the same index class, and
    the service hands out the bytes that index was loaded from."""

    def test_every_route_serves_one_index_class(self):
        grown = tricky_list()
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."}))
        primary, follower = RwsService(), RwsService()
        try:
            primary.publish(tricky_list())
            follower.adopt_encoded(primary.encoded_epoch())
            applier, resyncer = Replica(0, primary), Replica(1, primary)
            snapshot = primary.publish(grown)
            applier.receive(snapshot, base_version=1, published_clock=0)
            applier.sync()
            resyncer.resync()
            follower.adopt_encoded(primary.encoded_epoch())
            arrivals = {
                "publish": primary.epoch,
                "hop apply": applier.epoch,
                "adopt_encoded": follower.epoch,
                "resync": resyncer.epoch,
                "bootstrap": Epoch.bootstrap(default_psl()),
            }
            for route, epoch in arrivals.items():
                assert type(epoch.index) is MembershipIndex, route
            del arrivals["bootstrap"]
            for route, epoch in arrivals.items():
                assert epoch.buffer is not None, route
                assert epoch.version == snapshot.version, route
                assert epoch.index.related("new.com", "new-blog.com"), route
            for service in (primary, follower):
                encodes = service.stats_report()["epoch.encodes"]
                buf = service.encoded_epoch()
                assert buf is service.epoch.buffer
                assert service.stats_report()["epoch.encodes"] == encodes
        finally:
            primary.queue.shutdown()
            follower.queue.shutdown()

    def test_to_buffer_hands_out_the_held_buffer(self):
        epoch = compile_epoch(tricky_list())
        assert epoch.to_buffer() is epoch.buffer
        loaded = Epoch.from_buffer(epoch.buffer)
        assert loaded.to_buffer() is epoch.buffer
        # The format carries no PSL, so asking for one is an error.
        with pytest.raises(ValueError):
            epoch.to_buffer(include_psl=True)


class TestSyntheticGenerator:
    def test_exact_domain_count_and_determinism(self):
        one = build_synthetic_list(3000, seed=7)
        two = build_synthetic_list(3000, seed=7)
        assert membership_hash(one) == membership_hash(two)
        assert one.version == two.version
        index = MembershipIndex.from_list(one)
        assert index.site_count == 3000

    def test_seed_changes_the_list(self):
        assert membership_hash(build_synthetic_list(1000, seed=1)) \
            != membership_hash(build_synthetic_list(1000, seed=2))

    def test_small_variant_is_fixed_size(self):
        small = build_small_synthetic_list()
        index = MembershipIndex.from_list(small)
        assert index.site_count == SMALL_SYNTHETIC_DOMAINS
        v2 = build_small_synthetic_list_v2()
        assert membership_hash(v2) != membership_hash(small)
        assert v2.version != small.version

    def test_encoder_heap_peak_is_bounded(self):
        # Deterministic: tracemalloc counts bytes, not time.  A dict
        # index over this list retains ~2.5x the buffer; the encoder's
        # transient peak (its output included) must stay within 4x.
        epoch = compile_epoch(build_synthetic_list(2000, seed=3))
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            buf = encode_epoch(epoch)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * len(buf), peak / len(buf)

    def test_synthetic_list_round_trips(self):
        epoch = compile_epoch(build_synthetic_list(2000, seed=3))
        loaded = Epoch.from_buffer(epoch.to_buffer(), psl=epoch.psl)
        assert len(loaded.index) == 2000
        assert membership_hash(loaded.snapshot.rws_list) \
            == epoch.snapshot.content_hash


class TestWorkloadDigestIdentity:
    """Encoded fan-out must not move any run digest."""

    SCENARIOS = ["steady", "list-update", "stale-replica",
                 "synthetic-bulk"]

    def test_encoded_and_compiled_digests_match_serially(self):
        for name in self.SCENARIOS:
            encoded = run_serial(name, 40, seed=9)
            compiled = run_serial(name, 40, seed=9, encoded_epoch=False)
            assert encoded.digest == compiled.digest, name
            assert encoded.decisions == compiled.decisions, name

    def test_encoded_and_compiled_digests_match_sharded(self):
        for name in ("steady", "synthetic-bulk"):
            compiled = run_sharded(name, 40, 3, seed=9,
                                   executor="inline",
                                   encoded_epoch=False)
            encoded = run_sharded(name, 40, 3, seed=9,
                                  executor="inline")
            threaded = run_sharded(name, 40, 2, seed=9,
                                   executor="thread")
            assert encoded.digest == compiled.digest, name
            assert threaded.digest == compiled.digest, name


class TestPublishPathPins:
    """The publish path's outputs: hashes pinned before rows replaced
    records, buffers since format 3 dropped the entry columns.  The
    tricky lists put a site in two sets, so the encoder refuses them."""

    PINS = {
        "seed": (
            build_rws_list, (41, 108, 14, 10),
            "ec0ffaf6f8e0f3af54e28d1de4fa63def006928d5d6450030d576ff3fa8548c6",
            8_640,
            "3689a3ec8c0d1977b6fe4faddbd5296a530ddf4c06efef49a9ee406c6c59c027",
        ),
        "synthetic-2000": (
            lambda: build_synthetic_list(2000, seed=3), (99, 1327, 290, 284),
            "a8f79b05862d814131d7ed0b08706cb89f2953481fcd3db7bc8a817f3d2ea170",
            95_260,
            "75e359dd95250dfca0d1b0287131256412191e0098f622c8454cd7885380a185",
        ),
        # Pinned before the encoder interned through its own hash table.
        "synthetic-20000": (
            lambda: build_synthetic_list(20_000, seed=3),
            (991, 13315, 2778, 2916),
            "aea5da2b6ee120d13df65fd834580a3e5df2238298a95a748ed2d8e1834d0ce5",
            1_048_912,
            "02c82f608bbaf754ba85a15daed026a02390fa526243ff2e9788643a58148675",
        ),
        "tricky-old": (
            lambda: TRICKY_PAIR[0], (2, 3, 1, 2),
            "321d987307cb5d9ad1957c92f19c127b0d48b28185b5138b402ca564c325ac24",
            None, None,
        ),
        "tricky-new": (
            lambda: TRICKY_PAIR[1], (2, 1, 1, 0),
            "f133a10dafad7d6924ca29a9bca11b01b58653677f78fc70d9c5ab179b5a3adb",
            None, None,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_hash_and_buffer_are_pinned(self, name):
        build, roles, content_hash, size, buffer_sha = self.PINS[name]
        rws_list = build()
        composition = rws_list.composition()
        assert tuple(composition[role] for role in SiteRole) == roles
        assert membership_hash(rws_list) == content_hash
        snapshot = SnapshotStore().publish(rws_list)
        if size is None:
            with pytest.raises(OverlappingSetsError):
                encode_list(rws_list, snapshot=snapshot)
            return
        buf = encode_list(rws_list, snapshot=snapshot)
        assert len(buf) == size
        assert hashlib.sha256(buf).hexdigest() == buffer_sha


def heap_peak(call) -> tuple[int, bytes]:
    """``call()``'s peak traced heap above the baseline, and its bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        buf = call()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    return peak, buf


class TestPublishHeap:
    """A publish's encode peaks near the buffer it returns."""

    def test_encode_and_compile_peak_within_one_and_a_half_buffers(self):
        # Deterministic: tracemalloc counts bytes, not time.  Interning
        # through the wire's own hash table and streaming the sections
        # leaves no str-to-id dict, per-string int or joined copy; the
        # dict-and-join encoder peaked at 2.82x on this list.
        rws_list = build_synthetic_list(20_000, seed=3)
        snapshot = SnapshotStore().publish(rws_list)
        psl = default_psl()
        for call in (lambda: encode_list(rws_list, snapshot=snapshot),
                     lambda: Epoch.compile(snapshot, psl).buffer):
            peak, buf = heap_peak(call)
            assert len(buf) == 1_048_912
            assert peak <= 1.5 * len(buf), peak / len(buf)


# Few labels over a non-ASCII alphabet, so sites collide often: inside
# a subset, across subsets and across sets.
SITES = st.builds("{}.{}".format,
                  st.text(alphabet="abéк中", min_size=1, max_size=2),
                  st.sampled_from(["com", "de", "中国"]))


@st.composite
def drawn_sets(draw) -> RelatedWebsiteSet:
    subset = st.lists(SITES, max_size=4)
    return RelatedWebsiteSet(
        primary=draw(SITES),
        associated=draw(subset),
        service=draw(subset),
        # Keys are drawn apart from the members, so a variant may be
        # keyed by a site that is not in the set.
        cctlds=draw(st.dictionaries(SITES, subset, max_size=2)),
        rationales=draw(st.dictionaries(
            SITES, st.sampled_from(["brand", "cdn"]), max_size=3)),
    )


@st.composite
def list_pairs(draw) -> tuple[RwsList, RwsList]:
    """Two lists sharing some sets, as a republish does."""
    pool = draw(st.lists(drawn_sets(), max_size=6))
    old = [s for s in pool if draw(st.booleans())]
    new = [s for s in pool if draw(st.booleans())]
    return RwsList(sets=old), RwsList(sets=new)


#: Every shape the strategy aims for, drawn or not: a cross-set
#: duplicate, a site repeated inside one subset, a variant keyed by a
#: non-member, an empty subset and non-ASCII sites.  ``b.de`` is one
#: fact declared by two records that differ in ``variant_of``, so the
#: diff must keep the last.  ``b.com`` is in both old sets and
#: ``a.com`` primary of both new ones, so the encoder refuses both.
TRICKY_PAIR = (
    RwsList(sets=[
        RelatedWebsiteSet(primary="a.com", associated=["b.com", "b.com"],
                          cctlds={"z.com": ["b.de"], "a.com": ["b.de"]},
                          rationales={"b.com": "brand"}),
        RelatedWebsiteSet(primary="é.中国", associated=["b.com"],
                          service=["к.de"]),
    ]),
    RwsList(sets=[
        RelatedWebsiteSet(primary="a.com", associated=["b.com"],
                          cctlds={"a.com": []}),
        RelatedWebsiteSet(primary="a.com", service=["к.de"],
                          rationales={"к.de": "cdn"}),
    ]),
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150,
                             deadline=None)


def reference_records(rws_set: RelatedWebsiteSet) -> list[MemberRecord]:
    """A set's records spelled out from its fields."""
    rationale = rws_set.rationales.get
    records = [MemberRecord(rws_set.primary, SiteRole.PRIMARY,
                            rws_set.primary,
                            rationale=rationale(rws_set.primary))]
    for role, sites in ((SiteRole.ASSOCIATED, rws_set.associated),
                        (SiteRole.SERVICE, rws_set.service)):
        records += [MemberRecord(site, role, rws_set.primary,
                                 rationale=rationale(site))
                    for site in sites]
    for member, variants in rws_set.cctlds.items():
        records += [MemberRecord(variant, SiteRole.CCTLD, rws_set.primary,
                                 variant_of=member,
                                 rationale=rationale(variant))
                    for variant in variants]
    return records


def reference_hash(rws_list: RwsList) -> str:
    """Each (set, role, site) fact once, sorted, joined per key."""
    digest = hashlib.sha256()
    keys = sorted({(record.set_primary, record.role.value, record.site)
                   for record in rws_list.all_members()})
    for key in keys:
        digest.update("\x1f".join(key).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def reference_diff(old: RwsList, new: RwsList) -> ListDiff:
    """The diff as a dict of records keyed by fact (last record wins)."""
    def key(record):
        return (record.set_primary, record.role.value, record.site)

    old_members = {key(r): r for r in old.all_members()}
    new_members = {key(r): r for r in new.all_members()}
    added = [new_members[k]
             for k in sorted(new_members.keys() - old_members.keys())]
    removed = [old_members[k]
               for k in sorted(old_members.keys() - new_members.keys())]
    old_primaries, new_primaries = set(old.primaries()), set(new.primaries())
    changed = {r.set_primary for r in added + removed
               if r.set_primary in old_primaries
               and r.set_primary in new_primaries}
    return ListDiff(added_sets=sorted(new_primaries - old_primaries),
                    removed_sets=sorted(old_primaries - new_primaries),
                    added_members=added, removed_members=removed,
                    changed_sets=sorted(changed))


def reference_encode(rws_list: RwsList,
                     snapshot: ListSnapshot | None = None) -> bytes:
    """The wire layout of the format's docstring, built plainly for a
    list with one set per site: a str-to-id dict, the hash table filled
    in id order after the walk, and one join under the CRC."""
    ids: dict[str, int] = {}

    def add(text: str) -> int:
        return ids.setdefault(text, len(ids))

    str_entry: dict[int, int] = {}
    rows: list[tuple[int, int, int, int]] = []
    set_primary: list[int] = []
    set_rec_start = [0]
    for set_idx, rws_set in enumerate(rws_list.sets):
        set_primary.append(add(rws_set.primary))
        for site, code, variant_of in rws_set.member_rows():
            sid = add(site)
            vid = add(variant_of) + 1 if variant_of else 0
            str_entry.setdefault(sid, len(rows) + 1)
            rows.append((sid, code, vid, set_idx))
        set_rec_start.append(len(rows))
    list_version_id = add(rws_list.version) + 1
    as_of_id = add(rws_list.as_of) + 1 if rws_list.as_of else 0

    raws = [text.encode("utf-8") for text in ids]  # in id order
    offsets = [0]
    for raw in raws:
        offsets.append(offsets[-1] + len(raw))
    cap = 8
    while cap < 2 * len(raws):
        cap <<= 1
    table = [0] * cap
    for sid, raw in enumerate(raws):
        slot = zlib.crc32(raw) & (cap - 1)
        while table[slot]:
            slot = (slot + 1) & (cap - 1)
        table[slot] = sid + 1

    def u32(values: list[int]) -> bytes:
        return struct.pack(f"<{len(values)}I", *values)

    def column(field: int) -> list[int]:
        return [row[field] for row in rows]

    sections = [
        u32(offsets), b"".join(raws), u32(table),
        u32([str_entry.get(sid, 0) for sid in range(len(raws))]),
        u32(set_primary), u32(set_rec_start),
        u32(column(0)), bytes(column(1)), u32(column(2)), u32(column(3)),
    ]
    section_table: list[int] = []
    parts: list[bytes] = []
    offset = 76 + 10 * 8  # the header, then the section table
    for section in sections:
        section_table += (offset, len(section))
        parts.append(section + bytes(-len(section) % 4))
        offset += len(parts[-1])
    header = struct.pack(
        "<4sHHI32sIIIIIIII", EPOCH_MAGIC, EPOCH_FORMAT_VERSION,
        0x2 if snapshot is not None else 0,
        snapshot.version if snapshot is not None else 0,
        bytes.fromhex(snapshot.content_hash) if snapshot is not None
        else bytes(32),
        list_version_id, as_of_id, len(raws), cap, len(str_entry),
        len(set_primary), len(rows), offset + 4)
    body = b"".join([header, u32(section_table), *parts])
    return body + struct.pack("<I", zlib.crc32(body))


def one_set_per_site(rws_list: RwsList) -> RwsList:
    """``rws_list`` cut down to a list the encoder accepts: a set whose
    primary an earlier set claims is left out, and every other set
    loses the sites an earlier set claims (repeats inside a set stay)."""
    claimed: set[str] = set()
    sets: list[RelatedWebsiteSet] = []
    for rws_set in rws_list.sets:
        if rws_set.primary in claimed:
            continue

        def unclaimed(sites: list[str]) -> list[str]:
            return [site for site in sites if site not in claimed]

        kept = dataclasses.replace(
            rws_set, associated=unclaimed(rws_set.associated),
            service=unclaimed(rws_set.service),
            cctlds={member: unclaimed(variants)
                    for member, variants in rws_set.cctlds.items()})
        claimed.update(kept.members())
        sets.append(kept)
    return dataclasses.replace(rws_list, sets=sets)


class TestPublishPathReference:
    """Row-walk consumers against record-based reference formulas."""

    @PROPERTY_SETTINGS
    @given(drawn_sets())
    def test_member_rows_spell_member_records(self, rws_set):
        records = list(rws_set.member_records())
        assert records == reference_records(rws_set)
        assert rws_set.member_rows() == [
            (r.site, list(SiteRole).index(r.role), r.variant_of)
            for r in records]

    @PROPERTY_SETTINGS
    @given(list_pairs())
    @example(TRICKY_PAIR)
    def test_membership_hash_matches_reference(self, pair):
        for rws_list in pair:
            assert membership_hash(rws_list) == reference_hash(rws_list)

    @PROPERTY_SETTINGS
    @given(list_pairs())
    @example(TRICKY_PAIR)
    def test_diff_matches_reference(self, pair):
        old, new = pair
        for before, after in ((old, new), (new, old)):
            diff = diff_lists(before, after)
            assert diff == reference_diff(before, after)
            assert diff.is_empty == (membership_hash(before)
                                     == membership_hash(after))

    @PROPERTY_SETTINGS
    @given(list_pairs())
    @example(TRICKY_PAIR)
    def test_encoder_matches_reference(self, pair):
        for rws_list in map(one_set_per_site, pair):
            snapshot = SnapshotStore().publish(rws_list)
            assert encode_list(rws_list) == reference_encode(rws_list)
            assert encode_list(rws_list, snapshot=snapshot) \
                == reference_encode(rws_list, snapshot)

    @PROPERTY_SETTINGS
    @given(list_pairs())
    @example(TRICKY_PAIR)
    def test_encoded_list_rebuilds_the_snapshot_hash(self, pair):
        for rws_list in map(one_set_per_site, pair):
            snapshot = SnapshotStore().publish(rws_list)
            loaded = load_epoch(encode_list(rws_list, snapshot=snapshot))
            assert membership_hash(loaded.snapshot.rws_list) \
                == snapshot.content_hash

    @PROPERTY_SETTINGS
    @given(st.lists(drawn_sets(), max_size=6))
    @example(TRICKY_PAIR[0].sets)
    @example(TRICKY_PAIR[1].sets)
    @example(TRICKY_PAIR[1].sets[:1])
    def test_encoder_refuses_exactly_a_site_in_two_sets(
            self, sets):
        # One set per site, the rule the serving layer keeps: the
        # encoder refuses exactly the lists with a duplicate member and
        # names the first site claimed twice and both claimants;
        # otherwise it writes the reference bytes, which load back to
        # the list's hash and answer every drawn pair as list scans do.
        rws_list = RwsList(sets=sets)
        snapshot = SnapshotStore().publish(rws_list)
        duplicates = rws_list.duplicate_members()
        if duplicates:
            with pytest.raises(OverlappingSetsError) as excinfo:
                encode_list(rws_list, snapshot=snapshot)
            error = excinfo.value
            assert error.site in duplicates
            claimants = [rws_set.primary for rws_set in sets
                         if error.site in rws_set.members()]
            assert error.primaries == tuple(claimants[:2])
            return
        assert encode_list(rws_list) == reference_encode(rws_list)
        buf = encode_list(rws_list, snapshot=snapshot)
        assert buf == reference_encode(rws_list, snapshot)
        loaded = load_epoch(buf)
        assert membership_hash(loaded.snapshot.rws_list) \
            == snapshot.content_hash
        sites = sorted({site for rws_set in sets
                        for site in rws_set.members()})
        assert_index_matches_oracle(loaded.index, rws_list,
                                    sites + ["unlisted.com"])
