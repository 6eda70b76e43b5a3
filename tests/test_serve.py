"""Tests for the serving layer (repro.serve)."""

import random
import threading
import time

import pytest

from repro.browser import BROWSER_POLICIES, Browser, GrantDecision
from repro.psl import PublicSuffixList
from repro.rws import RelatedWebsiteSet, RwsList, SiteRole, Validator
from repro.serve import (
    Epoch,
    MembershipIndex,
    RwsService,
    SnapshotStore,
    StaleSnapshotError,
    SubmissionStatus,
    ValidationQueue,
    membership_hash,
)


def small_list() -> RwsList:
    return RwsList(sets=[
        RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com"],
            service=["example-cdn.com"],
            cctlds={"example.com": ["example.co.uk"]},
            rationales={
                "example-news.com": "Shared branding with example.com.",
                "example-cdn.com": "Asset host for example.com.",
            },
        ),
        RelatedWebsiteSet(
            primary="other.com",
            associated=["other-shop.com"],
            rationales={"other-shop.com": "Affiliated storefront."},
        ),
    ])


class TestMembershipIndex:
    def setup_method(self):
        self.rws_list = small_list()
        self.index = MembershipIndex.from_list(self.rws_list)

    def test_counts(self):
        assert self.index.set_count == 2
        assert self.index.site_count == 6
        assert len(self.index) == 6
        assert "example.com" in self.index
        assert "missing.net" not in self.index

    def test_unknown_domain(self):
        result = self.index.query("missing.net", "example.com")
        assert result.role_a is None and result.set_primary is None
        assert self.index.set_for("missing.net") is None
        assert not self.index.related("missing.net", "example.com")
        assert not self.index.related("example.com", "missing.net")
        # An unknown domain is still trivially related to itself.
        assert self.index.related("missing.net", "missing.net")

    def test_domain_equal_to_primary(self):
        result = self.index.query("example.com", "example.com")
        assert result.role_a is SiteRole.PRIMARY
        assert result.set_primary == "example.com"
        assert self.index.related("example.com", "example-news.com")
        assert self.index.related("example.com", "example.com")
        assert self.index.set_for("example.com") is self.rws_list.sets[0]

    def test_cctld_variant_member(self):
        result = self.index.query("example.co.uk", "example.com")
        assert result.role_a is SiteRole.CCTLD
        assert result.set_primary == "example.com"
        assert self.index.set_for("example.co.uk").cctlds == {
            "example.com": ["example.co.uk"]}
        assert self.index.related("example.co.uk", "example.com")
        assert self.index.related("example.co.uk", "example-cdn.com")
        assert not self.index.related("example.co.uk", "other.com")

    def test_case_insensitive(self):
        assert self.index.related("Example.COM", "EXAMPLE-NEWS.com")
        assert self.index.query("OTHER.com", "x.com").role_a \
            is SiteRole.PRIMARY
        assert "OTHER.com" in self.index

    def test_batch_and_query_agree_with_single(self):
        pairs = [
            ("example.com", "example-news.com"),
            ("example.com", "other.com"),
            ("missing.net", "missing.net"),
            ("other-shop.com", "other.com"),
        ]
        single = [self.index.related(a, b) for a, b in pairs]
        assert self.index.related_batch(pairs) == single
        queried = [self.index.query(a, b) for a, b in pairs]
        assert [r.related for r in queried] == single
        assert queried[0].set_primary == "example.com"
        assert queried[0].role_b is SiteRole.ASSOCIATED
        assert queried[1].set_primary is None

    def test_members_of(self):
        assert self.index.set_for("example-cdn.com").members() == [
            "example.com", "example-news.com", "example-cdn.com",
            "example.co.uk",
        ]

    def test_interned_domains_are_shared(self):
        # Every answer naming a primary names one interned string.
        variant = self.index.query("example.co.uk", "example-cdn.com")
        primary = self.index.query("example.com", "example-news.com")
        assert variant.set_primary == "example.com"
        assert variant.set_primary is primary.set_primary


class TestBufferIndexEquivalence:
    """A published epoch's index and the same buffer loaded back must
    both agree with the naive list scan, on known and randomised
    (valid) lists."""

    @staticmethod
    def round_trip(rws_list):
        from repro.psl import default_psl

        snapshot = SnapshotStore().publish(rws_list)
        epoch = Epoch.compile(snapshot, default_psl())
        loaded = Epoch.from_buffer(epoch.to_buffer(), psl=epoch.psl)
        return epoch, loaded

    def test_small_list_three_way_agreement(self):
        rws_list = small_list()
        epoch, loaded = self.round_trip(small_list())
        sites = ["example.com", "example-news.com", "example-cdn.com",
                 "example.co.uk", "other.com", "other-shop.com",
                 "missing.net", "Example.COM"]
        for a in sites:
            for b in sites:
                expected = rws_list.related(a, b)
                assert epoch.index.related(a, b) == expected, (a, b)
                assert loaded.index.related(a, b) == expected, (a, b)
        assert membership_hash(loaded.snapshot.rws_list) \
            == epoch.snapshot.content_hash

    def test_randomized_lists_three_way_agreement(self):
        for seed in range(15):
            rng = random.Random(seed)
            sites = [f"s{i}.com" for i in range(rng.randint(4, 16))]
            rng.shuffle(sites)
            sets, cursor = [], 0
            while cursor + 2 <= len(sites):
                take = min(rng.randint(2, 5), len(sites) - cursor)
                members = sites[cursor:cursor + take]
                cursor += take
                split = rng.randint(1, len(members) - 1)
                sets.append(RelatedWebsiteSet(
                    primary=members[0],
                    associated=members[1:split + 1],
                    service=members[split + 1:],
                    rationales={m: "randomised" for m in members[1:]},
                ))
            rws_list = RwsList(sets=sets, version=f"rand-{seed}")
            epoch, loaded = self.round_trip(rws_list)
            probe = sites + ["absent.example"]
            for a in probe:
                for b in probe:
                    expected = rws_list.related(a, b)
                    assert epoch.index.related(a, b) == expected
                    assert loaded.index.related(a, b) == expected
            assert membership_hash(loaded.snapshot.rws_list) \
                == epoch.snapshot.content_hash


class TestSnapshotStore:
    def test_publish_and_dedup(self):
        store = SnapshotStore()
        first = store.publish(small_list())
        again = store.publish(small_list())
        assert first.version == 1
        assert again is first  # identical content: no new version
        grown = small_list()
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."},
        ))
        second = store.publish(grown)
        assert second.version == 2
        assert store.versions() == [1, 2]
        assert second.content_hash != first.content_hash

    def test_unknown_version_is_stale(self):
        store = SnapshotStore()
        with pytest.raises(StaleSnapshotError):
            store.delta(1)
        store.publish(small_list())
        with pytest.raises(StaleSnapshotError):
            store.get(7)
        with pytest.raises(StaleSnapshotError):
            store.delta(0)

    def test_delta_application(self):
        store = SnapshotStore()
        store.publish(small_list())
        grown = small_list()
        grown.sets[0].associated.append("example-mail.com")
        grown.sets[0].rationales["example-mail.com"] = "Webmail brand."
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."},
        ))
        target = store.publish(grown)

        delta = store.delta(1)
        assert not delta.is_empty
        assert delta.diff.added_sets == ["new.com"]
        assert "example.com" in delta.diff.changed_sets
        assert (delta.from_version, delta.to_version) == (1, 2)
        assert delta.to_hash == target.content_hash

    def test_metadata_only_change_is_not_a_new_version(self):
        # Rationale/contact edits are submitter metadata, not membership:
        # they must neither mint a version nor show up as a change.
        store = SnapshotStore()
        first = store.publish(small_list())
        reworded = small_list()
        reworded.sets[0].rationales["example-news.com"] = "New wording."
        reworded.sets[0].contact = "pressdesk@example.com"
        assert store.publish(reworded) is first
        assert membership_hash(reworded) == first.content_hash
        delta = store.delta(1)
        assert delta.is_empty

    def test_empty_delta_round_trips(self):
        store = SnapshotStore()
        store.publish(small_list())
        delta = store.delta(1, 1)
        assert delta.is_empty
        assert membership_hash(small_list()) == delta.to_hash
        assert not (delta.diff.added_sets or delta.diff.removed_sets
                    or delta.diff.changed_sets)


class TestValidationQueue:
    def test_passing_submission(self):
        queue = ValidationQueue(Validator(), workers=2)
        ticket = queue.submit(small_list().sets[0])
        assert queue.drain(timeout=30)
        assert queue.poll(ticket) is SubmissionStatus.PASSED
        report = queue.report(ticket)
        assert report is not None and report.passed
        assert queue.stats.passed == 1
        queue.shutdown()

    def test_failing_submission(self):
        bad = RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com"],  # no rationale declared
        )
        queue = ValidationQueue(Validator())
        ticket = queue.submit(bad)
        assert queue.drain(timeout=30)
        assert queue.poll(ticket) is SubmissionStatus.REJECTED
        report = queue.report(ticket)
        assert report is not None and not report.passed
        assert any("rationale" in f.message.lower()
                   for f in report.findings)
        assert queue.stats.rejected == 1
        queue.shutdown()

    def test_batch_statuses_are_per_submission(self):
        queue = ValidationQueue(Validator(), workers=4)
        good = small_list().sets[0]
        bad = RelatedWebsiteSet(primary="lonely.com")  # empty set
        tickets = queue.submit_many([good, bad, good])
        assert queue.drain(timeout=30)
        statuses = [queue.poll(t) for t in tickets]
        assert statuses == [SubmissionStatus.PASSED,
                            SubmissionStatus.REJECTED,
                            SubmissionStatus.PASSED]
        assert queue.stats.completed == 3
        queue.shutdown()

    def test_unknown_ticket(self):
        queue = ValidationQueue(Validator())
        with pytest.raises(KeyError):
            queue.poll("sub-9999")

    def test_shutdown_with_pending_jobs_completes_them(self):
        # shutdown() must drain: jobs still queued when it is called
        # reach a terminal status, none are dropped, and the pool stops.
        release = threading.Event()

        class SlowValidator:
            def __init__(self):
                self._real = Validator()

            def validate(self, rws_set):
                release.wait(timeout=10)
                time.sleep(0.01)
                return self._real.validate(rws_set)

        queue = ValidationQueue(SlowValidator(), workers=2)
        tickets = queue.submit_many([small_list().sets[0]] * 6)
        # With 2 workers stalled on the event, most jobs are pending.
        assert any(not queue.poll(t).terminal for t in tickets)
        release.set()
        queue.shutdown()
        statuses = [queue.poll(t) for t in tickets]
        assert all(status.terminal for status in statuses)
        assert statuses.count(SubmissionStatus.PASSED) == 6
        assert queue.stats.completed == 6
        with pytest.raises(RuntimeError, match="shut down"):
            queue.submit(small_list().sets[0])


class TestRwsService:
    def setup_method(self):
        self.service = RwsService(workers=2)
        self.service.publish(small_list())

    def teardown_method(self):
        self.service.queue.shutdown()

    def test_query_resolves_hostnames(self):
        verdict = self.service.query("www.example.com", "example-news.com")
        assert verdict.related
        assert verdict.site_a == "example.com"

    def test_query_unknown_domain(self):
        verdict = self.service.query("stranger.org", "example.com")
        assert not verdict.related
        assert verdict.result is not None
        assert verdict.result.set_primary is None

    def test_query_unresolvable_host(self):
        verdict = self.service.query("com", "example.com")
        assert not verdict.related
        assert verdict.site_a is None
        assert self.service.stats.resolver_errors == 1

    def test_disabled_resolver_cache_still_serves(self):
        service = RwsService(psl=PublicSuffixList(cache_size=0))
        service.publish(small_list())
        assert service.query("www.example.com", "example-news.com").related
        assert service.query("www.example.com", "example-news.com").related
        assert service.stats.resolver_hits == 0  # nothing is cached
        service.queue.shutdown()

    def test_republish_identical_content_keeps_index(self):
        index_before = self.service.index
        snapshot = self.service.publish(small_list())
        assert snapshot.version == 1
        assert self.service.index is index_before  # no recompile

    def test_republish_recompiles_index(self):
        grown = small_list()
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."},
        ))
        snapshot = self.service.publish(grown)
        assert snapshot.version == 2
        assert self.service.query("new.com", "new-blog.com").related
        assert self.service.snapshot_at() is snapshot  # the served one
        assert self.service.snapshot_at(1).content_hash \
            == membership_hash(small_list())

    def test_submission_checked_against_served_list(self):
        # Overlaps with the served list must be rejected...
        overlapping = RelatedWebsiteSet(
            primary="intruder.com",
            associated=["example-news.com"],
            rationales={"example-news.com": "We want this one too."},
        )
        ticket = self.service.submit(overlapping)
        assert self.service.drain(timeout=30)
        assert self.service.poll(ticket) is SubmissionStatus.REJECTED
        report = self.service.queue.report(ticket)
        assert report is not None
        assert any("already belongs" in f.message for f in report.findings)
        # ...while disjoint submissions pass.
        fresh = RelatedWebsiteSet(
            primary="fresh.com",
            associated=["fresh-shop.com"],
            rationales={"fresh-shop.com": "Same operator."},
        )
        ticket = self.service.submit(fresh)
        assert self.service.drain(timeout=30)
        assert self.service.poll(ticket) is SubmissionStatus.PASSED

    def test_concurrent_queries_publishes_and_submissions(self):
        # The publication swap and the stats counters are shared with
        # query threads and validation workers; under a rapid switch
        # interval every counted event must still land exactly once.
        import sys

        grown = small_list()
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."},
        ))
        per_thread, threads_n = 250, 4
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def query_loop():
                for _ in range(per_thread):
                    self.service.query("www.example.com", "example-news.com")

            def publish_loop():
                for i in range(40):
                    self.service.publish(grown if i % 2 else small_list())

            threads = [threading.Thread(target=query_loop)
                       for _ in range(threads_n)]
            threads.append(threading.Thread(target=publish_loop))
            for _ in range(8):
                self.service.submit(small_list().sets[0])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert self.service.drain(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        report = self.service.stats_report()
        assert report["serve.queries"] == per_thread * threads_n
        assert report["serve.related_hits"] == per_thread * threads_n
        assert report["serve.publishes"] == 40 + 1  # setup publish included
        assert report["queue.passed"] == 8

    def test_stats_report_counters(self):
        self.service.query_batch([
            ("example.com", "example-news.com"),
            ("example.com", "example-news.com"),
            ("other.com", "example.com"),
        ])
        report = self.service.stats_report()
        assert report["serve.queries"] == 3
        assert report["serve.related_hits"] == 2
        assert report["serve.resolver_hits"] > 0  # repeated hosts hit the LRU
        assert report["serve.index_sets"] == 2
        assert (report["serve.snapshot_version"] == 2
                or report["serve.snapshot_version"] == 1)
        assert report["serve.query_ns"] > 0


class TestEpoch:
    """The tentpole invariants: immutable epochs, atomic swaps."""

    def test_epoch_value_is_immutable(self):
        service = RwsService()
        try:
            service.publish(small_list())
            epoch = service.epoch
            with pytest.raises(AttributeError):
                epoch.snapshot = None
            with pytest.raises(AttributeError):
                epoch.index = MembershipIndex.from_list(RwsList())
        finally:
            service.queue.shutdown()

    def test_bootstrap_epoch_before_any_publish(self):
        service = RwsService()
        try:
            epoch = service.epoch
            assert epoch.version == 0
            assert epoch.snapshot is None
            assert epoch.content_hash == ""
            assert len(epoch.rws_list.sets) == 0
            assert not service.query("a.com", "b.com").related
        finally:
            service.queue.shutdown()

    def test_publish_swaps_the_whole_epoch(self):
        service = RwsService()
        try:
            service.publish(small_list())
            before = service.epoch
            grown = small_list()
            grown.sets.append(RelatedWebsiteSet(
                primary="new.com", associated=["new-blog.com"],
                rationales={"new-blog.com": "Same publisher."},
            ))
            service.publish(grown)
            after = service.epoch
            assert after is not before
            assert (before.version, after.version) == (1, 2)
            # The superseded epoch still serves its own consistent view.
            assert not before.index.related("new.com", "new-blog.com")
            assert after.index.related("new.com", "new-blog.com")
            assert before.snapshot is not after.snapshot
        finally:
            service.queue.shutdown()

    def test_reader_sees_consistent_triples_under_publish_storm(self):
        # A captured epoch must always be an internally consistent
        # (index, snapshot, version) triple, even while publishes swap
        # the service's reference as fast as they can.
        import sys

        base = small_list()
        grown = small_list()
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."},
        ))
        # Alternating publishes mint a fresh version every time (the
        # store only dedups against the latest), so consistency is
        # keyed by content: a captured epoch's index must always match
        # its snapshot's membership hash.
        expected_sites = {
            membership_hash(rws_list): len({r.site for r
                                            in rws_list.all_members()})
            for rws_list in (base, grown)
        }

        service = RwsService()
        service.publish(base)
        failures: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                epoch = service.epoch  # one capture
                snapshot = epoch.snapshot
                if snapshot is None:
                    failures.append("snapshotless epoch after publish")
                    continue
                if snapshot.version != epoch.version:
                    failures.append("version drifted from snapshot")
                if epoch.content_hash != snapshot.content_hash:
                    failures.append("hash drifted from snapshot")
                expected = expected_sites.get(snapshot.content_hash)
                if expected is None:
                    failures.append("epoch serves an unpublished list")
                elif epoch.index.site_count != expected:
                    failures.append(
                        f"index of v{epoch.version} has "
                        f"{epoch.index.site_count} sites, "
                        f"expected {expected}")

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(3)]
            for thread in readers:
                thread.start()
            for i in range(200):
                service.publish(grown if i % 2 else base)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
            service.queue.shutdown()
        assert failures == []

    def test_query_hot_path_takes_no_service_lock(self):
        # The acceptance gate: after the epoch capture, queries must
        # never touch the publication lock — publishes can then never
        # stall readers.  The service lock is replaced with a tattling
        # proxy; only the publisher thread may show up in its log.
        import sys

        service = RwsService()
        service.publish(small_list())
        grown = small_list()
        grown.sets.append(RelatedWebsiteSet(
            primary="new.com", associated=["new-blog.com"],
            rationales={"new-blog.com": "Same publisher."},
        ))

        acquirers: set[int] = set()
        real_lock = service._lock

        class TattlingLock:
            def __enter__(self):
                acquirers.add(threading.get_ident())
                return real_lock.__enter__()

            def __exit__(self, *exc):
                return real_lock.__exit__(*exc)

            def acquire(self, *args, **kwargs):
                acquirers.add(threading.get_ident())
                return real_lock.acquire(*args, **kwargs)

            def release(self):
                return real_lock.release()

        service._lock = TattlingLock()
        pairs = [("www.example.com", "example-news.com"),
                 ("other.com", "example.com")] * 8
        sites = [("example.com", "example-news.com"), ("a.com", "b.com")] * 8

        def query_loop():
            for _ in range(150):
                service.query("www.example.com", "example-news.com")
                service.related_batch(pairs)
                service.query_batch(sites, resolved=True)
                service.resolve_host("www.example.com")

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=query_loop)
                       for _ in range(4)]
            publisher = threading.Thread(
                target=lambda: [service.publish(grown if i % 2 else
                                                small_list())
                                for i in range(50)])
            for thread in threads + [publisher]:
                thread.start()
            for thread in threads + [publisher]:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
            service._lock = real_lock
            service.queue.shutdown()
        # Exactly one thread — the publisher — ever took the service
        # lock; every query/batch/resolve ran lock-free.
        assert acquirers == {publisher.ident}
        folded = service.stats
        assert folded.queries == 4 * 150 * (1 + len(pairs) + len(sites))

    def test_stats_fold_is_exact_after_threads_finish(self):
        service = RwsService()
        service.publish(small_list())
        per_thread, threads_n = 300, 4

        def loop():
            for _ in range(per_thread):
                service.query("www.example.com", "example-news.com")

        try:
            threads = [threading.Thread(target=loop)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            service.queue.shutdown()
        folded = service.stats
        assert folded.queries == per_thread * threads_n
        assert folded.related_hits == per_thread * threads_n
        report = service.stats_report()
        assert report["serve.queries"] == per_thread * threads_n
        assert report["serve.epoch"] == 1.0

    def test_epoch_compile_and_bootstrap_helpers(self):
        store = SnapshotStore()
        snapshot = store.publish(small_list())
        from repro.psl import default_psl

        epoch = Epoch.compile(snapshot, default_psl())
        assert epoch.version == 1
        assert epoch.index.related("example.com", "example-news.com")
        boot = Epoch.bootstrap(default_psl())
        assert boot.version == 0 and boot.snapshot is None


class TestBrowserUsesIndex:
    def test_engine_grants_via_compiled_index(self):
        browser = Browser(policy=BROWSER_POLICIES["chrome-rws"],
                          rws_list=small_list())
        browser.visit("example.com")
        page = browser.visit("example.com")
        frame = page.embed("example-news.com")
        decision = browser.request_storage_access(frame)
        assert decision is GrantDecision.GRANTED_RWS
        assert browser.rws_index.related("example.com", "example-news.com")

    def test_engine_adopts_epoch_handles(self):
        service = RwsService()
        try:
            service.publish(small_list())
            browser = Browser(policy=BROWSER_POLICIES["chrome-rws"],
                              rws_list=RwsList())
            browser.adopt_epoch(service.epoch)
            assert browser.rws_index is service.epoch.index
            assert browser.rws_index.related("example.com",
                                             "example-news.com")
        finally:
            service.queue.shutdown()

    def test_refresh_after_list_update(self):
        browser = Browser(policy=BROWSER_POLICIES["chrome-rws"],
                          rws_list=small_list())
        assert not browser.rws_index.related("example.com", "late.com")
        browser.rws_list.sets[0].associated.append("late.com")
        # The compiled index is a snapshot; refresh picks up the change.
        assert not browser.rws_index.related("example.com", "late.com")
        browser.refresh_rws_index()
        assert browser.rws_index.related("example.com", "late.com")