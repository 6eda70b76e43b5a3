"""Tests for the replicated serving layer (repro.cluster)."""

import random

import pytest

from repro.api import Dispatcher, decode_response, encode_response
from repro.api.envelopes import (
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorCode,
    ErrorResponse,
    PollRequest,
    PublishRequest,
    QueryRequest,
    QueryResponse,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
    SubmitRequest,
)
from repro.chaos import ChaosRouter, FaultPlan
from repro.cluster import Replica, ReplicationGapError, Router
from repro.data import build_synthetic_list
from repro.psl import PublicSuffixList
from repro.rws import MemberRecord, RelatedWebsiteSet, RwsList
from repro.serve.epoch import Epoch
from repro.serve.epochfmt import OverlappingSetsError
from repro.serve import (
    ListSnapshot,
    MembershipIndex,
    RwsService,
    SnapshotStore,
    StaleSnapshotError,
    membership_hash,
)


def small_list() -> RwsList:
    return RwsList(sets=[
        RelatedWebsiteSet(
            primary="example.com",
            associated=["example-news.com"],
            service=["example-cdn.com"],
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


def grown_list() -> RwsList:
    rws_list = small_list()
    rws_list.sets[0].associated.append("example-mail.com")
    rws_list.sets[0].rationales["example-mail.com"] = "Webmail brand."
    rws_list.sets.append(RelatedWebsiteSet(
        primary="new.com", associated=["new-blog.com"],
        rationales={"new-blog.com": "Same publisher."},
    ))
    return rws_list


def shrunk_list() -> RwsList:
    rws_list = grown_list()
    del rws_list.sets[1]  # other.com's set is withdrawn
    return rws_list


@pytest.fixture()
def primary():
    service = RwsService(workers=2)
    service.publish(small_list())
    yield service
    service.queue.shutdown()


class TestReplica:
    def test_boots_from_current_epoch(self, primary):
        replica = Replica(0, primary)
        assert replica.version == 1
        assert replica.epoch is primary.epoch
        assert replica.query("example.com", "example-news.com").related

    def test_catches_up_by_delta(self, primary):
        router = Router(primary, replicas=1)
        replica = router.replicas[0]
        router.publish(grown_list())
        assert replica.version == 2
        assert replica.epoch is not primary.epoch  # its own view
        assert replica.epoch.content_hash == primary.epoch.content_hash
        assert replica.query("new.com", "new-blog.com").related

    def test_lag_delays_catch_up(self, primary):
        router = Router(primary, replicas=1, lag=3)
        replica = router.replicas[0]
        router.publish(grown_list())
        assert replica.version == 1  # broadcast pending, not applied
        assert replica.lagging
        assert not replica.query("new.com", "new-blog.com").related
        router.advance(2)
        assert replica.version == 1  # still inside the lag window
        router.advance(3)
        assert replica.version == 2
        assert not replica.lagging
        assert replica.query("new.com", "new-blog.com").related

    def test_lagging_replica_squashes_the_hop_chain(self, primary):
        router = Router(primary, replicas=1, lag=5)
        replica = router.replicas[0]
        router.publish(grown_list())
        router.advance(1)
        router.publish(shrunk_list())
        assert replica.version == 1
        assert replica.pending_updates == 2
        router.converge()
        # Two broadcast hops, one application.
        assert replica.version == 3
        assert replica.catch_ups == 1
        assert replica.hops_applied == 2
        assert replica.epoch.content_hash == primary.epoch.content_hash
        assert not replica.query("other.com", "other-shop.com").related

    def test_sync_does_not_ratchet_the_clock(self, primary):
        # Draining via converge() must not advance the logical clock:
        # a synced replica still owes its full lag on the next publish.
        router = Router(primary, replicas=1, lag=3)
        replica = router.replicas[0]
        router.publish(grown_list())
        router.converge()
        assert replica.version == 2
        router.publish(shrunk_list())
        assert replica.version == 2  # still lagging, not instant
        assert replica.lagging
        router.advance(3)
        assert replica.version == 3

    def test_repeat_unresolvable_hosts_count_every_occurrence(self):
        # The PSL never caches failures and nothing sits in front of
        # it, so every occurrence of a junk host is validated again
        # and counted again, one error each.
        psl = PublicSuffixList()
        service = RwsService(psl=psl)
        service.publish(small_list())
        try:
            size_before = psl.cache_stats()["size"]
            assert service.resolve_host("bad..host") is None
            assert service.resolve_host("bad..host") is None
            assert service.related_batch([("bad..host", "bad..host")]) \
                == [False]
            query = service.query("bad..host", "example.com")
            assert query.site_a is None and not query.related
            assert service.query_batch([("bad..host", "example.com")]) \
                == [query]
            psl_stats = psl.cache_stats()
            assert psl_stats["errors"] == 6
            assert psl_stats["size"] == size_before + 1  # example.com
            stats = service.stats
            assert stats.resolver_errors == 6
            assert stats.resolver_misses == 7  # 6 junk + example.com
            assert stats.resolver_hits == 1  # example.com, second time
        finally:
            service.queue.shutdown()

    def test_deduplicated_republish_broadcasts_nothing(self, primary):
        router = Router(primary, replicas=2, lag=4)
        router.publish(small_list())  # identical content
        assert all(not replica.lagging for replica in router.replicas)
        assert router.replica_versions() == [1, 1]

    def test_epoch_swap_is_atomic_for_readers(self, primary):
        router = Router(primary, replicas=1, lag=1)
        replica = router.replicas[0]
        captured = replica.epoch
        router.publish(grown_list())
        router.converge()
        # The captured epoch still serves its original, consistent view.
        assert captured.version == 1
        assert not captured.index.related("new.com", "new-blog.com")
        assert replica.epoch.version == 2


class TestSquashDeltas:
    """The store's delta across several versions is their net change:
    ``store.delta(1, 3)`` diffs v1 against v3, whatever v2 did."""

    @staticmethod
    def _store_with(*lists) -> SnapshotStore:
        store = SnapshotStore()
        for rws_list in lists:
            store.publish(rws_list)
        return store

    def test_add_then_remove_cancels(self):
        # v2 adds a set, v3 removes it again: the direct delta is a
        # no-op on that set.
        store = self._store_with(small_list(), grown_list())
        v3 = small_list()
        v3.sets[0].associated.append("example-mail.com")
        v3.sets[0].rationales["example-mail.com"] = "Webmail brand."
        del v3.sets[2:]  # drop new.com again
        store.publish(v3)
        squashed = store.delta(1, 3)
        assert "new.com" not in squashed.diff.added_sets
        assert "new.com" not in squashed.diff.removed_sets
        assert not any(r.set_primary == "new.com"
                       for r in squashed.diff.added_members)

    def test_remove_then_readd_is_a_change_not_a_removal(self):
        # other.com is withdrawn in v2 and resubmitted (grown) in v3:
        # from v1's point of view the set never left.
        v2 = small_list()
        del v2.sets[1]
        v3 = small_list()
        v3.sets[1].associated.append("other-blog.com")
        v3.sets[1].rationales["other-blog.com"] = "Same shop."
        store = self._store_with(small_list(), v2, v3)
        squashed = store.delta(1, 3)
        assert "other.com" not in squashed.diff.removed_sets
        assert "other.com" not in squashed.diff.added_sets
        assert "other.com" in squashed.diff.changed_sets


class TestLossTolerantCatchUp:
    """Replica.receive() hardened against a lossy transport."""

    def test_version_gap_raises_structured_error(self, primary):
        primary.publish(grown_list())   # v2
        replica = Replica(7, primary)   # boots at v2
        primary.publish(shrunk_list())  # v3
        more = shrunk_list()
        more.sets.append(RelatedWebsiteSet(
            primary="late.com", associated=["late-blog.com"],
            rationales={"late-blog.com": "Same publisher."},
        ))
        primary.publish(more)           # v4
        # Hop 2→3 is lost; only 3→4 arrives.  Applying it would
        # misrepresent membership, so catch-up must refuse loudly.
        replica.receive(primary.store.get(4), base_version=3,
                        published_clock=0)
        with pytest.raises(ReplicationGapError) as excinfo:
            replica.sync()
        error = excinfo.value
        assert error.replica_id == 7
        assert error.have_version == 2
        assert error.need_version == 3
        assert isinstance(error, StaleSnapshotError)
        assert replica.version == 2  # nothing was misapplied
        # The documented recovery: a full-snapshot resync.
        assert replica.resync()
        assert replica.version == 4
        assert replica.resyncs == 1
        assert replica.epoch.content_hash == primary.epoch.content_hash

    def test_duplicate_and_stale_hops_are_skipped(self, primary):
        replica = Replica(0, primary)
        primary.publish(grown_list())
        hop = primary.store.get(2)
        for _ in range(3):  # the transport redelivers the same hop
            replica.receive(hop, base_version=1, published_clock=0)
        assert replica.sync()
        assert replica.version == 2
        assert replica.duplicates_ignored == 2
        # A stale redelivery after convergence is also ignored.
        replica.receive(hop, base_version=1, published_clock=0)
        assert not replica.sync()
        assert replica.version == 2
        assert replica.duplicates_ignored == 3

    def test_shuffled_duplicated_chains_match_squash_and_direct(self,
                                                                primary):
        # Property: however a complete hop chain arrives — shuffled,
        # with duplicates — the converged epoch must be byte-identical
        # to one hop straight from the base version, and to adopting
        # the snapshot outright.
        rng = random.Random(13)
        lists = [grown_list(), shrunk_list()]
        for n in range(3):
            nxt = shrunk_list()
            nxt.sets.append(RelatedWebsiteSet(
                primary=f"wave-{n}.com",
                associated=[f"wave-{n}-blog.com"],
                rationales={f"wave-{n}-blog.com": "Random growth."},
            ))
            lists.append(nxt)
        for rws_list in lists:
            primary.publish(rws_list)
        last = primary.store.latest.version
        target_hash = primary.store.get(last).content_hash
        hops = [(v, primary.store.get(v + 1)) for v in range(1, last)]
        for trial in range(8):
            chain = list(hops)
            chain.extend(rng.choice(hops)
                         for _ in range(rng.randrange(1, 4)))
            rng.shuffle(chain)
            shuffled = Replica(trial, primary)
            shuffled._epoch = Epoch.compile(primary.store.get(1),
                                            primary.psl)
            for base_version, snapshot in chain:
                shuffled.receive(snapshot, base_version=base_version,
                                 published_clock=0)
            assert shuffled.sync()
            assert shuffled.version == last
            assert shuffled.epoch.content_hash == target_hash
        direct = Replica(100, primary)
        direct._epoch = Epoch.compile(primary.store.get(1), primary.psl)
        direct.receive(primary.store.get(last), base_version=1,
                       published_clock=0)
        direct.sync()
        assert direct.epoch.content_hash == target_hash
        adopted = Replica(101, primary)
        adopted.adopt(primary.store.get(last))
        assert adopted.epoch.content_hash == target_hash


class TestDegradedMembership:
    """Routing, batching, and stats while the replica set shrinks."""

    @staticmethod
    def _chaos_router(primary, *, replicas, leaves, policy="rendezvous"):
        from repro.chaos import ChaosRouter, FaultPlan

        plan = FaultPlan(name="degraded", leaves=leaves)
        return ChaosRouter(primary, replicas=replicas, plan=plan,
                           policy=policy)

    def test_rendezvous_rehomes_keys_after_a_leave(self, primary):
        pairs = [(f"site-{i}.com", "example.com") for i in range(24)]
        router = self._chaos_router(primary, replicas=3,
                                    leaves=((1, 10, -1),))
        before = Router(primary, replicas=3, policy="rendezvous")
        before.related_batch(pairs)
        loser = before.replicas[1].stats.queries
        assert loser > 0  # replica 1 owned some keys pre-leave
        router.advance(10)
        reference = primary.related_batch(pairs)
        assert router.related_batch(pairs) == reference
        counts = [replica.stats.queries for replica in router.replicas]
        assert counts[1] == 0  # never routed to the offline node
        assert counts[0] > 0 and counts[2] > 0
        # Orphaned keys rehome by content: same split on every ask.
        router.related_batch(pairs)
        assert [r.stats.queries for r in router.replicas] == [
            2 * counts[0], 0, 2 * counts[2]]

    def test_batches_reassemble_with_one_replica_left(self, primary):
        pairs = [("example.com", "example-news.com"),
                 ("other.com", "example.com"),
                 ("other-shop.com", "other.com"),
                 ("stranger.org", "example.com"),
                 ("example-cdn.com", "example.com")] * 4
        router = self._chaos_router(primary, replicas=3,
                                    leaves=((1, 1, -1), (2, 1, -1)))
        router.advance(1)
        assert [r.replica_id for r in router._read_replicas()] == [0]
        expected = primary.related_batch(pairs)
        assert router.related_batch(pairs) == expected
        assert [v.related for v in router.query_batch(pairs)] == expected
        assert router.replicas[0].stats.queries == len(pairs) * 2
        assert router.replicas[1].stats.queries == 0
        assert router.replicas[2].stats.queries == 0

    def test_stats_report_spans_membership_changes(self, primary):
        router = self._chaos_router(primary, replicas=3,
                                    leaves=((2, 8, -1),))
        for _ in range(6):
            router.query("example.com", "example-news.com")
        full = router.stats_report()
        assert full["cluster.replicas"] == 3
        assert full["cluster.active_replicas"] == 3
        served_before = full["serve.queries"]
        router.advance(8)  # replica 2 leaves mid-capture-interval
        for _ in range(4):
            router.query("other.com", "other-shop.com")
        router.advance(16)  # availability integrates the degraded span
        degraded = router.stats_report()
        # The offline replica's served counters never vanish from the
        # merged report, and the active gauge reports the shrunk set.
        assert degraded["cluster.replicas"] == 3
        assert degraded["cluster.active_replicas"] == 2
        assert degraded["serve.queries"] == served_before + 4
        assert degraded["chaos.leaves"] == 1
        assert 0 < degraded["cluster.availability"] < 1


class TestRouter:
    def test_round_robin_spreads_queries(self, primary):
        router = Router(primary, replicas=3, policy="round-robin")
        for _ in range(12):
            router.query("example.com", "example-news.com")
        counts = [replica.stats.queries for replica in router.replicas]
        assert counts == [4, 4, 4]

    def test_routing_and_serving_share_one_cache_entry_per_host(self):
        # The routing key and the replica's own lookup must probe the
        # PSL with the same spelling of the host, or every mixed-case
        # host costs an extra miss and an extra cache entry.
        psl = PublicSuffixList()
        service = RwsService(psl=psl)
        service.publish(small_list())
        router = Router(service, replicas=2, policy="rendezvous")
        try:
            for _ in range(2):
                assert router.query("WWW.Example.com",
                                    "example-news.com").related
            stats = psl.cache_stats()
            assert stats["misses"] == 2
            assert stats["size"] == 2
        finally:
            service.queue.shutdown()

    def test_rendezvous_pins_a_key_to_one_replica(self, primary):
        router = Router(primary, replicas=3, policy="rendezvous")
        for _ in range(9):
            router.query("example.com", "example-news.com")
        counts = [replica.stats.queries for replica in router.replicas]
        assert sorted(counts) == [0, 0, 9]

    def test_rendezvous_batches_split_but_answers_stay_ordered(self,
                                                               primary):
        pairs = [("example.com", "example-news.com"),
                 ("other.com", "example.com"),
                 ("other-shop.com", "other.com"),
                 ("stranger.org", "example.com"),
                 ("example-cdn.com", "example.com")] * 3
        router = Router(primary, replicas=3, policy="rendezvous")
        reference = RwsService()
        reference.publish(small_list())
        try:
            expected = reference.related_batch(pairs)
            assert router.related_batch(pairs) == expected
            assert ([v.related for v in router.query_batch(pairs)]
                    == expected)
            # More than one replica actually served the split batch.
            served = [r for r in router.replicas if r.stats.queries]
            assert len(served) > 1
        finally:
            reference.queue.shutdown()

    def test_rendezvous_routing_is_batching_invariant(self, primary):
        # The same pair must land on the same replica whether it
        # arrives alone or inside any batch — the property stale
        # digests rest on.
        pairs = [(f"site-{i}.com", "example.com") for i in range(20)]
        router = Router(primary, replicas=3, policy="rendezvous")
        router.related_batch(pairs)
        whole = [replica.stats.queries for replica in router.replicas]
        router2 = Router(primary, replicas=3, policy="rendezvous")
        for pair in pairs:
            router2.related_batch([pair])
        split = [replica.stats.queries for replica in router2.replicas]
        assert whole == split

    def test_writes_pin_to_primary(self, primary):
        router = Router(primary, replicas=2)
        snapshot = router.publish(grown_list())
        assert primary.current_snapshot is snapshot
        assert router.snapshot_at() is snapshot
        assert router.snapshot_at(1) is primary.store.get(1)
        ticket = router.submit(small_list().sets[0])
        assert router.drain(timeout=30)
        assert router.poll(ticket).terminal
        assert router.queue is primary.queue

    def test_invalid_configuration_rejected(self, primary):
        with pytest.raises(ValueError, match="replicas"):
            Router(primary, replicas=0)
        with pytest.raises(ValueError, match="policy"):
            Router(primary, replicas=2, policy="coin-flip")
        with pytest.raises(ValueError, match="lag values"):
            Router(primary, replicas=2, lag=[1, 2, 3])

    def test_cluster_stats_report_merges_all_nodes(self, primary):
        router = Router(primary, replicas=2, policy="round-robin")
        router.query("example.com", "example-news.com")
        router.query("other.com", "other-shop.com")
        primary.query("example.com", "other.com")
        report = router.stats_report()
        assert report["serve.queries"] == 3
        assert report["cluster.replicas"] == 2
        assert report["serve.epoch"] == 1
        assert report["cluster.replica_epoch_min"] == 1
        assert report["cluster.replica_epoch_max"] == 1
        assert report["queue.submitted"] == 0


class TestDispatcherOverRouter:
    """The Dispatcher accepts a Router anywhere it took an RwsService."""

    @pytest.fixture()
    def router(self, primary):
        return Router(primary, replicas=3, lag=2, policy="rendezvous")

    @pytest.fixture()
    def dispatcher(self, router):
        return Dispatcher(router)

    def test_query_routes_through_replicas(self, router, dispatcher):
        response = dispatcher.dispatch(
            QueryRequest("www.example.com", "example-news.com"))
        assert type(response) is QueryResponse
        assert response.verdict.related
        assert sum(r.stats.queries for r in router.replicas) == 1

    def test_publish_then_stale_then_converged_reads(self, router,
                                                     dispatcher):
        publish = dispatcher.dispatch(PublishRequest(rws_list=grown_list()))
        assert publish.version == 2
        stale = dispatcher.dispatch(BatchQueryRequest(
            pairs=[("new.com", "new-blog.com")] * 3, detail=False))
        assert type(stale) is BatchQueryResponse
        assert stale.related == [False, False, False]  # replicas lag
        router.converge()
        fresh = dispatcher.dispatch(BatchQueryRequest(
            pairs=[("new.com", "new-blog.com")] * 3, detail=False))
        assert fresh.related == [True, True, True]

    def test_delta_submit_poll_and_stats_envelopes(self, router,
                                                   dispatcher):
        dispatcher.dispatch(PublishRequest(rws_list=grown_list()))
        served = dispatcher.dispatch(SnapshotRequest())
        assert type(served) is SnapshotResponse
        assert served.version == 2  # the primary's, not a lagging replica's
        assert served.content_hash == membership_hash(grown_list())
        ticket = dispatcher.dispatch(SubmitRequest(
            rws_set=RelatedWebsiteSet(
                primary="fresh.com", associated=["fresh-shop.com"],
                rationales={"fresh-shop.com": "Same operator."},
            ))).ticket
        router.drain(timeout=30)
        poll = dispatcher.dispatch(PollRequest(ticket=ticket))
        assert poll.terminal and poll.passed
        stats = dispatcher.dispatch(StatsRequest())
        assert stats.report["cluster.replicas"] == 3
        assert stats.report["serve.epoch"] == 2
        assert stats.report["cluster.replica_epoch_min"] == 1  # still lagging


class TestPublishPath:
    """What one router publish costs and keeps consistent."""

    @pytest.fixture()
    def service(self):
        service = RwsService(workers=1)
        yield service
        service.queue.shutdown()

    @staticmethod
    def one_set(associated: list[str]) -> RwsList:
        return RwsList(sets=[RelatedWebsiteSet(primary="example.com",
                                               associated=associated)])

    @staticmethod
    def list_and_successor() -> tuple[RwsList, RwsList]:
        """A 600-domain list and its v2: first set out, one set in."""
        rws_list = build_synthetic_list(600, seed=5)
        successor = RwsList(sets=rws_list.sets[1:] + [RelatedWebsiteSet(
            primary="added.com", associated=["added-news.com",
                                             "added-shop.com"],
            service=["added-cdn.net"])], version=rws_list.version + "-v2")
        return rws_list, successor

    @staticmethod
    def count_walks(monkeypatch) -> dict[str, int]:
        """Count calls through the snapshot module's hash and diff."""
        from repro.serve import snapshot as module

        calls = {"membership_hash": 0, "diff_lists": 0}
        for name in calls:
            def counting(*args, _name=name, _walk=getattr(module, name)):
                calls[_name] += 1
                return _walk(*args)
            monkeypatch.setattr(module, name, counting)
        return calls

    def test_router_publish_hashes_once_and_diffs_nothing(
            self, service, monkeypatch):
        # Count-based, no timing: the primary's store hashes the new
        # list, and every replica takes the stored snapshot as it is.
        rws_list, successor = self.list_and_successor()
        router = Router(service, replicas=3, lag=0, policy="rendezvous")
        router.publish(rws_list)
        calls = self.count_walks(monkeypatch)
        router.publish(successor)
        assert router.replica_versions() == [2, 2, 2]
        assert calls == {"membership_hash": 1, "diff_lists": 0}

    def test_lagging_catch_up_hashes_nothing(self, service, monkeypatch):
        rws_list, successor = self.list_and_successor()
        router = Router(service, replicas=3, lag=2, policy="rendezvous")
        router.publish(rws_list)
        router.advance(2)
        router.publish(successor, published_clock=2)
        assert router.replica_versions() == [1, 1, 1]
        calls = self.count_walks(monkeypatch)
        router.advance(4)
        assert router.replica_versions() == [2, 2, 2]
        assert calls == {"membership_hash": 0, "diff_lists": 0}

    @pytest.mark.parametrize("first, second", [
        (["a.com", "a.com"], ["a.com"]),
        (["a.com"], ["a.com", "a.com"]),
    ])
    def test_republish_that_only_repeats_a_fact_is_deduplicated(
            self, service, first, second):
        # A repeated (set, role, site) fact is one fact: the hash must
        # agree with the diff, which sees no change, or the store mints
        # a version whose membership equals the one it follows.
        router = Router(service, replicas=2, lag=0)
        router.publish(self.one_set(first))
        snapshot = router.publish(self.one_set(second))
        assert snapshot.version == 1
        assert service.store.versions() == [1]
        assert router.converged
        assert router.replica_versions() == [1, 1]
        for replica in router.replicas:
            assert replica.epoch.content_hash == service.epoch.content_hash

    def test_router_publish_builds_records_only_for_its_delta(
            self, service, monkeypatch):
        # Count-based, no timing: the hash and encoder read row tuples
        # and no broadcast carries a delta, so a publish builds no
        # records; the store's diff of the same hop builds its own.
        rws_list, successor = self.list_and_successor()
        router = Router(service, replicas=3, lag=0)
        router.publish(rws_list)
        built = []
        original = MemberRecord.__init__

        def counting_init(record, *args, **kwargs):
            built.append(record)
            original(record, *args, **kwargs)

        monkeypatch.setattr(MemberRecord, "__init__", counting_init)
        snapshot = router.publish(successor)
        published = len(built)
        diff = router.primary.store.delta(1, 2).diff
        monkeypatch.undo()
        assert snapshot.version == 2
        assert router.replica_versions() == [2, 2, 2]
        delta_records = len(diff.added_members) + len(diff.removed_members)
        assert diff.removed_sets == [rws_list.sets[0].primary]
        assert diff.added_sets == ["added.com"]
        assert published == 0
        assert 0 < len(built) <= delta_records

    # A copy rebuilt from a diff appends a re-added set at the end,
    # and the order-blind membership hash cannot tell it from the
    # primary's list; a copy taken whole keeps the primary's order.
    SET_A = RelatedWebsiteSet(primary="a.com", associated=["x.com"])
    SET_B = RelatedWebsiteSet(primary="b.com", associated=["y.com"])
    RE_ADDED = ([SET_A, SET_B], [SET_B], [SET_A, SET_B])

    @pytest.mark.parametrize("lag", [0, [0, 2]], ids=["lag-0", "lag-0-2"])
    def test_replicas_answer_as_the_primary_after_a_set_is_re_added(
            self, service, lag):
        router = Router(service, replicas=2, lag=lag)
        for step, sets in enumerate(self.RE_ADDED, 1):
            router.publish(RwsList(sets=sets))
            router.advance(3 * step)
        assert service.query("a.com", "x.com").related
        for replica in router.replicas:
            assert replica.version == 3
            assert replica.epoch.rws_list.primaries() == ["a.com", "b.com"]
            assert replica.query("a.com", "x.com").related
            assert not replica.query("b.com", "x.com").related
            # The primary's own buffer, in an epoch of the replica's.
            assert replica.epoch is not service.epoch
            assert replica.epoch.buffer is service.epoch.buffer

    @pytest.mark.parametrize("replicas", [0, 2], ids=["service", "router"])
    def test_a_client_answers_as_the_primary_after_a_set_is_re_added(
            self, service, replicas):
        # A client at v2 ([B]) fetches v3 whole, over the wire form.
        backend = Router(service, replicas=replicas) if replicas else service
        for sets in self.RE_ADDED:
            backend.publish(RwsList(sets=sets))
        response = Dispatcher(backend).dispatch(SnapshotRequest(3))
        fetched, _version = decode_response(encode_response(response))
        assert type(fetched) is SnapshotResponse
        assert fetched.version == 3
        assert fetched.rws_list.primaries() == ["a.com", "b.com"]
        assert membership_hash(fetched.rws_list) == fetched.content_hash
        epoch = Epoch.compile(ListSnapshot(fetched.version,
                                           fetched.content_hash,
                                           fetched.rws_list), service.psl)
        assert service.query("a.com", "x.com").related
        assert epoch.index.related("a.com", "x.com")
        assert not epoch.index.related("b.com", "x.com")

    def test_a_lagging_replica_serves_the_primary_s_stored_version(
            self, service):
        # The replica reaches v2 ([B]), then applies v2 -> v3 alone
        # while the primary serves v4, so it encodes the primary's
        # stored v3 ([A, B]), not a patched copy [B, A].
        router = Router(service, replicas=1, lag=4)
        replica = router.replicas[0]
        for clock, sets in enumerate(self.RE_ADDED[:2]):
            router.publish(RwsList(sets=sets), published_clock=clock)
        router.advance(5)
        assert replica.version == 2
        router.publish(RwsList(sets=self.RE_ADDED[2]), published_clock=6)
        router.publish(RwsList(sets=[*self.RE_ADDED[2], RelatedWebsiteSet(
            primary="c.com", associated=["c-news.com"])]),
            published_clock=10)
        assert (service.epoch.version, replica.version) == (4, 3)
        assert replica.epoch.rws_list.primaries() == ["a.com", "b.com"]
        assert replica.query("a.com", "x.com").related
        assert not replica.query("b.com", "x.com").related
        assert replica.epoch.snapshot is service.store.get(3)
        router.advance(14)
        assert replica.version == 4
        assert replica.query("a.com", "x.com").related
        assert replica.epoch.buffer is service.epoch.buffer


def overlapping_list() -> RwsList:
    """:func:`small_list` plus a set that claims other-shop.com again."""
    rws_list = small_list()
    rws_list.sets.append(RelatedWebsiteSet(primary="rival.com",
                                           associated=["other-shop.com"]))
    return rws_list


#: Every publish path that keeps a store, each serving small_list().
CANARY = FaultPlan(name="t", seed=41, canary_fraction=0.5,
                   canary_probe_pairs=64, canary_max_divergence=0.5)
PUBLISH_PATHS = {
    "service": lambda service: service,
    "router": lambda service: Router(service, replicas=2, lag=[0, 2]),
    "chaos": lambda service: ChaosRouter(service, 3,
                                         plan=FaultPlan(name="t")),
    "chaos-canary": lambda service: ChaosRouter(service, 4, plan=CANARY),
    "chaos-primary-down": lambda service: ChaosRouter(
        service, 3, plan=FaultPlan(name="t", primary_failure=(1, -1))),
}


class TestRefusedPublish:
    """A list that puts a site in two sets is refused on every publish
    path, and the refusal changes nothing served or stored."""

    @pytest.fixture()
    def service(self):
        service = RwsService(psl=PublicSuffixList(), workers=1)
        yield service
        service.queue.shutdown()

    @staticmethod
    def serving(name: str, service: RwsService):
        backend = PUBLISH_PATHS[name](service)
        backend.publish(small_list())
        if backend is not service:
            backend.advance(1)  # past the planned primary failure
        return backend

    @staticmethod
    def state(backend, service: RwsService) -> tuple:
        """What a refusal must leave as it was: the stored versions,
        the served epoch, each replica's epoch and every metric."""
        registry = backend.stats_registry()
        return (service.store.versions(), backend.epoch,
                [replica.epoch for replica in
                 getattr(backend, "replicas", ())],
                registry.counters, registry.gauges)

    @pytest.mark.parametrize("name", sorted(PUBLISH_PATHS))
    def test_refused_publish_changes_nothing(self, service, name):
        backend = self.serving(name, service)
        if name == "chaos-primary-down":
            assert backend.acting_primary_id >= 0
        before = self.state(backend, service)
        for _ in range(2):  # the same list again: refused again
            with pytest.raises(OverlappingSetsError) as excinfo:
                backend.publish(overlapping_list())
            assert excinfo.value.site == "other-shop.com"
            assert excinfo.value.primaries == ("other.com", "rival.com")
            assert self.state(backend, service) == before
        assert backend.publish(grown_list()).version == 2

    @pytest.mark.parametrize("name", ["service", "router"])
    def test_publish_op_answers_malformed(self, service, name):
        backend = self.serving(name, service)
        dispatcher = Dispatcher(backend)
        before = self.state(backend, service)
        for _ in range(2):
            response = dispatcher.dispatch(
                PublishRequest(rws_list=overlapping_list()))
            answer, _version = decode_response(encode_response(response))
            assert type(answer) is ErrorResponse
            assert answer.op == "publish"
            assert answer.error.code is ErrorCode.MALFORMED
            assert answer.error.detail == {"site": "other-shop.com",
                                           "primary_a": "other.com",
                                           "primary_b": "rival.com"}
            assert "other-shop.com" in answer.error.message
            assert self.state(backend, service) == before

    def test_an_index_refuses_the_list_too(self):
        with pytest.raises(OverlappingSetsError):
            MembershipIndex.from_list(overlapping_list())
