"""Tests for repro.chaos: seeded fault plans and the chaos router.

Covers the plan registry and the stateless fault roll, membership
churn (leave/rejoin/join with hop-vs-snapshot bootstraps),
deterministic primary failover, the lossy broadcast transport with
gap-detection recovery, canary publishes in both directions
(promote and rollback), and — the property everything above exists to
protect — bit-identical workload digests across runs, shard counts,
and executors that nevertheless *differ* from the fault-free runs.
"""

import dataclasses

import pytest

from repro.api import (
    Dispatcher,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
)
from repro.chaos import (
    CHAOS_PLANS,
    ChaosRouter,
    FaultPlan,
    chaos_plan,
    fault_roll,
)
from repro.data import build_rws_list
from repro.rws import RelatedWebsiteSet, RwsList
from repro.serve import RwsService
from repro.workload import chaotic, get_scenario, run_serial, run_sharded
from repro.workload.scenarios import _seed_v2

CHAOS_SCENARIOS = ("replica-churn", "failover", "lossy-replication",
                   "canary-rollback")


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


class TestFaultPlan:
    def test_named_plans_materialise(self):
        for name in CHAOS_PLANS:
            plan = chaos_plan(name, 400, 4)
            assert plan.name == name
            with pytest.raises(dataclasses.FrozenInstanceError):
                plan.seed = 99  # pure data: frozen, picklable

    def test_unknown_plan_names_the_known_ones(self):
        with pytest.raises(KeyError, match="lossy-replication"):
            chaos_plan("split-brain", 400)
        with pytest.raises(KeyError, match="canary-rollback"):
            chaotic("takedown", "split-brain")

    def test_fault_roll_is_a_pure_function(self):
        draws = [fault_roll(37, "drop", r, h)
                 for r in range(10) for h in range(200)]
        assert all(0.0 <= draw < 1.0 for draw in draws)
        # Repeatable regardless of when/where it's asked...
        assert fault_roll(37, "drop", 3, 7) == fault_roll(37, "drop", 3, 7)
        # ...and sensitive to every key component.
        assert fault_roll(37, "drop", 3, 7) != fault_roll(38, "drop", 3, 7)
        assert fault_roll(37, "drop", 3, 7) != fault_roll(37, "dup", 3, 7)
        assert fault_roll(37, "drop", 3, 7) != fault_roll(37, "drop", 4, 7)
        # Roughly uniform over [0, 1): the rates mean what they say.
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55

    def test_canary_count_rounds_up_and_clamps(self):
        plan = FaultPlan(name="t", canary_fraction=0.5)
        assert plan.canary_count(4) == 2
        assert plan.canary_count(3) == 2  # ceil
        assert plan.canary_count(1) == 1
        assert plan.canary_count(0) == 0
        assert FaultPlan(name="t").canary_count(4) == 0


class TestMembershipChurn:
    def test_leave_reroutes_and_rejoin_bootstraps_by_delta(self, primary):
        plan = FaultPlan(name="t", leaves=((1, 5, 20),))
        router = ChaosRouter(primary, replicas=3, plan=plan,
                             policy="rendezvous")
        router.advance(5)
        active_ids = [r.replica_id for r in router._read_replicas()]
        assert active_ids == [0, 2]
        # Reads reroute atomically: every query still answers, and the
        # offline replica serves none of them.
        for i in range(12):
            assert router.query(
                "example.com", "example-news.com").related
            router.query(f"site-{i}.org", "example.com")
        offline = router.replicas[1]
        assert offline.stats.queries == 0
        # A publish while offline is lost to that replica entirely.
        router.publish(grown_list(), published_clock=6)
        router.advance(10)
        assert [r.version for r in router._read_replicas()] == [2, 2]
        assert offline.version == 1
        # Rejoin at 20: bootstrap with one hop to the stored version.
        router.advance(20)
        assert [r.replica_id for r in router._read_replicas()] == [0, 1, 2]
        assert offline.version == 2
        report = router.stats_report()
        assert report["chaos.leaves"] == 1
        assert report["chaos.rejoins"] == 1
        assert report["chaos.bootstrap_hops"] >= 1

    def test_join_adds_a_routable_replica_mid_run(self, primary):
        plan = FaultPlan(name="t", joins=((101, 5, 0),))
        router = ChaosRouter(primary, replicas=2, plan=plan)
        router.publish(grown_list(), published_clock=1)
        router.advance(5)
        joined = [r.replica_id for r in router._read_replicas()]
        assert joined == [0, 1, 101]
        joiner = router.replicas[-1]
        assert joiner.replica_id == 101
        assert joiner.version == 2  # booted current, nothing pending
        assert router.stats_report()["chaos.joins"] == 1

    def test_availability_integrates_missing_capacity(self, primary):
        plan = FaultPlan(name="t", leaves=((2, 0, -1),))
        router = ChaosRouter(primary, replicas=3, plan=plan)
        router.advance(90)
        assert router.availability == pytest.approx(2 / 3)
        plan_full = FaultPlan(name="t")
        healthy = ChaosRouter(primary, replicas=3, plan=plan_full)
        healthy.advance(90)
        assert healthy.availability == 1.0


class TestFailover:
    def test_promotion_serves_writes_and_old_primary_rejoins(self, primary):
        plan = FaultPlan(name="t", primary_failure=(5, 20))
        router = ChaosRouter(primary, replicas=3, plan=plan)
        router.advance(5)
        # All replicas serve v1: the election ties to the lowest id.
        assert router.acting_primary_id == 0
        snapshot = router.publish(grown_list(), published_clock=6)
        assert snapshot.version == 2
        # The promoted node serves the new version; the dead primary
        # process never saw it — only the durable store did.
        assert router.epoch.version == 2
        assert primary.epoch.version == 1
        assert primary.store.get(2).content_hash == snapshot.content_hash
        router.advance(10)
        assert [r.version for r in router._read_replicas()] == [2, 2, 2]
        # Recovery: the old primary rejoins as a *new read replica*
        # (no failback), bootstrapped to the served version.
        router.advance(20)
        assert router.acting_primary_id == 0
        rejoined = router.replicas[-1]
        assert rejoined.replica_id == 3
        assert rejoined.version == 2
        report = router.stats_report()
        assert report["chaos.failovers"] == 1
        assert report["chaos.rejoins"] == 1

    def test_election_prefers_the_most_converged_replica(self, primary):
        # Replica 0 lags 10 ticks, so at the failure tick it still
        # serves v1 while 1 and 2 serve v2: the election must pass
        # over the lower id for the higher version.
        plan = FaultPlan(name="t", primary_failure=(3, -1))
        router = ChaosRouter(primary, replicas=3, plan=plan,
                             lag=[10, 0, 0])
        router.publish(grown_list(), published_clock=1)
        assert [r.version for r in router.replicas] == [1, 2, 2]
        router.advance(3)
        assert router.acting_primary_id == 1

    def test_stats_report_names_the_served_epoch_after_failover(self):
        # The failed primary still holds v1; the cluster serves v2
        # through the promoted replica, and the report must say so.
        primary = RwsService(workers=1)
        primary.publish(build_rws_list())
        try:
            router = ChaosRouter(primary, 3,
                                 plan=chaos_plan("failover", 100, 2),
                                 lag=[2, 4, 6])
            router.advance(50)
            router.publish(_seed_v2())
            router.advance(100)
            assert primary.epoch.version == 1
            report = Dispatcher(router).dispatch(StatsRequest()).report
            assert report["serve.epoch"] == 2.0
            assert report["serve.snapshot_version"] == 2.0
            assert report["serve.index_sets"] == 42.0
            assert report["cluster.replica_epoch_min"] == 2.0
        finally:
            primary.queue.shutdown()

    def test_governance_queue_survives_failover(self, primary):
        plan = FaultPlan(name="t", primary_failure=(1, -1))
        router = ChaosRouter(primary, replicas=2, plan=plan)
        router.advance(1)
        assert router.acting_primary_id >= 0
        ticket = router.submit(small_list().sets[0])
        assert router.drain(timeout=30)
        assert router.poll(ticket).terminal


class TestLossyBroadcast:
    def test_dropped_hop_recovers_via_heartbeat_resync(self, primary):
        plan = FaultPlan(name="t", seed=5, drop_rate=1.0, resync_delay=3)
        router = ChaosRouter(primary, replicas=2, plan=plan)
        router.publish(grown_list(), published_clock=1)
        assert [r.version for r in router.replicas] == [1, 1]
        assert router.stats_report()["chaos.drops"] == 2
        router.advance(4)  # the anti-entropy heartbeat fires
        assert [r.version for r in router.replicas] == [2, 2]
        report = router.stats_report()
        assert report["cluster.resyncs"] == 2

    def test_duplicated_hops_are_ignored(self, primary):
        plan = FaultPlan(name="t", seed=5, duplicate_rate=1.0)
        router = ChaosRouter(primary, replicas=2, plan=plan)
        router.publish(grown_list(), published_clock=1)
        assert [r.version for r in router.replicas] == [2, 2]
        assert router.stats_report()["chaos.duplicates"] == 2
        assert all(r.duplicates_ignored >= 1 for r in router.replicas)

    def test_reordered_hop_applies_late_but_correctly(self, primary):
        plan = FaultPlan(name="t", seed=5, reorder_rate=1.0,
                         reorder_delay=5)
        router = ChaosRouter(primary, replicas=1, plan=plan)
        router.publish(grown_list(), published_clock=1)
        replica = router.replicas[0]
        assert replica.version == 1  # held back by the reorder delay
        router.advance(5)
        assert replica.version == 1
        router.advance(6)
        assert replica.version == 2
        assert replica.epoch.content_hash == primary.epoch.content_hash
        assert router.stats_report()["chaos.reorders"] == 1

    def test_version_gap_recovers_with_full_snapshot(self, primary):
        # Find a seed where hop 2 drops but hop 3 delivers for replica
        # 0 at rate 0.5 — then the delivered hop arrives over a gap.
        seed = next(s for s in range(500)
                    if fault_roll(s, "drop", 0, 2) < 0.5
                    and fault_roll(s, "drop", 0, 3) >= 0.5)
        plan = FaultPlan(name="t", seed=seed, drop_rate=0.5)
        router = ChaosRouter(primary, replicas=1, plan=plan)
        replica = router.replicas[0]
        router.publish(grown_list(), published_clock=1)    # hop 2: lost
        assert replica.version == 1
        router.publish(shrunk_list(), published_clock=2)   # hop 3: lands
        # The gap was detected and recovered by full-snapshot resync —
        # never silently misapplied.
        assert replica.version == 3
        assert replica.resyncs == 1
        assert replica.epoch.content_hash == primary.epoch.content_hash


class TestCanaryPublish:
    ROLLBACK_PLAN = FaultPlan(name="t", seed=41, canary_fraction=0.5,
                              canary_probe_pairs=64,
                              canary_max_divergence=0.02)

    def test_divergent_candidate_rolls_back(self, primary):
        router = ChaosRouter(primary, replicas=4, plan=self.ROLLBACK_PLAN)
        served = router.publish(shrunk_list(), published_clock=1)
        # The takedown diverges far past 2%: the cluster keeps serving
        # v1 while the aborted v2 stays in the store's history.
        assert served.version == 1
        assert router.epoch.version == 1
        assert [r.version for r in router.replicas] == [1, 1, 1, 1]
        assert primary.store.latest.version == 2
        report = router.stats_report()
        assert report["chaos.canary_rollbacks"] == 1
        assert report["chaos.canary_promotes"] == 0

    def test_rolled_back_cluster_hands_clients_the_served_version(
            self, primary):
        router = ChaosRouter(primary, replicas=4, plan=self.ROLLBACK_PLAN)
        router.publish(shrunk_list(), published_clock=1)
        assert primary.store.latest.version == 2  # the aborted candidate
        served = Dispatcher(router).dispatch(SnapshotRequest())
        assert type(served) is SnapshotResponse
        assert served.version == 1
        assert served.content_hash == primary.store.get(1).content_hash

    def test_benign_candidate_promotes_everywhere(self, primary):
        plan = dataclasses.replace(self.ROLLBACK_PLAN,
                                   canary_max_divergence=0.5)
        router = ChaosRouter(primary, replicas=4, plan=plan)
        served = router.publish(shrunk_list(), published_clock=1)
        assert served.version == 2
        assert router.epoch.version == 2
        assert [r.version for r in router.replicas] == [2, 2, 2, 2]
        report = router.stats_report()
        assert report["chaos.canary_promotes"] == 1
        assert report["chaos.canary_rollbacks"] == 0

    def test_promote_under_failover_adopts_on_the_promoted_node(self,
                                                                primary):
        plan = dataclasses.replace(self.ROLLBACK_PLAN,
                                   canary_max_divergence=0.5,
                                   primary_failure=(1, -1))
        router = ChaosRouter(primary, replicas=3, plan=plan)
        router.advance(1)
        assert router.acting_primary_id >= 0
        served = router.publish(grown_list(), published_clock=2)
        assert served.version == 2
        assert router.epoch.version == 2
        assert primary.epoch.version == 1  # the dead process stays put
        assert [r.version for r in router.replicas] == [2, 2, 2]

    def test_republication_stages_nothing(self, primary):
        router = ChaosRouter(primary, replicas=2, plan=self.ROLLBACK_PLAN)
        served = router.publish(small_list(), published_clock=1)
        assert served.version == 1
        report = router.stats_report()
        assert report["chaos.canary_promotes"] == 0
        assert report["chaos.canary_rollbacks"] == 0


class TestChaosWorkloads:
    """The headline invariant: chaos changes outcomes, not determinism."""

    @pytest.mark.parametrize("name", CHAOS_SCENARIOS)
    def test_digest_stable_across_partitions_and_differs_from_fault_free(
            self, name):
        scenario = get_scenario(name)
        users = 200
        serial = run_serial(scenario, users, seed=3)
        inline = run_sharded(scenario, users, 3, seed=3,
                             executor="inline")
        threaded = run_sharded(scenario, users, 2, seed=3,
                               executor="thread")
        assert serial.digest == inline.digest == threaded.digest
        fault_free = run_serial(
            dataclasses.replace(scenario, chaos=None), users, seed=3)
        # The injected faults are *observable* in served verdicts —
        # otherwise the scenarios would be testing nothing.
        assert serial.digest != fault_free.digest

    def test_repeated_runs_are_bit_identical(self):
        scenario = get_scenario("lossy-replication")
        first = run_serial(scenario, 200, seed=0)
        second = run_serial(scenario, 200, seed=0)
        assert first.digest == second.digest
        assert (first.registry.digest_hex()
                == second.registry.digest_hex())

    def test_chaos_metrics_surface_in_the_registry(self):
        result = run_serial(get_scenario("failover"), 200, seed=0)
        portable = result.registry.to_portable()
        assert portable["counters"]["chaos.failovers"] >= 1
        assert portable["counters"]["chaos.rejoins"] >= 1
        assert 0.0 < portable["gauges"]["cluster.availability"] <= 1.0
        assert portable["gauges"]["cluster.active_replicas"] >= 1
        lossy = run_serial(get_scenario("lossy-replication"), 200, seed=0)
        counters = lossy.registry.to_portable()["counters"]
        assert counters["chaos.drops"] > 0
        assert counters["cluster.resyncs"] > 0

    def test_chaotic_wraps_any_scenario(self):
        scenario = chaotic("steady", "failover", replicas=2, lag=2)
        assert scenario.chaos == "failover"
        assert scenario.replicas == 2
        result = run_serial(scenario, 120, seed=1)
        assert result.digest == run_serial(scenario, 120, seed=1).digest
        assert result.registry.to_portable()[
            "counters"]["chaos.failovers"] >= 1

    def test_trace_digest_stays_partition_independent_under_chaos(self):
        # Chaos *events* fire between requests (and are deliberately
        # dropped from the request-keyed span stream), so the traced
        # request history must stay bit-identical however the users
        # are partitioned — even though membership and the write role
        # change mid-run.
        scenario = get_scenario("failover")
        serial = run_serial(scenario, 200, seed=0, trace=True)
        sharded = run_sharded(scenario, 200, 3, seed=0,
                              executor="inline", trace=True)
        assert serial.trace is not None and sharded.trace is not None
        assert serial.trace.digest == sharded.trace.digest
        assert serial.trace.span_count == sharded.trace.span_count
