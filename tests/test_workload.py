"""Tests for the workload engine (repro.workload)."""

import pytest

from repro.cli import main
from repro.data import build_rws_list
from repro.obs import LatencyHistogram
from repro.psl import PublicSuffixList, default_psl
from repro.workload import (
    LIST_PROFILES,
    SCENARIOS,
    SessionGenerator,
    SiteUniverse,
    ZipfSampler,
    combine_digests,
    get_scenario,
    replicated,
    run_serial,
    run_sharded,
    run_workload,
)
from repro.workload.driver import _partition, _pin_worker

import multiprocessing
import os
import random


def _universe(scenario):
    build_v1, _ = LIST_PROFILES[scenario.list_profile]
    return SiteUniverse(build_v1(), trackers=scenario.trackers,
                        outside_sites=scenario.outside_sites)


class TestGeneratorDeterminism:
    def test_same_seed_same_stream(self):
        scenario = get_scenario("steady")
        universe = _universe(scenario)
        first = list(SessionGenerator(scenario, 7, universe).sessions(range(50)))
        second = list(SessionGenerator(scenario, 7, universe).sessions(range(50)))
        assert first == second

    def test_stream_is_per_user_not_per_position(self):
        # Shard-invariance rests on this: user 37's session must not
        # depend on which other users the generator produced first.
        scenario = get_scenario("steady")
        universe = _universe(scenario)
        generator = SessionGenerator(scenario, 7, universe)
        alone = generator.session(37)
        in_order = list(generator.sessions(range(40)))[37]
        reversed_order = list(generator.sessions(reversed(range(40))))[2]
        assert alone == in_order == reversed_order

    def test_different_seed_different_stream(self):
        scenario = get_scenario("steady")
        universe = _universe(scenario)
        first = list(SessionGenerator(scenario, 1, universe).sessions(range(20)))
        second = list(SessionGenerator(scenario, 2, universe).sessions(range(20)))
        assert first != second

    def test_universe_is_deterministic(self):
        rws_list = build_rws_list()
        one = SiteUniverse(rws_list, trackers=10, outside_sites=10)
        two = SiteUniverse(build_rws_list(), trackers=10, outside_sites=10)
        assert one.member_sites == two.member_sites
        assert one.service_sites == two.service_sites

    def test_zipf_sampler_skews_to_head(self):
        sampler = ZipfSampler([f"site-{i}" for i in range(100)], 1.5)
        rng = random.Random(42)
        draws = [sampler.sample(rng) for _ in range(2000)]
        head = sum(1 for d in draws if d in ("site-0", "site-1", "site-2"))
        tail = sum(1 for d in draws if d == "site-99")
        assert head > 2000 * 0.3
        assert tail < head

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler([], 1.0)


class TestDigestInvariance:
    def test_digest_identical_across_shard_counts_and_paths(self):
        serial = run_serial("steady", 120, seed=11)
        for shards in (2, 3, 5):
            sharded = run_sharded("steady", 120, shards, seed=11,
                                  executor="inline")
            assert sharded.digest == serial.digest
            assert sharded.decisions == serial.decisions
            assert (sharded.count("rsa_granted")
                    == serial.count("rsa_granted"))

    def test_digest_identical_with_thread_executor(self):
        serial = run_serial("bulk", 80, seed=5)
        threaded = run_sharded("bulk", 80, 4, seed=5, executor="thread")
        assert threaded.digest == serial.digest

    def test_digest_differs_across_seeds(self):
        assert (run_serial("steady", 40, seed=1).digest
                != run_serial("steady", 40, seed=2).digest)

    def test_mid_flight_update_stays_shard_invariant(self):
        # The update keys off the global user index, so splitting the
        # run across shards must not move any user across the cutoff.
        serial = run_serial("list-update", 60, seed=4)
        sharded = run_sharded("list-update", 60, 4, seed=4,
                              executor="inline")
        assert serial.digest == sharded.digest
        assert serial.snapshot_version == sharded.snapshot_version == 2
        assert serial.count("client_catch_ups") >= 1
        # Every shard at/above the cutoff re-publishes and re-verifies.
        assert sharded.count("client_catch_ups") >= 1


class TestReplicatedExecution:
    def test_lag_zero_digest_matches_single_service(self):
        # The acceptance gate: replicated execution at lag 0 is
        # bit-identical to single-service execution.
        for name in ("steady", "bulk", "list-update"):
            single = run_serial(name, 60, seed=11)
            for policy in ("rendezvous", "round-robin"):
                rep = run_serial(replicated(name, 3, lag=0, policy=policy),
                                 60, seed=11)
                assert rep.digest == single.digest, (name, policy)
            sharded = run_sharded(replicated(name, 3, lag=0), 60, 3,
                                  seed=11, executor="inline")
            assert sharded.digest == single.digest, name

    def test_stale_replica_digest_is_deterministic(self):
        # The stale-replica scenario's digest must be stable across
        # runs, shard counts, and executors — for any seed, which
        # rests on the router keying raw-host and pre-resolved
        # traffic identically (the two driver paths dispatch the same
        # logical query in different shapes).
        for seed in (1, 4, 9):
            serial = run_serial("stale-replica", 60, seed=seed)
            again = run_serial("stale-replica", 60, seed=seed)
            assert serial.digest == again.digest, seed
            for shards in (2, 3, 5):
                sharded = run_sharded("stale-replica", 60, shards,
                                      seed=seed, executor="inline")
                assert sharded.digest == serial.digest, (seed, shards)
            assert serial.snapshot_version == 2
            assert serial.count("replica_catch_ups") >= 1
        threaded = run_sharded("stale-replica", 60, 4, seed=4,
                               executor="thread")
        assert threaded.digest == run_serial("stale-replica", 60,
                                             seed=4).digest

    def test_stale_replica_lag_is_observable_in_the_digest(self):
        # Same traffic with lag forced to 0: every replica converges at
        # the cutoff, so stale reads disappear and the digest moves —
        # convergence is an outcome, not just a counter.
        lagged = run_serial("stale-replica", 60, seed=4)
        converged = run_serial(replicated("stale-replica", 3, lag=0),
                               60, seed=4)
        assert lagged.digest != converged.digest
        # Stale replicas keep answering "related" for the taken-down
        # conglomerate set, so the lagged run sees at least as many
        # related hits.
        assert (lagged.count("related_hits")
                >= converged.count("related_hits"))

    def test_replicated_helper_round_trips(self):
        scenario = replicated("steady", 2, lag=3, policy="round-robin")
        assert scenario.replicas == 2
        assert scenario.replica_lag == 3
        assert scenario.router_policy == "round-robin"
        assert replicated(scenario, 0).replicas == 0


class TestScenarios:
    def test_registry_names_match_entries(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
            assert scenario.list_profile in LIST_PROFILES

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="steady"):
            get_scenario("no-such-scenario")

    def test_every_scenario_runs(self):
        for name in SCENARIOS:
            result = run_workload(name, 30, seed=2)
            assert result.decisions > 0
            assert result.count("queries") > 0

    def test_abusive_scenario_denies_probes(self):
        result = run_serial("abusive", 150, seed=8)
        assert result.count("rsa_denied") > result.count("rsa_granted")

    def test_takedown_flips_decisions_after_update(self):
        # Same traffic, but the abusive set is removed halfway: the
        # post-update half must grant strictly less than a run where
        # the set stays published throughout.
        kept = run_serial("abusive", 200, seed=6)
        takedown = run_serial("takedown", 200, seed=6)
        assert takedown.snapshot_version == 2
        assert (takedown.count("rsa_granted")
                < kept.count("rsa_granted"))

    def test_cache_scenarios_bracket_resolver_behaviour(self):
        cold = run_serial("cold-cache", 60, seed=3)
        warm = run_serial("warm-cache", 60, seed=3)
        assert cold.count("resolver_hits") == 0
        assert warm.count("warmup_resolutions") > 0
        assert warm.count("resolver_hits") > 0

    def test_cold_cache_honoured_on_sharded_path(self):
        # The fast path's shard-local resolver must respect the
        # cold-cache knob too, not just the service's LRU.
        cold = run_sharded("cold-cache", 60, 2, seed=3, executor="inline")
        assert cold.count("resolver_hits") == 0
        assert cold.count("resolver_misses") > 0
        assert cold.digest == run_serial("cold-cache", 60, seed=3).digest

    def test_single_task_run_reports_inline_executor(self):
        result = run_sharded("steady", 1, 4, seed=1, executor="process")
        assert result.executor == "inline"  # no pool actually ran


class TestMetrics:
    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for ns in [100] * 90 + [10_000] * 9 + [1_000_000]:
            histogram.record(ns)
        assert histogram.total == 100
        assert histogram.percentile(0.5) < 1_000
        assert 1_000 < histogram.percentile(0.95) < 100_000
        assert histogram.percentile(0.999) > 100_000

    def test_histogram_merge_equals_union(self):
        left, right, union = (LatencyHistogram() for _ in range(3))
        for i, ns in enumerate([50, 400, 3_000, 25_000, 900_000] * 20):
            (left if i % 2 else right).record(ns)
            union.record(ns)
        left.merge(right)
        assert left.counts == union.counts
        assert left.percentile(0.95) == union.percentile(0.95)

    def test_histogram_empty_and_bounds(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.5) == 0.0
        histogram.record(0)
        histogram.record(2 ** 80)  # clamps to the top bucket
        assert histogram.total == 2
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram([1, 2, 3])

    def test_combine_digests_is_order_independent(self):
        digests = [3, 1 << 200, 17]
        assert combine_digests(digests) == combine_digests(digests[::-1])

    def test_psl_counters_count_each_lookup_once_on_every_executor(
            self, monkeypatch):
        # The truth is the shared cache's own counters over the same
        # run, with every shard resolving through it directly.
        psl = default_psl()
        with monkeypatch.context() as patch:
            patch.setattr(PublicSuffixList, "counting_view",
                          lambda self: self)
            before = psl.cache_stats()
            run_sharded("steady", 60, 3, seed=3, executor="inline")
            after = psl.cache_stats()
        served = sum(after[key] - before[key]
                     for key in ("hits", "misses", "errors"))
        assert served > 0
        digests = set()
        for executor in ("inline", "thread", "process"):
            # Twice: a repeat must not count the previous run's lookups.
            for _ in range(2):
                result = run_sharded("steady", 60, 3, seed=3,
                                     executor=executor)
                counters = result.registry.counters
                assert counters["psl.hits"] + counters["psl.misses"] \
                    + counters["psl.errors"] == served, executor
                digests.add(result.registry.digest_hex())
        assert len(digests) == 1


def _pin_and_report(claimed, results):
    _pin_worker(claimed)
    results.put(sorted(os.sched_getaffinity(0)))


class TestDriver:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="CPU affinity is Linux-only")
    def test_pool_workers_claim_cpus_in_turn(self):
        # Two workers sharing the driver's counter pin themselves to
        # the first two CPUs of the affinity set (one CPU: both on it).
        cpus = sorted(os.sched_getaffinity(0))
        context = multiprocessing.get_context("fork")
        claimed = context.Value("i", 0)
        results = context.Queue()
        workers = [context.Process(target=_pin_and_report,
                                   args=(claimed, results))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        pinned = [results.get(timeout=30) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        results.close()
        results.join_thread()
        assert all(len(affinity) == 1 for affinity in pinned)
        assert sorted(affinity[0] for affinity in pinned) \
            == sorted(cpus[i % len(cpus)] for i in range(2))
        assert claimed.value == 2

    def test_partition_covers_all_users_contiguously(self):
        for users, shards in [(10, 3), (3, 5), (0, 4), (100, 1)]:
            bounds = _partition(users, shards)
            covered = [u for start, end in bounds for u in range(start, end)]
            assert covered == list(range(users))
            assert all(end > start for start, end in bounds)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_sharded("steady", 10, 0)
        with pytest.raises(ValueError):
            run_sharded("steady", 10, 2, executor="carrier-pigeon")

    def test_zero_users(self):
        result = run_workload("steady", 0, shards=3, executor="inline")
        assert result.decisions == 0
        assert result.digest == 0

    def test_report_lines_render(self):
        result = run_serial("steady", 25, seed=1)
        text = "\n".join(result.report_lines())
        assert "digest" in text and "decisions/sec" in text
        assert result.digest_hex in text


class TestCliLoad:
    def test_load_prints_reproducible_summary(self, capsys):
        argv = ["load", "--scenario", "steady", "--users", "80",
                "--shards", "2", "--seed", "7", "--executor", "inline"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Everything up to the throughput line is bit-reproducible.
        deterministic = [line for line in first.splitlines()
                         if not line.startswith(("throughput", "latency"))]
        assert deterministic == [line for line in second.splitlines()
                                 if not line.startswith(("throughput",
                                                         "latency"))]
        assert "digest" in first

    def test_load_replica_flags_preserve_scenario_settings(self, capsys):
        # --replicas alone must not clobber the scenario's own lag and
        # policy: the stale-replica digest (staggered lag observable)
        # must match the flagless run when only the default replica
        # count is restated.
        base = ["load", "--scenario", "stale-replica", "--users", "60",
                "--seed", "4", "--executor", "inline"]
        assert main(base) == 0
        flagless = capsys.readouterr().out
        assert main(base + ["--replicas", "3"]) == 0
        restated = capsys.readouterr().out
        digest = [line for line in flagless.splitlines()
                  if line.startswith("digest")]
        assert digest == [line for line in restated.splitlines()
                          if line.startswith("digest")]

    def test_load_rejects_unknown_scenario(self, capsys):
        assert main(["load", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_load_lists_scenarios(self, capsys):
        assert main(["load", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
