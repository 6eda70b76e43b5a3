"""Bench X5 — workload engine: sharded driver vs serial reference.

Not a paper artefact: the acceptance gate for the `repro.workload`
subsystem.  The sharded executor must answer the same traffic at >= 2x
the serial driver's throughput on the bulk scenario — from a batched
per-shard hot loop (strictly less work per decision than the
full-fidelity serial path) multiplied by process parallelism on
multi-core hosts — while producing a bit-identical outcome digest.
"""

from __future__ import annotations

from repro.workload import (
    SessionGenerator,
    SiteUniverse,
    get_scenario,
    run_serial,
    run_sharded,
)
from repro.workload.scenarios import LIST_PROFILES

_USERS = 2500
_SHARDS = 4
_SEED = 9


def test_sharded_matches_serial_outcomes():
    """Both drivers produce identical decisions for identical traffic."""
    serial = run_serial("bulk", 400, seed=_SEED)
    sharded = run_sharded("bulk", 400, _SHARDS, seed=_SEED)
    assert sharded.digest == serial.digest
    assert sharded.decisions == serial.decisions
    assert (sharded.count("related_hits")
            == serial.count("related_hits"))


def test_sharded_beats_serial_throughput():
    """Bulk decisions/sec: sharded executor >= 2x the serial driver."""
    run_serial("bulk", 50, seed=1)          # warm import/PSL caches
    run_sharded("bulk", 50, _SHARDS, seed=1)

    serial_best = 0.0
    sharded_best = 0.0
    for _ in range(2):
        serial = run_serial("bulk", _USERS, seed=_SEED)
        serial_best = max(serial_best, serial.decisions_per_sec)
        sharded = run_sharded("bulk", _USERS, _SHARDS, seed=_SEED)
        sharded_best = max(sharded_best, sharded.decisions_per_sec)
        assert sharded.digest == serial.digest

    speedup = sharded_best / serial_best
    print(f"\nbulk x {serial.decisions} decisions: "
          f"serial {serial_best:,.0f}/s, "
          f"{_SHARDS}-shard ({sharded.executor}) {sharded_best:,.0f}/s "
          f"({speedup:.1f}x speedup)")
    assert speedup >= 2.0, (
        f"sharded driver only {speedup:.1f}x the serial driver"
    )


def test_bench_session_generation(benchmark):
    """Session synthesis throughput (the generator alone)."""
    scenario = get_scenario("bulk")
    build_v1, _ = LIST_PROFILES[scenario.list_profile]
    universe = SiteUniverse(build_v1(), trackers=scenario.trackers,
                            outside_sites=scenario.outside_sites)
    generator = SessionGenerator(scenario, _SEED, universe)

    sessions = benchmark(lambda: list(generator.sessions(range(300))))
    assert len(sessions) == 300
    assert all(session.event_count() > 0 for session in sessions)


def test_bench_serial_driver(benchmark):
    """End-to-end serial driver on the steady scenario."""
    result = benchmark(run_serial, "steady", 150, seed=_SEED)
    assert result.decisions > 0


def test_bench_sharded_driver(benchmark):
    """End-to-end sharded driver (inline shards: pure fast-path cost)."""
    result = benchmark(run_sharded, "steady", 150, _SHARDS,
                       seed=_SEED, executor="inline")
    assert result.decisions > 0
