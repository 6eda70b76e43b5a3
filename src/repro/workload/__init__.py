"""Scenario-driven traffic generation and sharded load simulation.

The ROADMAP's north star is serving RWS membership traffic "from
millions of users, as fast as the hardware allows, as many scenarios as
you can imagine"; this package is the engine that produces and replays
that traffic reproducibly:

* :mod:`repro.workload.generator` — deterministic, seeded session
  generators: Zipf-distributed site popularity, configurable member vs
  non-member mixes, per-user session models (page visits, embedded
  third parties, ``requestStorageAccess[For]`` calls);
* :mod:`repro.workload.scenarios` — the named scenario registry
  (steady-state, flash-crowd, mid-flight list updates, abusive-set
  probing, cold/warm cache, bulk firehose, and the seeded chaos
  scenarios riding :mod:`repro.chaos` fault plans) — new workloads
  are one dict entry;
* :mod:`repro.workload.driver` — the serial reference driver and the
  sharded executor that partitions users across workers and merges
  results;
* :mod:`repro.workload.metrics` — the partition-independent outcome
  digest that makes runs bit-comparable (a run's counters and latency
  histograms live in its :class:`~repro.obs.registry.MetricsRegistry`).

Entry point::

    PYTHONPATH=src python -m repro load --scenario steady \\
        --users 100000 --shards 4 --seed 7
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.workload.driver": ("ShardTask", "WorkloadResult", "chaotic",
                              "replicated", "run_serial", "run_shard",
                              "run_sharded", "run_workload"),
    "repro.workload.generator": ("EmbedCall", "PageVisit", "Session",
                                 "SessionGenerator", "SiteUniverse",
                                 "ZipfSampler"),
    "repro.workload.metrics": ("combine_digests", "digest_hex",
                               "user_digest"),
    "repro.workload.scenarios": ("LIST_PROFILES", "SCENARIOS", "Scenario",
                                 "get_scenario"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
