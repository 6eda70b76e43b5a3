"""Named workload scenarios: one dict entry per traffic shape.

A scenario is pure data (:class:`Scenario` is a frozen dataclass of
primitives, picklable across process shards).  Adding a workload means
adding an entry to :data:`SCENARIOS`, not writing driver code:

* ``steady`` — steady-state browsing over the served list;
* ``flash-crowd`` — traffic collapses onto a few hot sets (high Zipf
  exponent, short sessions, many embeds);
* ``list-update`` — a new list version is published mid-flight and
  clients catch up by fetching the served version whole;
* ``abusive`` — probing traffic against an oversized "conglomerate"
  set: gestureless rSA calls, service sites as top-level, cross-set
  scraping (the paper's governance concern as a workload);
* ``stale-replica`` — the mid-flight publish served through a replica
  cluster whose members converge at staggered propagation lag, so
  stale reads (and eventual convergence) land in the outcome digest;
* ``replica-churn`` / ``failover`` / ``lossy-replication`` /
  ``canary-rollback`` — the stale-replica shape run under the matching
  seeded :data:`~repro.chaos.CHAOS_PLANS` fault plan (membership
  churn, primary failover, lossy broadcast delivery, staged-rollout
  rollback); every fault keys off the logical clock, so the digests
  stay reproducible while provably differing from the fault-free run;
* ``cold-cache`` / ``warm-cache`` — the resolver cache accounting
  disabled vs pre-warmed, bracketing the cache's contribution;
* ``bulk`` — a pure membership-decision firehose (no browser
  simulation), the throughput benchmark's workload;
* ``synthetic-bulk`` — the bulk firehose over the seeded synthetic
  generator list (:mod:`repro.data.synthetic`) with a mid-flight
  update, exercising the binary epoch fan-out path over generated
  content.

List contents come from named *profiles* (:data:`LIST_PROFILES`) so a
scenario can reference "the seed list plus an abusive set" or "the seed
list's next version" without carrying unpicklable objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data import build_rws_list
from repro.data.synthetic import (
    build_small_synthetic_list,
    build_small_synthetic_list_v2,
)
from repro.rws.model import RelatedWebsiteSet, RwsList


@dataclass(frozen=True)
class Scenario:
    """One named traffic shape (all fields primitive and picklable).

    Attributes:
        name: Registry key and RNG-stream component.
        description: One line for ``--list-scenarios`` output.
        list_profile: Key into :data:`LIST_PROFILES` choosing the
            served list (and its mid-flight successor, if any).
        browser_traffic: When False, sessions skip the browser engine
            and only produce service membership queries (the ``bulk``
            firehose).
        pages_per_session: Inclusive (min, max) page visits per user.
        embeds_per_page: Inclusive (min, max) third-party embeds.
        member_top_fraction: Probability a page's top-level site is an
            RWS member (vs a synthetic outside site).
        mix_same_set: Probability an embed comes from the top site's own
            set (falls back to a tracker for non-member tops).
        mix_other_set: Probability an embed comes from a *different*
            set; the remainder are unlisted trackers.
        service_top_fraction: Probability the top-level site is a
            service-role member (RWS forbids granting those).
        rsa_for_fraction: Probability a page issues a top-level
            ``requestStorageAccessFor`` call.
        no_gesture_fraction: Probability an rSA call arrives without a
            user gesture (abuse probing).
        interact_fraction: Probability the user interacts with a page.
        zipf_exponent: Popularity skew for all site pools.
        trackers: Size of the synthetic unlisted third-party pool.
        outside_sites: Size of the synthetic non-member top-site pool.
        cold_cache: Serve over a cache-disabled PSL (the
            ``cold-cache`` scenario), so every host resolution on
            either driver path counts as a miss.
        warm_cache: Pre-resolve every member host before traffic runs.
        update_at_fraction: When set, publish the profile's next list
            version once this fraction of all users has been served,
            and verify a v1 client that fetches it converges.
        replicas: When > 0, serve through a
            :class:`~repro.cluster.Router` over this many read
            replicas instead of one service (the replicated execution
            mode).
        replica_lag: Propagation lag *stagger*, in users: replica
            ``i`` applies a mid-flight publish once
            ``(i + 1) * replica_lag`` further users have been served
            (0 converges every replica inside the publish).
        router_policy: Cluster routing policy.  ``rendezvous`` routes
            by query content and is therefore partition-independent —
            required for reproducible digests whenever
            ``replica_lag > 0``; ``round-robin`` routes by arrival
            order (digest-stable only while every replica serves the
            same epoch, i.e. at lag 0).
        chaos: When set, the name of a :data:`~repro.chaos.CHAOS_PLANS`
            fault plan: the cluster runs behind a
            :class:`~repro.chaos.ChaosRouter` executing that plan
            (requires ``replicas > 0``).  Faults are keyed to the
            logical clock and a seed, so chaos digests stay
            bit-identical across runs, shard counts, and executors —
            while provably differing from the fault-free scenario's.
    """

    name: str
    description: str
    list_profile: str = "seed"
    browser_traffic: bool = True
    pages_per_session: tuple[int, int] = (2, 4)
    embeds_per_page: tuple[int, int] = (1, 3)
    member_top_fraction: float = 0.6
    mix_same_set: float = 0.5
    mix_other_set: float = 0.2
    service_top_fraction: float = 0.0
    rsa_for_fraction: float = 0.10
    no_gesture_fraction: float = 0.05
    interact_fraction: float = 0.7
    zipf_exponent: float = 1.2
    trackers: int = 256
    outside_sites: int = 512
    cold_cache: bool = False
    warm_cache: bool = False
    update_at_fraction: float | None = None
    replicas: int = 0
    replica_lag: int = 0
    router_policy: str = "rendezvous"
    chaos: str | None = None


# -- list profiles ------------------------------------------------------------


def _seed_v2() -> RwsList:
    """The seed list's successor: one grown set, one new set."""
    rws_list = build_rws_list()
    first = rws_list.sets[0]
    first.associated.append("midflight-news.com")
    first.rationales["midflight-news.com"] = (
        "Same newsroom; added in the mid-flight list update."
    )
    rws_list.sets.append(RelatedWebsiteSet(
        primary="midflight.com",
        associated=["midflight-shop.com"],
        rationales={"midflight-shop.com": "Storefront of midflight.com."},
    ))
    return rws_list


def _abusive_list() -> RwsList:
    """The seed list plus an oversized 'conglomerate' set.

    The paper's governance analysis worries about sets that stretch
    "clear affiliation" to span dozens of loosely related properties;
    this profile serves one so abusive-probing traffic has a target.
    """
    rws_list = build_rws_list()
    associated = [f"conglomerate-brand{i:02d}.com" for i in range(40)]
    service = [f"conglomerate-cdn{i}.com" for i in range(5)]
    rws_list.sets.append(RelatedWebsiteSet(
        primary="conglomerate-hub.com",
        associated=associated,
        service=service,
        rationales={site: "Part of the conglomerate family."
                    for site in associated + service},
    ))
    return rws_list


def _abusive_list_v2() -> RwsList:
    """The abusive profile after governance removes the oversized set."""
    return build_rws_list()


#: Profile name -> (initial list builder, mid-flight successor builder).
#: The synthetic profile serves the small deterministic generator
#: fixture (:mod:`repro.data.synthetic`) — the same generator scales
#: to the million-domain lists the epoch cold-start bench loads.
LIST_PROFILES: dict[str, tuple[Callable[[], RwsList],
                               Callable[[], RwsList] | None]] = {
    "seed": (build_rws_list, _seed_v2),
    "abusive": (_abusive_list, _abusive_list_v2),
    "synthetic": (build_small_synthetic_list,
                  build_small_synthetic_list_v2),
}


# -- the registry -------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario(
            name="steady",
            description="steady-state browsing over the served seed list",
        ),
        Scenario(
            name="flash-crowd",
            description="traffic collapses onto a few hot sets",
            zipf_exponent=2.2,
            member_top_fraction=0.92,
            pages_per_session=(1, 2),
            embeds_per_page=(3, 5),
            mix_same_set=0.7,
            mix_other_set=0.1,
        ),
        Scenario(
            name="list-update",
            description="new list version published mid-flight; "
                        "clients fetch the served version",
            update_at_fraction=0.5,
        ),
        Scenario(
            name="abusive",
            description="gestureless/service-top probing of an "
                        "oversized conglomerate set",
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            rsa_for_fraction=0.25,
        ),
        Scenario(
            name="takedown",
            description="governance removes the abusive set mid-flight; "
                        "probes keep coming",
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            rsa_for_fraction=0.25,
            update_at_fraction=0.5,
        ),
        Scenario(
            name="stale-replica",
            description="mid-flight takedown reaches replicas at "
                        "staggered lag; stale reads until convergence",
            # The takedown traffic shape: the mid-flight update
            # *removes* the conglomerate set, so a stale replica keeps
            # answering "related" for pairs a converged one denies —
            # the lag is visible in the outcome digest, not just in
            # counters.
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            rsa_for_fraction=0.25,
            update_at_fraction=0.5,
            replicas=3,
            replica_lag=4,
            router_policy="rendezvous",
        ),
        # The four chaos scenarios share the stale-replica traffic
        # shape (takedown probing through a lagged replica cluster) so
        # their digests are directly comparable to the fault-free run
        # — the difference in each digest is the injected fault alone.
        Scenario(
            name="replica-churn",
            description="takedown under replica leave/rejoin and a "
                        "mid-workload joiner",
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            # Near-uniform popularity: the oversized set's sites stay
            # hot, so takedown-affected verdicts land densely in
            # every fault's divergence window.
            zipf_exponent=0.5,
            rsa_for_fraction=0.25,
            update_at_fraction=0.5,
            replicas=3,
            replica_lag=16,
            router_policy="rendezvous",
            chaos="replica-churn",
        ),
        Scenario(
            name="failover",
            description="the primary fails before the takedown; an "
                        "elected replica publishes it",
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            # Near-uniform popularity: the oversized set's sites stay
            # hot, so takedown-affected verdicts land densely in
            # every fault's divergence window.
            zipf_exponent=0.5,
            rsa_for_fraction=0.25,
            update_at_fraction=0.5,
            replicas=3,
            replica_lag=16,
            router_policy="rendezvous",
            chaos="failover",
        ),
        Scenario(
            name="lossy-replication",
            description="takedown broadcast dropped/duplicated/"
                        "reordered; gap-detecting replicas resync",
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            # Near-uniform popularity: the oversized set's sites stay
            # hot, so takedown-affected verdicts land densely in
            # every fault's divergence window.
            zipf_exponent=0.5,
            rsa_for_fraction=0.25,
            update_at_fraction=0.5,
            replicas=3,
            replica_lag=4,
            router_policy="rendezvous",
            chaos="lossy-replication",
        ),
        Scenario(
            name="canary-rollback",
            description="the takedown stages through canaries; the "
                        "divergence probe rolls it back",
            list_profile="abusive",
            member_top_fraction=0.8,
            service_top_fraction=0.25,
            no_gesture_fraction=0.35,
            mix_same_set=0.6,
            mix_other_set=0.3,
            interact_fraction=0.2,
            # Near-uniform popularity: the oversized set's sites stay
            # hot, so takedown-affected verdicts land densely in
            # every fault's divergence window.
            zipf_exponent=0.5,
            rsa_for_fraction=0.25,
            update_at_fraction=0.5,
            replicas=4,
            replica_lag=4,
            router_policy="rendezvous",
            chaos="canary-rollback",
        ),
        Scenario(
            name="cold-cache",
            description="steady traffic with the host-resolver caches disabled",
            cold_cache=True,
        ),
        Scenario(
            name="warm-cache",
            description="steady traffic with the resolver pre-warmed",
            warm_cache=True,
        ),
        Scenario(
            name="bulk",
            description="pure membership-decision firehose "
                        "(no browser simulation)",
            browser_traffic=False,
            pages_per_session=(4, 8),
            embeds_per_page=(4, 8),
            rsa_for_fraction=0.0,
            no_gesture_fraction=0.0,
        ),
        Scenario(
            name="synthetic-bulk",
            description="membership firehose over the generated "
                        "synthetic list with a mid-flight update",
            list_profile="synthetic",
            browser_traffic=False,
            pages_per_session=(4, 8),
            embeds_per_page=(4, 8),
            rsa_for_fraction=0.0,
            no_gesture_fraction=0.0,
            update_at_fraction=0.5,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by registry name.

    Raises:
        KeyError: With the known names, for unknown scenarios.
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
