"""Deterministic, seeded browsing-session generators.

The paper's subject is a *deployed* mechanism: every third-party
storage-access decision in Chrome is a membership lookup against the
RWS list, issued by real users browsing real pages.  This module
synthesizes that traffic reproducibly:

* site popularity is Zipf-distributed (web traffic is famously
  heavy-tailed), with the exponent as a scenario knob;
* each user is an independent session model — page visits, embedded
  third parties, ``requestStorageAccess`` / ``requestStorageAccessFor``
  calls — drawn from a per-user RNG seeded by ``(seed, scenario,
  user_id)`` only;
* the traffic mix (same-set members vs other-set members vs unlisted
  trackers, member vs outside top sites) is configurable per scenario.

Because every random draw for user *u* comes from *u*'s own RNG, the
session stream for a given seed is identical run to run **and**
independent of how users are partitioned across shards — the property
the sharded driver's merge correctness rests on.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, TYPE_CHECKING

from repro.rws.model import RwsList, SiteRole

if TYPE_CHECKING:
    from repro.workload.scenarios import Scenario


@dataclass(frozen=True)
class EmbedCall:
    """One embedded third-party frame and its storage-access request.

    Attributes:
        host: The raw embedded host (may carry a ``www.``/``cdn.``
            prefix — the serving layer resolves it to a site).
        user_gesture: Whether the rSA call carries a user gesture
            (abusive traffic probes without one).
    """

    host: str
    user_gesture: bool


@dataclass(frozen=True)
class PageVisit:
    """One top-level navigation with its embedded traffic.

    Attributes:
        top_host: The raw top-level host navigated to.
        interact: Whether the user interacts with the page (the RWS
            grant ladder consults prior set interaction).
        embeds: Embedded third parties, in embed order.
        rsa_for_hosts: Hosts the top-level document calls
            ``requestStorageAccessFor`` on.
    """

    top_host: str
    interact: bool
    embeds: tuple[EmbedCall, ...]
    rsa_for_hosts: tuple[str, ...]


@dataclass(frozen=True)
class Session:
    """One user's browsing session (the unit of shard partitioning)."""

    user_id: int
    pages: tuple[PageVisit, ...]

    def event_count(self) -> int:
        """Total decision-producing events in the session."""
        return sum(len(p.embeds) + len(p.rsa_for_hosts) for p in self.pages)


class ZipfSampler:
    """Zipf-distributed sampling over a fixed pool of items.

    Item at rank *r* (1-based) has weight ``1 / r**exponent``; sampling
    is one uniform draw plus a bisect over the precomputed CDF.
    """

    def __init__(self, items: list[str], exponent: float):
        if not items:
            raise ValueError("cannot sample from an empty pool")
        self.items = list(items)
        weights = [1.0 / (rank ** exponent)
                   for rank in range(1, len(items) + 1)]
        self._cdf = list(accumulate(weights))
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> str:
        """One Zipf draw using the caller's RNG."""
        point = rng.random() * self._total
        return self.items[bisect_left(self._cdf, point)]


class SiteUniverse:
    """The deterministic site population traffic is drawn from.

    Built from an :class:`RwsList` plus synthetic non-member pools; all
    orderings derive from list order and index arithmetic, never from
    hashing or runtime state, so two processes given the same inputs
    build identical universes.

    Attributes:
        member_sites: Every RWS member domain, in list order.
        service_sites: Member domains with the service role.
        set_members: Map from member domain to its full set membership
            (primary first), for same-set embed choices.
        trackers: Synthetic unlisted third-party domains.
        outside_tops: Synthetic unlisted top-level sites.
    """

    def __init__(self, rws_list: RwsList, *, trackers: int,
                 outside_sites: int):
        self.member_sites: list[str] = []
        self.service_sites: list[str] = []
        self.set_members: dict[str, tuple[str, ...]] = {}
        seen: set[str] = set()
        for rws_set in rws_list:
            members = tuple(rws_set.members())
            for record in rws_set.member_records():
                if record.site in seen:
                    continue  # a site repeated inside its set
                seen.add(record.site)
                self.member_sites.append(record.site)
                self.set_members[record.site] = members
                if record.role is SiteRole.SERVICE:
                    self.service_sites.append(record.site)
        if not self.member_sites:
            raise ValueError("workload universe needs a non-empty RWS list")
        self.trackers = [f"tracker-{i:03d}.com" for i in range(max(1, trackers))]
        self.outside_tops = [f"longtail-{i:03d}.net"
                             for i in range(max(1, outside_sites))]

    def same_set_partner(self, site: str, rng: random.Random) -> str | None:
        """A *different* member of ``site``'s set, or None."""
        members = self.set_members.get(site)
        if members is None or len(members) < 2:
            return None
        partner = rng.choice(members)
        if partner == site:
            partner = members[(members.index(partner) + 1) % len(members)]
        return partner


def _dress_host(site: str, rng: random.Random) -> str:
    """A raw host for a site (real traffic arrives as full hostnames)."""
    roll = rng.random()
    if roll < 0.40:
        return f"www.{site}"
    if roll < 0.50:
        return f"m.{site}"
    return site


class SessionGenerator:
    """Seeded per-user session synthesis for one scenario.

    Args:
        scenario: The scenario whose knobs shape the traffic.
        seed: The run seed; combined with the scenario name and user id
            it fully determines every session.
        universe: The site population to draw from.
    """

    def __init__(self, scenario: Scenario, seed: int, universe: SiteUniverse):
        self.scenario = scenario
        self.seed = seed
        self.universe = universe
        self._member_tops = ZipfSampler(universe.member_sites,
                                        scenario.zipf_exponent)
        self._trackers = ZipfSampler(universe.trackers,
                                     scenario.zipf_exponent)
        self._outside_tops = ZipfSampler(universe.outside_tops,
                                         scenario.zipf_exponent)

    def _rng_for(self, user_id: int) -> random.Random:
        # String seeding hashes via sha512 inside random.Random — stable
        # across processes and PYTHONHASHSEED values.
        return random.Random(f"{self.seed}:{self.scenario.name}:{user_id}")

    def session(self, user_id: int) -> Session:
        """The (deterministic) session for one user."""
        scenario = self.scenario
        universe = self.universe
        rng = self._rng_for(user_id)
        pages: list[PageVisit] = []
        for _ in range(rng.randint(*scenario.pages_per_session)):
            if (scenario.service_top_fraction > 0.0 and universe.service_sites
                    and rng.random() < scenario.service_top_fraction):
                top_site = rng.choice(universe.service_sites)
            elif rng.random() < scenario.member_top_fraction:
                top_site = self._member_tops.sample(rng)
            else:
                top_site = self._outside_tops.sample(rng)
            interact = rng.random() < scenario.interact_fraction

            embeds: list[EmbedCall] = []
            for _ in range(rng.randint(*scenario.embeds_per_page)):
                embeds.append(EmbedCall(
                    host=_dress_host(self._embed_site(top_site, rng), rng),
                    user_gesture=(scenario.no_gesture_fraction <= 0.0
                                  or rng.random()
                                  >= scenario.no_gesture_fraction),
                ))

            rsa_for: tuple[str, ...] = ()
            if (scenario.rsa_for_fraction > 0.0
                    and rng.random() < scenario.rsa_for_fraction):
                partner = universe.same_set_partner(top_site, rng)
                if partner is not None:
                    rsa_for = (_dress_host(partner, rng),)

            pages.append(PageVisit(
                top_host=_dress_host(top_site, rng),
                interact=interact,
                embeds=tuple(embeds),
                rsa_for_hosts=rsa_for,
            ))
        return Session(user_id=user_id, pages=tuple(pages))

    def _embed_site(self, top_site: str, rng: random.Random) -> str:
        scenario = self.scenario
        roll = rng.random()
        if roll < scenario.mix_same_set:
            partner = self.universe.same_set_partner(top_site, rng)
            if partner is not None:
                return partner
        elif roll < scenario.mix_same_set + scenario.mix_other_set:
            top_members = self.universe.set_members.get(top_site)
            for _ in range(4):  # bounded retry, then fall through
                candidate = self._member_tops.sample(rng)
                members = self.universe.set_members[candidate]
                if top_members is None or members is not top_members:
                    return candidate
        return self._trackers.sample(rng)

    def sessions(self, user_ids: Iterable[int]) -> Iterator[Session]:
        """Lazily generate the sessions for a range of users."""
        for user_id in user_ids:
            yield self.session(user_id)
