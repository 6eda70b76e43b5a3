"""Seeded inputs and the verdict oracle for the three workloads.

Everything a run sends is derived from ``--seed`` through the program's
own generators (:class:`SessionGenerator` traffic over a served list
from :func:`build_rws_list` or :func:`build_synthetic_list`), so the
same seed always produces the same lists and the same request stream.
The server launcher calls :func:`served_list` with the same arguments,
which is how it comes to serve exactly the list the client's oracle
was built from.

The oracle is deliberately not the program: it maps each member site
to its set's primary by a plain scan of the list and strips the
``www.``/``m.`` dressing the generator puts on hosts, so a wrong
verdict from any layer (PSL, index, shell, codec) shows up as a
mismatch.
"""

from __future__ import annotations

from dataclasses import replace

from repro.data import build_rws_list
from repro.data.synthetic import build_synthetic_list
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.workload.generator import SessionGenerator, SiteUniverse
from repro.workload.scenarios import SCENARIOS

WORKLOADS = ("point-open", "batch-cold", "publish-mix")

#: Member domains served on ``batch-cold``: far more distinct hosts
#: than the PSL's 4096-entry resolution cache holds.
BATCH_DOMAINS = 100_000
#: Host pairs per ``batch-cold`` request.
BATCH_PAIRS = 256
#: Distinct batches generated per run; the stream cycles through them.
BATCH_POOL = 800
#: Member domains of the list ``publish-mix`` publishes and re-publishes.
PUBLISH_DOMAINS = 600

#: ``batch-cold`` traffic: near-uniform draws over every member plus a
#: large unlisted pool, so hosts rarely repeat within the PSL cache.
BATCH_SCENARIO = replace(
    SCENARIOS["steady"], name="batch-cold", browser_traffic=False,
    zipf_exponent=0.0, pages_per_session=(8, 8), embeds_per_page=(4, 4),
    rsa_for_fraction=0.0, member_top_fraction=0.8, mix_same_set=0.4,
    mix_other_set=0.4, trackers=20_000, outside_sites=20_000)


def served_list(workload: str, seed: int) -> RwsList:
    """The list the server publishes before the first request."""
    if workload == "point-open":
        return build_rws_list()
    if workload == "batch-cold":
        return build_synthetic_list(BATCH_DOMAINS, seed=seed)
    if workload == "publish-mix":
        return build_synthetic_list(PUBLISH_DOMAINS, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


def successor_list(rws_list: RwsList) -> RwsList:
    """The v2 ``publish-mix`` alternates with: first set out, one set in.

    The first set holds the most popular sites under the generator's
    Zipf ranking, so many reads change verdict between the versions.
    """
    sets = list(rws_list.sets[1:])
    sets.append(RelatedWebsiteSet(
        primary="perfbench-added.com",
        associated=["perfbench-added-news.com", "perfbench-added-shop.com"],
        service=["perfbench-added-cdn.net"],
    ))
    return RwsList(sets=sets, version=rws_list.version + "-v2",
                   as_of=rws_list.as_of)


def session_pairs(rws_list: RwsList, scenario, seed: int,
                  count: int) -> list[tuple[str, str]]:
    """``count`` (top host, embedded host) pairs from seeded sessions."""
    universe = SiteUniverse(rws_list, trackers=scenario.trackers,
                            outside_sites=scenario.outside_sites)
    generator = SessionGenerator(scenario, seed, universe)
    pairs: list[tuple[str, str]] = []
    user = 0
    while len(pairs) < count:
        for page in generator.session(user).pages:
            for embed in page.embeds:
                pairs.append((page.top_host, embed.host))
            for host in page.rsa_for_hosts:
                pairs.append((page.top_host, host))
        user += 1
    return pairs[:count]


def read_pairs(workload: str, seed: int, count: int) -> list[tuple[str, str]]:
    """The point-read stream of ``point-open`` / ``publish-mix``."""
    return session_pairs(served_list(workload, seed), SCENARIOS["steady"],
                         seed, count)


def batch_pool(seed: int) -> list[list[tuple[str, str]]]:
    """The ``batch-cold`` request pool: fixed-size batches of pairs."""
    pairs = session_pairs(served_list("batch-cold", seed), BATCH_SCENARIO,
                          seed, BATCH_POOL * BATCH_PAIRS)
    return [pairs[i:i + BATCH_PAIRS]
            for i in range(0, len(pairs), BATCH_PAIRS)]


def site_of(host: str) -> str:
    """Undo the generator's host dressing (``www.``/``m.`` prefixes)."""
    for prefix in ("www.", "m."):
        if host.startswith(prefix):
            return host[len(prefix):]
    return host


class Oracle:
    """Naive verdicts for one list version: same site, or same set."""

    def __init__(self, rws_list: RwsList):
        self._primary: dict[str, str] = {}
        for rws_set in rws_list:
            for record in rws_set.member_records():
                self._primary.setdefault(record.site, rws_set.primary)

    def related(self, host_a: str, host_b: str) -> bool:
        site_a, site_b = site_of(host_a), site_of(host_b)
        if site_a == site_b:
            return True
        primary = self._primary.get(site_a)
        return primary is not None and primary == self._primary.get(site_b)
