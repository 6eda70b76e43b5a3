"""Tests for the compiled PSL resolution engine.

Three concerns, matching the engine's three claims:

* **Equivalence** — the suffix-trie resolver must be
  semantics-identical to the candidate scan it replaced
  (:meth:`PublicSuffixList._resolve_scan`), including wildcard,
  exception, and implicit-``*`` rules, on the full embedded snapshot
  *and* on randomised rule sets; the fast-path normaliser must accept
  and reject exactly what the reference normaliser does.
* **Concurrency** — lock-free cached reads stay correct under
  concurrent resolve/cache_clear, and the cache counters stay
  consistent (misses/errors exact under the write lock, hits exact
  when uncontended, size bounded).
* **Bulk APIs** — ``resolve_many`` / ``etld_plus_one_many`` are value-
  and accounting-equivalent to the sequential loops they replace, at
  every layer that now batches (PSL, service resolver, browser
  engine).
* **Site-first cache** — the serving reads resolve a host straight to
  its site and build no :class:`~repro.psl.SuffixMatch`; ``resolve()``
  builds one per cached host, and the counters on a pinned stream are
  what a match-building cache counted.
"""

from __future__ import annotations

import functools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser.engine import Browser
from repro.browser.policy import BROWSER_POLICIES
from repro.data.synthetic import build_synthetic_list
from repro.psl import DomainError, PublicSuffixList, normalize_domain
from repro.psl.lookup import _normalize_reference
from repro.rws.model import RwsList
from repro.serve.service import RwsService

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                min_size=1, max_size=8)


#: Suffix tails exercising every rule kind in the embedded snapshot:
#: plain TLD, multi-label, wildcard (*.ck), exception (www.ck),
#: private section, deep wildcard (*.kawasaki.jp), unknown TLD.
SNAPSHOT_TAILS = ["com", "org", "co.uk", "ck", "www.ck", "github.io",
                  "kawasaki.jp", "city.kawasaki.jp", "zz"]

#: Labels for randomised rule sets: a tiny alphabet forces collisions
#: between exact, wildcard, and exception paths.
RULE_LABEL = st.sampled_from(["aa", "bb", "cc", "top", "alt", "*"])
DOMAIN_LABEL = st.sampled_from(["aa", "bb", "cc", "dd", "top", "alt", "www"])
RULE_SETS = st.lists(
    st.tuples(st.booleans(), st.lists(RULE_LABEL, min_size=1, max_size=3)),
    min_size=1, max_size=8,
)
#: Raw hosts the fast normaliser accepts, reroutes or rejects.
RAW_HOST = st.text(alphabet="abcXYZ019-._* ü", max_size=40)


def psl_from_rules(rules) -> PublicSuffixList:
    """An uncached PSL of ``RULE_SETS`` rules (an exception needs two
    labels)."""
    lines = []
    for is_exception, labels in rules:
        body = ".".join(labels)
        lines.append("!" + body if is_exception and len(labels) >= 2
                     else body)
    return PublicSuffixList("\n".join(lines), cache_size=0)


def site_outcome(finish, domain):
    """``finish(domain)``, or :class:`DomainError` when it raises one."""
    try:
        return finish(domain)
    except DomainError:
        return DomainError


@functools.lru_cache(maxsize=1)
def dressed_batches() -> tuple[tuple[str, ...], ...]:
    """40 batches of 512 hosts: dressed members of a 20k-domain
    synthetic list, a hot few of them often, plus 3 junk hosts each."""
    sites = [site for rws_set in build_synthetic_list(20_000, seed=3)
             for site in rws_set.members()]
    hot = sites[:40]
    rng = random.Random(3)
    dressings = ("{}", "{}", "www.{}", "m.{}", "WWW.{}", "{}.", "cdn.{}")
    junk = ("bad..host", "-lead.example", " ", "x" * 64 + ".com", "co.uk")
    batches = []
    for _ in range(40):
        batch = [rng.choice(dressings).format(
                     rng.choice(hot) if rng.random() < 0.3
                     else rng.choice(sites))
                 for _ in range(509)]
        for host in rng.sample(junk, 3):
            batch.insert(rng.randrange(len(batch) + 1), host)
        batches.append(tuple(batch))
    return tuple(batches)


class TestTrieEquivalence:
    @given(labels=st.lists(LABEL, min_size=1, max_size=4),
           tail=st.sampled_from(SNAPSHOT_TAILS))
    def test_trie_matches_scan_on_snapshot(self, psl, labels, tail):
        domain = ".".join(labels + [tail])
        assert psl._resolve_uncached(domain) == psl._resolve_scan(domain)

    @given(labels=st.lists(LABEL, min_size=1, max_size=5))
    def test_trie_matches_scan_on_random_domains(self, psl, labels):
        domain = ".".join(labels)
        assert psl._resolve_uncached(domain) == psl._resolve_scan(domain)

    @settings(max_examples=200)
    @given(rules=RULE_SETS, domains=st.lists(
        st.lists(DOMAIN_LABEL, min_size=1, max_size=5), min_size=1,
        max_size=8,
    ))
    def test_trie_matches_scan_on_random_rule_sets(self, rules, domains):
        """Wildcard + exception + implicit-* equivalence, fuzzed.

        Rule texts are label sequences over a tiny alphabet (so exact,
        ``*``, and ``!`` paths collide constantly); the candidate scan
        is ground truth for every generated domain, including domains
        no rule matches (the implicit ``*`` rule).
        """
        psl = psl_from_rules(rules)
        for labels in domains:
            domain = ".".join(labels)
            expected = psl._resolve_scan(domain)
            assert psl._resolve_uncached(domain) == expected

    def test_exception_inside_wildcard_takes_general_path(self, psl):
        # city.kawasaki.jp matches both *.kawasaki.jp and the
        # exception — the exact+wildcard collision the multi-path
        # walk exists for.
        match = psl.resolve("a.city.kawasaki.jp")
        assert match == psl._resolve_scan("a.city.kawasaki.jp")

    @given(labels=st.lists(LABEL, min_size=1, max_size=4),
           tail=st.sampled_from(SNAPSHOT_TAILS), raw=RAW_HOST)
    def test_site_engine_matches_match_engine_on_snapshot(self, psl, labels,
                                                          tail, raw):
        """The serving reads' engine answers the match's
        ``registrable_domain`` and raises :class:`DomainError` alike."""
        for domain in (".".join(labels + [tail]), raw):
            assert site_outcome(psl._site_uncached, domain) == site_outcome(
                lambda d: psl._resolve_uncached(d).registrable_domain,
                domain)

    @settings(max_examples=200)
    @given(rules=RULE_SETS, domains=st.lists(
        st.lists(DOMAIN_LABEL, min_size=1, max_size=5).map(".".join)
        | RAW_HOST, min_size=1, max_size=8,
    ))
    def test_site_engine_matches_match_engine_on_random_rule_sets(
            self, rules, domains):
        psl = psl_from_rules(rules)
        for domain in domains:
            assert site_outcome(psl._site_uncached, domain) == site_outcome(
                lambda d: psl._resolve_uncached(d).registrable_domain,
                domain)

    @given(raw=RAW_HOST)
    def test_fast_normalizer_equivalent_to_reference(self, raw):
        try:
            fast = normalize_domain(raw)
        except DomainError:
            fast = None
        try:
            reference = _normalize_reference(raw)
        except DomainError:
            reference = None
        assert fast == reference

    @given(labels=st.lists(LABEL, min_size=1, max_size=4))
    def test_fast_normalizer_is_identity_on_clean_hosts(self, labels):
        domain = ".".join(labels)
        assert normalize_domain(domain) == _normalize_reference(domain)


class TestErrorAccounting:
    def test_failed_resolutions_count_as_errors_not_misses(self):
        psl = PublicSuffixList()
        psl.resolve("example.com")
        before = psl.cache_stats()
        for _ in range(3):
            with pytest.raises(DomainError):
                psl.resolve("bad..domain")
        stats = psl.cache_stats()
        assert stats["errors"] == before["errors"] + 3
        assert stats["misses"] == before["misses"]  # never inflated
        assert stats["size"] == before["size"]

    def test_bulk_counts_errors_per_occurrence(self):
        psl = PublicSuffixList()
        sites = psl.etld_plus_one_many(
            ["bad..domain", "example.com", "bad..domain"])
        assert sites == [None, "example.com", None]
        stats = psl.cache_stats()
        assert stats["errors"] == 2
        assert stats["misses"] == 1

    def test_disabled_cache_counts_nothing(self):
        psl = PublicSuffixList(cache_size=0)
        with pytest.raises(DomainError):
            psl.resolve("bad..domain")
        assert psl.etld_plus_one_many(["bad..domain", "example.com"]) \
            == [None, "example.com"]
        assert psl.cache_stats() == {"hits": 0, "misses": 0, "errors": 0,
                                     "size": 0, "maxsize": 0}


class TestBulkApis:
    DOMAINS = ["act.eff.org", "example.co.uk", "foo.ck", "www.ck",
               "mysite.github.io", "example.zz", "co.uk", "act.eff.org",
               "bad..domain", "shop.city.kawasaki.jp"]

    def test_etld_plus_one_many_matches_sequential_loop(self):
        batched = PublicSuffixList()
        looped = PublicSuffixList()

        def sequential(domain):
            try:
                return looped.etld_plus_one(domain)
            except DomainError:
                return None

        assert batched.etld_plus_one_many(self.DOMAINS) \
            == [sequential(domain) for domain in self.DOMAINS]
        assert batched.cache_stats() == looped.cache_stats()

    def test_resolve_many_matches_resolve(self):
        psl = PublicSuffixList()
        valid = [d for d in self.DOMAINS if d != "bad..domain"]
        assert psl.resolve_many(valid) == [psl.resolve(d) for d in valid]

    def test_resolve_many_raises_on_invalid(self):
        psl = PublicSuffixList()
        with pytest.raises(DomainError):
            psl.resolve_many(["example.com", "bad..domain"])
        assert psl.cache_stats()["errors"] == 1

    def test_bulk_promotions_respect_cache_bound(self):
        psl = PublicSuffixList(cache_size=4)
        psl.etld_plus_one_many([f"site-{i}.example.com" for i in range(32)])
        assert psl.cache_stats()["size"] <= 4

    def test_service_batch_resolution_matches_loop(self):
        batched = RwsService()
        looped = RwsService()
        hosts = ["www.example.com", "example.com", "co.uk", "bad..host",
                 "www.example.com"]
        try:
            verdicts = batched.query_batch(
                [(host, "example.com") for host in hosts])
            assert [verdict.site_a for verdict in verdicts] \
                == [looped.resolve_host(host) for host in hosts]
            assert batched.stats.resolver_errors \
                == looped.stats.resolver_errors
        finally:
            batched.queue.shutdown()
            looped.queue.shutdown()

    def test_browser_visit_with_embeds_matches_singles(self, psl):
        browser = Browser(policy=BROWSER_POLICIES["chrome-rws"],
                          rws_list=RwsList(), psl=psl)
        embeds = ["cdn.example.com", "co.uk", "bad..host", "eff.org"]
        page, sites = browser.visit_with_embeds("www.example.com", embeds)
        assert page.site == browser.visit("www.example.com").site

        def single(host):
            try:
                return psl.etld_plus_one(host)
            except DomainError:
                return None

        assert sites == [single(host) for host in embeds]
        assert browser.resolve_sites(embeds) == sites

    def test_browser_visit_with_embeds_rejects_bare_suffix_top(self, psl):
        browser = Browser(policy=BROWSER_POLICIES["chrome-rws"],
                          rws_list=RwsList(), psl=psl)
        with pytest.raises(ValueError):
            browser.visit_with_embeds("co.uk", ["example.com"])


class TestSiteFirstCache:
    def test_serving_reads_build_no_match(self, monkeypatch):
        """A cold bulk batch and point misses through both site reads
        build no :class:`SuffixMatch`; ``resolve()`` afterwards counts
        hits and builds each host's match once."""
        psl = PublicSuffixList()
        built: list[str] = []
        uncached = psl._resolve_uncached

        def counting(domain):
            built.append(domain)
            return uncached(domain)

        monkeypatch.setattr(psl, "_resolve_uncached", counting)
        batch, counted, plain = dressed_batches()[:3]
        psl.etld_plus_one_many_counted(list(batch))
        for host in counted:
            psl.etld_plus_one_counted(host)
        for host in plain:
            try:
                psl.etld_plus_one(host)
            except DomainError:
                pass
        assert built == []

        reference = PublicSuffixList(cache_size=0)
        hosts = list(dict.fromkeys(
            host for host in batch + counted + plain
            if site_outcome(reference.resolve, host) is not DomainError))
        before = psl.cache_stats()
        for host in hosts:
            assert psl.resolve(host) == reference.resolve(host)
        stats = psl.cache_stats()
        assert stats["hits"] == before["hits"] + len(hosts)
        assert stats["misses"] == before["misses"]
        assert sorted(built) == sorted(hosts)
        for host in hosts:
            psl.resolve(host)
        assert len(built) == len(hosts)

    def test_cache_stats_pinned_on_dressed_synthetic_batches(self):
        """Bulk batches with junk, each followed by point lookups
        through ``etld_plus_one_counted`` and ``resolve()``, through a
        cache 80x smaller than the stream's distinct hosts.  The pinned
        counters are those a cache that built a match on every miss
        counted: which read inserts an entry changes no admission and
        no eviction."""
        psl = PublicSuffixList(cache_size=256)
        reference = PublicSuffixList(cache_size=0)

        def folded(host):
            site = site_outcome(reference.etld_plus_one, host)
            return None if site is DomainError else site

        bulk_hits = point_hits = 0
        for batch in dressed_batches():
            sites, hits = psl.etld_plus_one_many_counted(list(batch))
            assert sites == [folded(host) for host in batch]
            bulk_hits += hits
            for host in batch[::64]:
                point_hits += psl.etld_plus_one_counted(host)[1]
            for host in batch[1::64]:
                site_outcome(psl.resolve, host)
        assert psl.cache_stats() == {"hits": 2864, "misses": 18156,
                                     "errors": 100, "size": 256,
                                     "maxsize": 256}
        assert (bulk_hits, point_hits) == (2580, 143)


class TestConcurrency:
    VALID = ["act.eff.org", "www.example.co.uk", "a.example.com",
             "foo.ck", "www.ck", "mysite.github.io", "example.zz",
             "shop.city.kawasaki.jp", "co.uk", "example.org"]
    INVALID = ["bad..domain", "-leading.example", "sp ace.example"]

    def test_concurrent_resolve_and_clear_stay_correct(self):
        psl = PublicSuffixList(cache_size=64)
        reference = PublicSuffixList(cache_size=0)
        expected = {}
        for domain in self.VALID:
            expected[domain] = reference.resolve(domain)
        pool = self.VALID * 3 + self.INVALID
        failures: list = []
        barrier = threading.Barrier(5)

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(1500):
                domain = rng.choice(pool)
                try:
                    match = psl.resolve(domain)
                except DomainError:
                    if domain not in self.INVALID:
                        failures.append(("unexpected DomainError", domain))
                    continue
                if match != expected[domain]:
                    failures.append((domain, match))

        def clear() -> None:
            barrier.wait()
            for _ in range(40):
                psl.cache_clear()

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(4)]
        threads.append(threading.Thread(target=clear))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        stats = psl.cache_stats()
        # Counter consistency: misses/errors are lock-exact, hits may
        # undercount under contention but never overcount, and the
        # generational fold keeps size bounded.
        total_ops = 4 * 1500
        assert 0 <= stats["size"] <= stats["maxsize"]
        assert 0 < stats["misses"] <= total_ops
        assert 0 <= stats["hits"] <= total_ops
        assert 0 <= stats["errors"] <= total_ops
        assert stats["hits"] + stats["misses"] + stats["errors"] <= total_ops

    def test_counters_exact_after_quiescence(self):
        # The same instance is exact again once contention stops.
        psl = PublicSuffixList(cache_size=64)
        psl.resolve("example.com")
        psl.cache_clear()
        for domain in self.VALID:
            psl.resolve(domain)
        for domain in self.VALID:
            psl.resolve(domain)
        with pytest.raises(DomainError):
            psl.resolve("bad..domain")
        stats = psl.cache_stats()
        assert stats["misses"] == len(self.VALID)
        assert stats["hits"] == len(self.VALID)
        assert stats["errors"] == 1
        assert stats["size"] == len(self.VALID)

    def test_concurrent_bulk_and_single_resolution(self):
        psl = PublicSuffixList(cache_size=128)
        reference = PublicSuffixList(cache_size=0)
        expected = {d: reference.resolve(d).registrable_domain
                    for d in self.VALID}
        failures: list = []

        def bulk(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(200):
                batch = [rng.choice(self.VALID) for _ in range(8)]
                sites = psl.etld_plus_one_many(batch)
                for domain, site in zip(batch, sites):
                    if site != expected[domain]:
                        failures.append((domain, site))

        threads = [threading.Thread(target=bulk, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert psl.cache_stats()["size"] <= 128

    def test_eviction_under_thread_switch_stress(self):
        # A cache far smaller than the key pool evicts on nearly every
        # miss, while lock-free hits set reference bits and clears swap
        # the containers; a tiny switch interval interleaves them all.
        psl = PublicSuffixList(cache_size=32)
        reference = PublicSuffixList(cache_size=0)
        pool = [f"h{i}.example.co.uk" for i in range(48)] + self.VALID \
            + self.INVALID

        def expected(domain):
            try:
                return reference.etld_plus_one(domain)
            except DomainError:
                return None

        answers = {domain: expected(domain) for domain in pool}
        failures: list = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            barrier.wait()
            try:
                run(rng)
            except Exception as exc:  # recorded; a dead worker fails
                failures.append(exc)

        def run(rng: random.Random) -> None:
            for _ in range(1_000):
                roll = rng.random()
                if roll < 0.01:
                    psl.cache_clear()
                elif roll < 0.3:
                    batch = [rng.choice(pool) for _ in range(6)]
                    got = psl.etld_plus_one_many(batch)
                    if got != [answers[domain] for domain in batch]:
                        failures.append((batch, got))
                else:
                    domain = rng.choice(pool)
                    try:
                        site = psl.resolve(domain).registrable_domain
                    except DomainError:
                        site = None
                    if site != answers[domain]:
                        failures.append((domain, site))

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        # Quiescent: every cached key holds exactly one ring slot.
        assert sorted(psl._ring) == sorted(psl._cache)
        stats = psl.cache_stats()
        assert stats["size"] <= stats["maxsize"]
