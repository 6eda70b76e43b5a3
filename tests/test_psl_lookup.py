"""Unit + property tests for public-suffix lookup."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.psl import DomainError, PublicSuffixList
from repro.psl.lookup import normalize_domain

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                min_size=1, max_size=8)


class TestNormalizeDomain:
    def test_lowercases(self):
        assert normalize_domain("Example.COM") == "example.com"

    def test_strips_trailing_dot(self):
        assert normalize_domain("example.com.") == "example.com"

    def test_idna_encodes(self):
        assert normalize_domain("bücher.de") == "xn--bcher-kva.de"

    @pytest.mark.parametrize("bad", [
        "", ".", "..", "a..b", "-leading.com", "trailing-.com",
        "sp ace.com", "under_score.com", "a" * 64 + ".com",
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(DomainError):
            normalize_domain(bad)

    def test_non_string_rejected(self):
        with pytest.raises(DomainError):
            normalize_domain(42)  # type: ignore[arg-type]

    def test_total_length_limit(self):
        long_domain = ".".join(["a" * 60] * 5)
        with pytest.raises(DomainError):
            normalize_domain(long_domain)


class TestResolution:
    def test_simple_tld(self, psl):
        assert psl.public_suffix("example.com") == "com"
        assert psl.etld_plus_one("example.com") == "example.com"

    def test_multi_level_suffix(self, psl):
        assert psl.public_suffix("shop.example.co.uk") == "co.uk"
        assert psl.etld_plus_one("shop.example.co.uk") == "example.co.uk"

    def test_bare_suffix_has_no_registrable(self, psl):
        assert psl.etld_plus_one("co.uk") is None
        assert psl.is_public_suffix("co.uk")

    def test_wildcard_rule(self, psl):
        # *.ck: any direct child of ck is itself a public suffix.
        assert psl.public_suffix("foo.ck") == "foo.ck"
        assert psl.etld_plus_one("bar.foo.ck") == "bar.foo.ck"

    def test_exception_rule_beats_wildcard(self, psl):
        assert psl.public_suffix("www.ck") == "ck"
        assert psl.etld_plus_one("www.ck") == "www.ck"

    def test_unknown_tld_uses_implicit_rule(self, psl):
        match = psl.resolve("example.zz")
        assert match.public_suffix == "zz"
        assert match.registrable_domain == "example.zz"
        assert match.rule is None

    def test_private_section_suffix(self, psl):
        match = psl.resolve("mysite.github.io")
        assert match.public_suffix == "github.io"
        assert match.is_private_suffix
        assert match.registrable_domain == "mysite.github.io"

    def test_empty_psl_rejected(self):
        with pytest.raises(ValueError):
            PublicSuffixList("// only comments\n")


class TestEtldPlusOnePredicate:
    def test_exact_registrable(self, psl):
        assert psl.is_etld_plus_one("example.com")
        assert psl.is_etld_plus_one("example.co.uk")

    def test_subdomain_is_not(self, psl):
        assert not psl.is_etld_plus_one("a.example.com")

    def test_bare_suffix_is_not(self, psl):
        assert not psl.is_etld_plus_one("com")
        assert not psl.is_etld_plus_one("co.uk")


class TestSameSite:
    def test_paper_example(self, psl):
        # §2: eff.org and act.eff.org are the same site;
        # facebook.com and mayoclinic.com are not.
        assert psl.same_site("eff.org", "act.eff.org")
        assert not psl.same_site("facebook.com", "mayoclinic.com")

    def test_suffix_never_same_site(self, psl):
        assert not psl.same_site("co.uk", "co.uk")


class TestSecondLevelLabel:
    def test_paper_examples(self, psl):
        assert psl.second_level_label("autobild.de") == "autobild"
        assert psl.second_level_label("bild.de") == "bild"
        assert psl.second_level_label("poalim.xyz") == "poalim"

    def test_multi_level_suffix(self, psl):
        assert psl.second_level_label("a.example.co.uk") == "example"

    def test_none_for_suffix(self, psl):
        assert psl.second_level_label("co.uk") is None


class TestProperties:
    @given(labels=st.lists(LABEL, min_size=2, max_size=5))
    def test_registrable_domain_is_suffix_of_input(self, psl, labels):
        domain = ".".join(labels)
        match = psl.resolve(domain)
        assert match.domain.endswith(match.public_suffix)
        if match.registrable_domain is not None:
            assert match.domain.endswith(match.registrable_domain)
            assert match.registrable_domain.endswith(match.public_suffix)

    @given(labels=st.lists(LABEL, min_size=2, max_size=5))
    def test_registrable_is_suffix_plus_one_label(self, psl, labels):
        domain = ".".join(labels)
        match = psl.resolve(domain)
        if match.registrable_domain is not None:
            suffix_labels = match.public_suffix.count(".") + 1
            registrable_labels = match.registrable_domain.count(".") + 1
            assert registrable_labels == suffix_labels + 1

    @given(labels=st.lists(LABEL, min_size=2, max_size=4))
    def test_resolution_is_idempotent(self, psl, labels):
        domain = ".".join(labels)
        first = psl.resolve(domain)
        second = psl.resolve(first.domain)
        assert first == second

    @given(labels=st.lists(LABEL, min_size=2, max_size=4),
           extra=LABEL)
    def test_subdomain_shares_registrable(self, psl, labels, extra):
        domain = ".".join(labels)
        base = psl.resolve(domain)
        if base.registrable_domain is None:
            return
        sub = psl.resolve(f"{extra}.{domain}")
        # Adding a label can only keep or lengthen the public suffix
        # (wildcards); when the suffix is unchanged, the registrable
        # domain must be shared.
        if sub.public_suffix == base.public_suffix:
            assert sub.registrable_domain == base.registrable_domain


class TestResolutionCache:
    def test_cached_result_identical_to_uncached(self):
        cached = PublicSuffixList()
        uncached = PublicSuffixList(cache_size=0)
        domains = ["act.eff.org", "example.co.uk", "a.b.example.com",
                   "EFF.org.", "xn--bcher-kva.example", "foo.ck", "www.ck"]
        for domain in domains:
            first = cached.resolve(domain)
            second = cached.resolve(domain)  # served from cache
            assert first == second == uncached.resolve(domain)
        stats = cached.cache_stats()
        assert stats["hits"] == len(domains)
        assert stats["misses"] == len(domains)
        assert stats["size"] == len(domains)

    def test_invalid_domains_raise_every_time(self):
        psl = PublicSuffixList()
        for _ in range(2):
            with pytest.raises(DomainError):
                psl.resolve("bad..domain")
        assert psl.cache_stats()["size"] == 0

    @pytest.mark.parametrize("host", [5, None, b"a.com", "bad..host"],
                             ids=["int", "none", "bytes", "junk-str"])
    def test_a_failing_host_counts_one_error_on_every_read(self, host):
        # Whatever the read, a host that cannot resolve counts one
        # error with the cache on and none with it off; the folding
        # reads answer None and the others raise, as before.
        folding = {
            "etld_plus_one_many": lambda psl: psl.etld_plus_one_many(
                [host]) == [None],
            "etld_plus_one_many_counted": lambda psl:
                psl.etld_plus_one_many_counted([host]) == ([None], 0),
            "etld_plus_one_counted": lambda psl:
                psl.etld_plus_one_counted(host) == (None, False),
        }
        raising = {
            "etld_plus_one": lambda psl: psl.etld_plus_one(host),
            "resolve": lambda psl: psl.resolve(host),
        }
        for name, read in {**folding, **raising}.items():
            for cache_size, errors in ((4096, 1), (0, 0)):
                psl = PublicSuffixList(cache_size=cache_size)
                if name in raising:
                    with pytest.raises(DomainError):
                        read(psl)
                else:
                    assert read(psl), name
                stats = psl.cache_stats()
                assert (stats["errors"], stats["misses"], stats["hits"],
                        stats["size"]) == (errors, 0, 0, 0), \
                    (name, cache_size)

    def test_cache_clear_resets_counters(self):
        psl = PublicSuffixList()
        psl.resolve("example.com")
        psl.resolve("example.com")
        psl.cache_clear()
        stats = psl.cache_stats()
        assert stats == {"hits": 0, "misses": 0, "errors": 0, "size": 0,
                         "maxsize": stats["maxsize"]}

    def test_cache_respects_bound_and_evicts_lru(self):
        psl = PublicSuffixList(cache_size=2)
        psl.resolve("a.example.com")
        psl.resolve("b.example.com")
        psl.resolve("a.example.com")  # refresh a -> b is now the LRU
        psl.resolve("c.example.com")  # evicts b
        assert psl.cache_stats()["size"] == 2
        hits_before = psl.cache_stats()["hits"]
        psl.resolve("a.example.com")
        assert psl.cache_stats()["hits"] == hits_before + 1
        psl.resolve("b.example.com")  # must re-resolve (was evicted)
        assert psl.cache_stats()["hits"] == hits_before + 1

    def test_disabled_cache_still_resolves(self):
        psl = PublicSuffixList(cache_size=0)
        assert psl.etld_plus_one("act.eff.org") == "eff.org"
        assert psl.cache_stats()["size"] == 0
        assert psl.cache_stats()["maxsize"] == 0

    @staticmethod
    def _zipf_stream(seed: int, distinct: int = 2_000,
                     lookups: int = 20_000) -> list[str]:
        """Hosts drawn with 1/rank popularity, the served-traffic skew."""
        hosts = [f"host-{rank}.example.com" for rank in range(distinct)]
        weights = [1.0 / (rank + 1) for rank in range(distinct)]
        return random.Random(seed).choices(hosts, weights, k=lookups)

    @staticmethod
    def _exact_lru_hits(stream: list[str], size: int) -> int:
        cache: OrderedDict[str, None] = OrderedDict()
        hits = 0
        for host in stream:
            if host in cache:
                cache.move_to_end(host)
                hits += 1
            else:
                cache[host] = None
                if len(cache) > size:
                    cache.popitem(last=False)
        return hits

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hits_close_to_exact_lru_on_zipf_traffic(self, seed):
        stream = self._zipf_stream(seed)
        psl = PublicSuffixList(cache_size=256)
        for host in stream:
            psl.resolve(host)
        hits = psl.cache_stats()["hits"]
        assert hits >= 0.9 * self._exact_lru_hits(stream, 256)

    def test_cache_holding_every_host_misses_each_once(self):
        stream = self._zipf_stream(seed=4)
        distinct = len(set(stream))
        psl = PublicSuffixList(cache_size=distinct)
        for host in stream:
            psl.resolve(host)
        stats = psl.cache_stats()
        assert stats["misses"] == distinct
        assert stats["hits"] == len(stream) - distinct

    def test_full_cache_keeps_its_bound_exactly(self):
        # Eviction frees one slot per miss: the cache stays full, and
        # holds exactly the most recent one-off domains.
        psl = PublicSuffixList(cache_size=100)
        domains = [f"d{i}.example.com" for i in range(1_000)]
        for domain in domains:
            psl.resolve(domain)
        assert psl.cache_stats()["size"] == 100
        for domain in domains[-100:]:
            psl.resolve(domain)
        assert psl.cache_stats()["hits"] == 100
