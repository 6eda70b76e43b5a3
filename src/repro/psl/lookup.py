"""Public suffix and registrable-domain (eTLD+1) lookup.

Implements the matching algorithm specified at
https://publicsuffix.org/list/ on top of the rule model in
:mod:`repro.psl.rules`:

1. Normalise the input domain (lower-case, strip trailing dot, IDNA
   encode each label).
2. Collect all rules matching the domain; if none match, the implicit
   rule ``*`` applies (the bare TLD is the public suffix).
3. If an exception rule matches, it wins outright.
4. Otherwise the longest (prevailing) matching rule determines the
   public suffix length.
5. The registrable domain (eTLD+1) is the public suffix plus the next
   label to its left, if any.

Every RWS decision in this reproduction funnels through this module —
the browser's ``requestStorageAccess`` boundary, the bot's eTLD+1
validity check, the same-set predicate — so the resolution core is a
**compiled engine** rather than a literal transcription of the spec:

* rules compile once into a reversed-label
  :class:`~repro.psl.rules.SuffixTrie`, so resolving a domain is a
  single O(labels) dict-walk instead of a candidate scan with a
  per-rule ``matches()`` re-check (the scan survives as
  :meth:`PublicSuffixList._resolve_scan`, the differential-testing and
  benchmark reference);
* :func:`normalize_domain` front-runs the per-character validation
  loop with one precompiled-regex probe that accepts already-clean
  ASCII hosts — the overwhelming case in served traffic;
* the memoisation cache is a **CLOCK cache, lock-free on the read
  path**: a hit is one plain ``dict.get`` that sets the entry's
  reference bit, and a miss inserts under a short write lock, its
  eviction sweep costing O(1) amortised (see :class:`PublicSuffixList`);
* the serving reads (:meth:`~PublicSuffixList.etld_plus_one` and its
  counted and bulk forms) resolve a host straight to its site string
  and cache only that; a :class:`SuffixMatch` is built only for
  :meth:`~PublicSuffixList.resolve`, once per cached host.
"""

from __future__ import annotations

import copy
import functools
import re
import threading
from dataclasses import dataclass

from repro.psl.rules import Rule, RuleIndex, RuleKind, SuffixTrie, parse_rules
from repro.psl.snapshot import PSL_SNAPSHOT
from typing import Iterable

_MAX_DOMAIN_LENGTH = 253
_MAX_LABEL_LENGTH = 63

#: Already-normalised ASCII hosts: dot-separated labels of [a-z0-9-],
#: 1-63 chars each, no leading/trailing hyphen.  Exactly the set of
#: ASCII strings the structural checks in :func:`_normalize_slow`
#: accept (IDNA encoding is the identity on them), so a match skips
#: the codec round-trip and the per-character loop.
_CLEAN_HOST_RE = re.compile(
    r"(?:[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?\.)*"
    r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?\Z"
).match


class DomainError(ValueError):
    """Raised for syntactically invalid domain names."""


@dataclass(slots=True)
class SuffixMatch:
    """The result of resolving a domain against the PSL.

    A plain slotted value object rather than a frozen dataclass:
    ``object.__setattr__``-based frozen construction costs ~3x a plain
    slot fill (the same win measured for
    :class:`~repro.serve.index.QueryResult`).  Only
    :meth:`PublicSuffixList.resolve` builds one, once per cached host;
    the serving reads never do, because they read only
    ``registrable_domain``.  Instances are shared by the resolution
    cache — treat them as immutable by convention.

    Attributes:
        domain: The normalised input domain.
        public_suffix: The matched public suffix (eTLD).
        registrable_domain: The eTLD+1, or None when the domain *is* a
            public suffix and therefore has no registrable form.
        rule: The prevailing rule (None when the implicit ``*`` rule
            applied).
        is_private_suffix: True when the prevailing rule came from the
            PSL private section.
    """

    domain: str
    public_suffix: str
    registrable_domain: str | None
    rule: Rule | None
    is_private_suffix: bool


def _check_candidate(domain: str) -> str:
    """Shared normalisation prelude: lower-case, strip one trailing dot."""
    if not isinstance(domain, str):
        raise DomainError(f"domain must be a string, got {type(domain).__name__}")
    candidate = domain.strip().lower()
    if candidate.endswith("."):
        candidate = candidate[:-1]
    if not candidate:
        raise DomainError("empty domain name")
    return candidate


def _normalize_slow(candidate: str, domain: str) -> str:
    """The full IDNA + per-character validation path."""
    try:
        ascii_form = candidate.encode("idna").decode("ascii")
    except UnicodeError:
        # ``str.encode('idna')`` rejects some inputs (e.g. empty labels)
        # with UnicodeError; fall through to the structural checks below
        # for an ASCII candidate, otherwise reject.
        if not candidate.isascii():
            raise DomainError(f"cannot IDNA-encode domain: {domain!r}") from None
        ascii_form = candidate

    if len(ascii_form) > _MAX_DOMAIN_LENGTH:
        raise DomainError(f"domain exceeds {_MAX_DOMAIN_LENGTH} octets: {domain!r}")
    labels = ascii_form.split(".")
    for label in labels:
        if not label:
            raise DomainError(f"domain has an empty label: {domain!r}")
        if len(label) > _MAX_LABEL_LENGTH:
            raise DomainError(f"label exceeds {_MAX_LABEL_LENGTH} octets: {domain!r}")
        if label.startswith("-") or label.endswith("-"):
            raise DomainError(f"label has leading/trailing hyphen: {domain!r}")
        for char in label:
            if not (char.isalnum() or char == "-"):
                raise DomainError(f"invalid character {char!r} in domain: {domain!r}")
    return ascii_form


def normalize_domain(domain: str) -> str:
    """Normalise a domain name for PSL matching.

    Lower-cases, strips one trailing dot, and IDNA-encodes non-ASCII
    labels to punycode (the PSL matches on punycode forms).  Hosts that
    are already clean ASCII — the hot-path shape — are accepted by one
    precompiled-regex probe without the IDNA round-trip or the
    per-character loop; everything else takes the full validation path
    with unchanged semantics.

    Args:
        domain: A host name, possibly with a trailing dot or non-ASCII
            labels.

    Returns:
        The normalised ASCII domain.

    Raises:
        DomainError: If the name is empty, too long, has empty labels,
            or contains characters invalid in a host name.
    """
    if isinstance(domain, str) and _CLEAN_HOST_RE(domain) is not None:
        # Already normalised (the regex only matches lower-case, fully
        # clean hosts): skip even the strip/lower copies.
        if len(domain) > _MAX_DOMAIN_LENGTH:
            raise DomainError(
                f"domain exceeds {_MAX_DOMAIN_LENGTH} octets: {domain!r}")
        return domain
    candidate = _check_candidate(domain)
    if _CLEAN_HOST_RE(candidate) is not None:
        if len(candidate) > _MAX_DOMAIN_LENGTH:
            raise DomainError(
                f"domain exceeds {_MAX_DOMAIN_LENGTH} octets: {domain!r}")
        return candidate
    return _normalize_slow(candidate, domain)


def _registrable(normalised: str, labels: list[str],
                 suffix_length: int) -> str | None:
    """The eTLD+1 of a split domain whose public suffix is its last
    ``suffix_length`` labels (None when it is the suffix); when the
    whole domain is the eTLD+1, no join: it is ``normalised`` itself."""
    extra = len(labels) - suffix_length
    if extra == 1:
        return normalised
    if extra == 0:
        return None
    return ".".join(labels[extra - 1:])


def _normalize_reference(domain: str) -> str:
    """:func:`normalize_domain` without the fast-path regex guard.

    The pre-compiled-engine behaviour, kept for differential tests
    (the guard must never change what is accepted) and as the honest
    baseline for ``benchmarks/test_bench_psl_resolve.py``.
    """
    return _normalize_slow(_check_candidate(domain), domain)


class PublicSuffixList:
    """A queryable Public Suffix List.

    Resolution rides a compiled engine: the parsed rules are baked into
    a :class:`~repro.psl.rules.SuffixTrie` (one dict-walk per domain),
    and successful resolutions are memoised in a **CLOCK cache**, the
    second-chance approximation of LRU whose upkeep is O(1) amortised
    per miss:

    * one dict maps each cached host to ``[site, referenced, match]``,
      and a ring of the same keys with a hand orders them for
      eviction;
    * the read path is lock-free — a hit is one ``dict.get`` that sets
      the entry's reference bit with a single list-slot store;
    * misses resolve outside any lock and insert under a short write
      lock with the bit clear.  Once the ring is full, the hand clears
      set bits until it reaches a clear one, evicts that key and
      reuses its slot — an entry hit since the hand last passed
      survives one more sweep, so recently used domains stay.

    The serving reads (:meth:`etld_plus_one`, the ``*_counted`` and
    bulk forms) resolve a miss straight to its site and leave
    ``match`` None; :meth:`resolve` builds the :class:`SuffixMatch` on
    its own miss, or on its first hit of a site-only entry, and stores
    it.  Which read inserted an entry changes no counter or eviction.

    Under concurrency the ``hits`` counter is a plain racy increment
    (exact when uncontended; may undercount under heavy parallel
    hitting), while ``misses``/``errors`` are updated under the write
    lock.  Only successful resolutions are cached; invalid domains
    raise every time and are tallied under ``errors`` (they never
    inflate ``misses``, which counts resolutions that entered the
    cache path).  Cached :class:`SuffixMatch` objects are shared —
    treat them as immutable.

    The ``*_counted`` lookups hand each call's hit count back to the
    caller, so a serving layer can keep per-service resolver counters
    without a second cache in front of this one.

    Args:
        text: PSL-format rule text.  Defaults to the embedded snapshot;
            pass the full downloaded list for production use.
        cache_size: Bound on the resolution cache (0 disables caching).

    Example:
        >>> psl = PublicSuffixList()
        >>> psl.etld_plus_one("act.eff.org")
        'eff.org'
        >>> psl.public_suffix("example.co.uk")
        'co.uk'
        >>> psl.is_etld_plus_one("a.example.com")
        False
    """

    def __init__(self, text: str = PSL_SNAPSHOT, *, cache_size: int = 4096):
        self._index = RuleIndex.from_rules(parse_rules(text))
        if len(self._index) == 0:
            raise ValueError("PSL text contains no rules")
        self._trie = self._index.compile()
        self._cache_maxsize = max(0, cache_size)
        self._cache: dict[str, list] = {}  # host -> [site, referenced, match]
        self._ring: list[str] = []  # every cached key once, in slot order
        self._hand = 0
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_errors = 0

    def __len__(self) -> int:
        return len(self._trie)

    def cache_stats(self) -> dict[str, int]:
        """Resolution-cache counters: hits, misses, errors, size, maxsize.

        ``errors`` counts failed resolutions (:class:`DomainError`),
        which are never cached; ``misses`` counts only resolutions that
        ran the engine successfully and entered the cache.  A
        :meth:`resolve` that hits an entry a serving read inserted
        builds its :class:`SuffixMatch` then, and still counts a hit.
        """
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "errors": self._cache_errors,
                "size": len(self._cache),
                "maxsize": self._cache_maxsize,
            }

    def cache_clear(self) -> None:
        """Empty the resolution cache and reset its counters."""
        with self._cache_lock:
            # Fresh containers, not .clear(): concurrent lock-free
            # readers keep probing a consistent (old) dict.
            self._cache = {}
            self._ring = []
            self._hand = 0
            self._cache_hits = 0
            self._cache_misses = 0
            self._cache_errors = 0

    def counting_view(self) -> PublicSuffixList:
        """This list with hit/miss/error counters of its own.

        The view resolves with the same compiled rules into the same
        cache under the same lock (it sweeps with a hand of its own),
        but its counters start at zero and count only its own lookups.
        So a caller that shares the process-wide :func:`default_psl`
        cache, like a workload shard, reports exactly the lookups it
        made, even while other threads resolve through the same cache.
        :meth:`cache_clear` on either side detaches the two.
        """
        view = copy.copy(self)
        view._cache_hits = view._cache_misses = view._cache_errors = 0
        return view

    # -- cache internals ------------------------------------------------------

    def _insert_locked(self, entries: Iterable[tuple[str, list]]) -> None:
        """Insert ``(host, entry)`` pairs (caller holds the write lock)."""
        cache = self._cache
        ring = self._ring
        size = len(ring)
        hand = self._hand
        for host, entry in entries:
            if host in cache:
                continue  # another thread inserted it while we resolved
            if size < self._cache_maxsize:
                ring.append(host)
                size += 1
            else:
                # Second chance: clear set bits until a clear one comes
                # up.  One full turn clears every bit, so the sweep is
                # bounded even while lock-free hits keep setting bits
                # behind it.
                for _ in range(size):
                    held = cache[ring[hand]]
                    if not held[1]:
                        break
                    held[1] = False
                    hand = (hand + 1) % size
                del cache[ring[hand]]
                ring[hand] = host
                hand = (hand + 1) % size
            # Inserted clear: a domain used once goes when the hand
            # next reaches it; only a hit earns it the second chance.
            cache[host] = entry
        self._hand = hand

    def _resolve_miss(self, domain: str, with_match: bool) -> list:
        """Resolve a domain the cache missed, count it and insert it;
        returns its new ``[site, referenced, match]`` entry."""
        try:
            if with_match:
                match = self._resolve_uncached(domain)
                entry = [match.registrable_domain, False, match]
            else:
                entry = [self._site_uncached(domain), False, None]
        except DomainError:
            with self._cache_lock:
                self._cache_errors += 1
            raise
        with self._cache_lock:
            self._cache_misses += 1
            self._insert_locked(((domain, entry),))
        return entry

    # -- resolution -----------------------------------------------------------

    def resolve(self, domain: str) -> SuffixMatch:
        """Resolve a domain to its public suffix and registrable domain.

        Args:
            domain: The host name to resolve.

        Returns:
            A :class:`SuffixMatch` describing the outcome.

        Raises:
            DomainError: If the domain is syntactically invalid.
        """
        if self._cache_maxsize > 0:
            # A non-str host misses and fails, counted as an error.
            entry = self._cache.get(domain) if isinstance(domain, str) \
                else None
            if entry is None:
                return self._resolve_miss(domain, True)[2]
            entry[1] = True
            self._cache_hits += 1
            if entry[2] is None:
                # A serving read inserted the entry with its site only.
                entry[2] = self._resolve_uncached(domain)
            return entry[2]
        return self._resolve_uncached(domain)

    def etld_plus_one(self, domain: str) -> str | None:
        """The domain's registrable domain (eTLD+1), or None.

        None means the domain is itself a public suffix, e.g.
        ``etld_plus_one("co.uk") is None``.
        """
        if self._cache_maxsize > 0:
            entry = self._cache.get(domain) if isinstance(domain, str) \
                else None
            if entry is None:
                return self._resolve_miss(domain, False)[0]
            entry[1] = True
            self._cache_hits += 1
            return entry[0]
        return self._site_uncached(domain)

    def etld_plus_one_counted(self, host: str) -> tuple[str | None, bool]:
        """:meth:`etld_plus_one` with errors folded to ``None``, plus
        whether the cache answered.

        The serving layer's single-host lookup: it returns
        ``(site, hit)`` so a caller can keep its own resolver counters
        off this cache's probe.  ``site`` is None for an invalid host
        (counted under ``errors``) and for a bare public suffix;
        ``hit`` is False whenever the engine ran or caching is off.
        """
        try:
            if self._cache_maxsize > 0:
                entry = self._cache.get(host) if isinstance(host, str) \
                    else None
                if entry is not None:
                    entry[1] = True
                    self._cache_hits += 1
                    return entry[0], True
                return self._resolve_miss(host, False)[0], False
            return self._site_uncached(host), False
        except DomainError:
            return None, False

    def resolve_many(self, domains: Iterable[str]) -> list[SuffixMatch]:
        """:meth:`resolve` over each domain in turn.

        Raises:
            DomainError: On the first syntactically invalid domain,
                after the domains before it were resolved and counted.
        """
        return [self.resolve(domain) for domain in domains]

    def etld_plus_one_many(self, domains: Iterable[str]) -> list[str | None]:
        """Bulk :meth:`etld_plus_one` with errors folded to ``None``.

        The serving stack's shape: every consumer that feeds raw hosts
        in bulk (the service, the workload fast path, the browser
        engine) treats an invalid host exactly like a bare public
        suffix — no registrable domain — so this returns None for both
        instead of raising, while still counting failures under
        ``errors``.  Value-equivalent to calling :meth:`etld_plus_one`
        per element with ``DomainError`` mapped to None, at one
        write-lock acquisition per batch.
        """
        return self.etld_plus_one_many_counted(list(domains))[0]

    def etld_plus_one_many_counted(
        self, hosts: list[str],
    ) -> tuple[list[str | None], int]:
        """:meth:`etld_plus_one_many` plus the batch's hit count.

        Returns ``(sites, hits)``: ``hits`` counts the hosts the cache
        answered, a within-batch repeat of a host that resolved
        included (sequentially it would have hit); every other host is
        a miss.  Always 0 with caching off.

        Each distinct host is probed once, lock-free, and each distinct
        miss resolves once to its site; the counters and the inserts,
        in first-seen order, then take **one** write-lock acquisition.
        """
        if self._cache_maxsize <= 0:
            return [self.etld_plus_one_counted(host)[0] for host in hosts], 0
        cache = self._cache
        sites = dict.fromkeys(hosts)
        resolved = []
        failed = set()
        for host in sites:
            entry = cache.get(host)
            if entry is not None:
                entry[1] = True
                sites[host] = entry[0]
                continue
            try:
                site = self._site_uncached(host)
            except DomainError:
                failed.add(host)
                continue
            sites[host] = site
            resolved.append((host, [site, False, None]))
        # Failures are never cached, so sequentially every occurrence
        # fails on its own; every other occurrence but a miss's first
        # is a hit.
        errors = sum(map(failed.__contains__, hosts)) if failed else 0
        hits = len(hosts) - len(resolved) - errors
        with self._cache_lock:
            self._cache_hits += hits
            self._cache_misses += len(resolved)
            self._cache_errors += errors
            self._insert_locked(resolved)
        return [sites[host] for host in hosts], hits

    def _site_uncached(self, domain: str) -> str | None:
        """The domain's site straight from the engine: no cache, no
        :class:`SuffixMatch`."""
        normalised = normalize_domain(domain)
        labels = normalised.split(".")
        return _registrable(normalised, labels,
                            self._trie.resolve(labels)[1])

    def _resolve_uncached(self, domain: str) -> SuffixMatch:
        normalised = normalize_domain(domain)
        labels = normalised.split(".")
        winner, suffix_length = self._trie.resolve(labels)
        return SuffixMatch(
            domain=normalised,
            # A single-label suffix needs no join.
            public_suffix=(
                labels[-1] if suffix_length == 1
                else ".".join(labels[len(labels) - suffix_length:])),
            registrable_domain=_registrable(normalised, labels,
                                            suffix_length),
            rule=winner,
            is_private_suffix=bool(winner is not None and winner.is_private),
        )

    def _resolve_scan(self, domain: str) -> SuffixMatch:
        """Reference resolver: the pre-trie candidate scan.

        Kept verbatim (per-character normalisation, bucket scan with a
        :meth:`~repro.psl.rules.Rule.matches` re-check per candidate)
        so property tests can assert the compiled engine is
        semantics-identical and benchmarks can measure the win against
        the real former hot path.  Bypasses the cache entirely.
        """
        normalised = _normalize_reference(domain)
        labels = normalised.split(".")
        reversed_labels = tuple(reversed(labels))

        exception: Rule | None = None
        prevailing: Rule | None = None
        for rule in self._index.candidates(reversed_labels):
            if not rule.matches(reversed_labels):
                continue
            if rule.kind is RuleKind.EXCEPTION:
                if exception is None or len(rule.labels) > len(exception.labels):
                    exception = rule
            elif prevailing is None or rule.match_length > prevailing.match_length:
                prevailing = rule

        if exception is not None:
            winner: Rule | None = exception
            suffix_length = exception.match_length
        elif prevailing is not None:
            winner = prevailing
            suffix_length = prevailing.match_length
        else:
            # Implicit rule "*": the right-most label is the suffix.
            winner = None
            suffix_length = 1

        suffix_labels = labels[len(labels) - suffix_length:]
        public_suffix = ".".join(suffix_labels)
        if len(labels) > suffix_length:
            registrable = ".".join(labels[len(labels) - suffix_length - 1:])
        else:
            registrable = None

        return SuffixMatch(
            domain=normalised,
            public_suffix=public_suffix,
            registrable_domain=registrable,
            rule=winner,
            is_private_suffix=bool(winner is not None and winner.is_private),
        )

    # -- derived queries ------------------------------------------------------

    def public_suffix(self, domain: str) -> str:
        """The domain's effective TLD (public suffix)."""
        return self.resolve(domain).public_suffix

    def is_public_suffix(self, domain: str) -> bool:
        """True when the domain is exactly a public suffix."""
        return self.etld_plus_one(domain) is None

    def is_etld_plus_one(self, domain: str) -> bool:
        """True when the domain is exactly a registrable domain.

        This is the check the RWS GitHub bot applies to every submitted
        site: primaries, associated, service, and ccTLD alias sites must
        all be eTLD+1 domains (see Table 3 of the paper for how often
        submissions violate it).
        """
        match = self.resolve(domain)
        return match.registrable_domain == match.domain

    def same_site(self, domain_a: str, domain_b: str) -> bool:
        """True when two hosts belong to the same site (share an eTLD+1).

        This is the browser's default privacy boundary: activity on
        ``eff.org`` and ``act.eff.org`` is same-site; ``facebook.com``
        and ``mayoclinic.com`` are cross-site.
        """
        site_a = self.etld_plus_one(domain_a)
        site_b = self.etld_plus_one(domain_b)
        if site_a is None or site_b is None:
            return False
        return site_a == site_b

    def second_level_label(self, domain: str) -> str | None:
        """The label immediately left of the public suffix (the "SLD").

        The paper's Figure 3 measures Levenshtein distance between these
        labels for set members vs their primaries (e.g. the SLD of
        ``autobild.de`` is ``autobild``).  Returns None when the domain
        is itself a public suffix.
        """
        registrable = self.etld_plus_one(domain)
        if registrable is None:
            return None
        return registrable.split(".", 1)[0]


@functools.lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """The process-wide PSL built from the embedded snapshot."""
    return PublicSuffixList()
