"""Seeded synthetic RWS lists at arbitrary scale.

The reconstructed 2024 list (:mod:`repro.data.rws_seed`) has ~170
member sites — three orders of magnitude short of the list sizes the
epoch-format cold-start work targets.  This module generates
structurally realistic Related Website Sets lists at any requested
domain count, fully determined by ``(domains, seed, mean_set_size)``:
the same arguments always produce the identical list (and therefore
the identical ``membership_hash``), so million-domain benchmarks and
small tier-1 fixtures share one code path.

Generated sets mirror the real list's shape: a ``.com`` primary, a
role mix of roughly 70% associated / 15% service / 15% ccTLD variants
(each ccTLD a ``.co.uk`` variant of an earlier member of the same
set), and set sizes varying around ``mean_set_size``.
"""

from __future__ import annotations

import random

from repro.rws.model import RelatedWebsiteSet, RwsList

__all__ = [
    "SMALL_SYNTHETIC_DOMAINS",
    "build_small_synthetic_list",
    "build_small_synthetic_list_v2",
    "build_synthetic_list",
]

#: Domain count of the tier-1 fixture variant.
SMALL_SYNTHETIC_DOMAINS = 400


def build_synthetic_list(domains: int = 1_000_000, *, seed: int = 7,
                         mean_set_size: int = 16) -> RwsList:
    """Generate a deterministic synthetic list of ``domains`` sites.

    Args:
        domains: Total member-site budget (primaries included).  The
            generator stops adding members once the budget is spent,
            so the produced list holds exactly ``domains`` sites.
        seed: RNG seed; part of the list's identity (and its version
            string).
        mean_set_size: Sets vary uniformly between half and twice this
            size.
    """
    if domains < 1:
        raise ValueError("domains must be >= 1")
    # Integer seed mixing: tuple seeding would ride process-randomized
    # hashing; this stays stable across interpreters.
    rng = random.Random(seed * 1_000_003 + domains * 31 + mean_set_size)
    low = max(2, mean_set_size // 2)
    high = max(low, mean_set_size * 2)
    sets: list[RelatedWebsiteSet] = []
    produced = 0
    set_idx = 0
    while produced < domains:
        size = min(rng.randint(low, high), domains - produced)
        base = f"syn{set_idx:07d}"
        primary = f"{base}.com"
        associated: list[str] = []
        service: list[str] = []
        cctlds: dict[str, list[str]] = {}
        members = [primary]
        produced += 1
        for member_idx in range(1, size):
            roll = rng.random()
            if roll < 0.70:
                site = f"{base}-m{member_idx}.com"
                associated.append(site)
                members.append(site)
            elif roll < 0.85:
                service.append(f"{base}-svc{member_idx}.net")
            else:
                variant = members[rng.randrange(len(members))]
                site = f"{base}-m{member_idx}.co.uk"
                cctlds.setdefault(variant, []).append(site)
            produced += 1
        sets.append(RelatedWebsiteSet(primary=primary,
                                      associated=associated,
                                      service=service, cctlds=cctlds))
        set_idx += 1
    return RwsList(sets=sets,
                   version=f"synthetic-{seed}-{domains}",
                   as_of="2026-08-08")


def build_small_synthetic_list() -> RwsList:
    """The tier-1 fixture: ~25 sets, exactly 400 member sites."""
    return build_synthetic_list(SMALL_SYNTHETIC_DOMAINS)


def build_small_synthetic_list_v2() -> RwsList:
    """The small fixture's mid-flight successor.

    Drops the last set and adds a fresh one, so list-update scenarios
    over the synthetic profile exercise both a removal and an
    addition.
    """
    rws_list = build_small_synthetic_list()
    rws_list.sets.pop()
    rws_list.sets.append(RelatedWebsiteSet(
        primary="syn-updated.com",
        associated=["syn-updated-news.com", "syn-updated-shop.com"],
        service=["syn-updated-cdn.net"],
    ))
    return RwsList(sets=rws_list.sets,
                   version=rws_list.version + "-v2",
                   as_of="2026-08-09")
