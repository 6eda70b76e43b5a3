"""Assemble the embedded seeds into typed library objects."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.rws_seed import RWS_SEED_SETS, SNAPSHOT_DATE, SeedSet
from repro.data.sites import SiteCatalog, SiteSpec
from repro.rws.model import RelatedWebsiteSet, RwsList

if TYPE_CHECKING:
    from repro.categorize import CategoryDatabase
    from repro.rws.history import RwsHistory


def _rationale_for(spec: SiteSpec, org: str, role: str) -> str:
    """Generate the rationale text a submitter would declare."""
    if role == "service":
        return (f"{spec.domain} hosts static assets and supporting "
                f"infrastructure for {org} properties.")
    return (f"{spec.brand} is operated in affiliation with {org}; the "
            f"relationship is presented on the site.")


def seed_to_set(seed: SeedSet) -> RelatedWebsiteSet:
    """Convert one seed entry into a :class:`RelatedWebsiteSet`."""
    rationales: dict[str, str] = {}
    for spec in seed.associated:
        rationales[spec.domain] = _rationale_for(spec, seed.org, "associated")
    for spec in seed.service:
        rationales[spec.domain] = _rationale_for(spec, seed.org, "service")
    return RelatedWebsiteSet(
        primary=seed.primary.domain,
        associated=[spec.domain for spec in seed.associated],
        service=[spec.domain for spec in seed.service],
        cctlds={
            member: [variant.domain for variant in variants]
            for member, variants in seed.cctlds.items()
        },
        rationales=rationales,
        contact=f"webmaster@{seed.primary.domain}",
    )


def build_rws_list(seeds: tuple[SeedSet, ...] = RWS_SEED_SETS) -> RwsList:
    """The reconstructed list snapshot (2024-03-26 by default)."""
    return RwsList(
        sets=[seed_to_set(seed) for seed in seeds],
        as_of=SNAPSHOT_DATE,
    )


def build_rws_history(seeds: tuple[SeedSet, ...] = RWS_SEED_SETS) -> RwsHistory:
    """Monthly snapshots from each set's introduction month.

    A set appears in every snapshot from its ``intro_month`` onward, so
    the composition series (Figure 7) ramps as the paper's does.
    """
    from repro.rws.history import RwsHistory, parse_iso_date

    history = RwsHistory()
    months = sorted({seed.intro_month for seed in seeds})
    if not months:
        return history
    final_date = parse_iso_date(SNAPSHOT_DATE)
    all_months: list[str] = []
    year, month = (int(part) for part in months[0].split("-"))
    while (year, month) <= (final_date.year, final_date.month):
        all_months.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            month = 1
            year += 1

    for label in all_months:
        sets_in_force = [
            seed_to_set(seed) for seed in seeds if seed.intro_month <= label
        ]
        if label == all_months[-1]:
            snapshot_date = SNAPSHOT_DATE
        else:
            snapshot_date = f"{label}-28"
        history.add(snapshot_date, RwsList(sets=sets_in_force, as_of=snapshot_date))
    return history


def build_site_catalog(
    seeds: tuple[SeedSet, ...] = RWS_SEED_SETS,
    *,
    include_top_list: bool = True,
) -> SiteCatalog:
    """Catalog of every domain in the seeds (and optionally the top list)."""
    catalog = SiteCatalog()
    for seed in seeds:
        for spec in seed.all_specs():
            catalog.add(spec)
    if include_top_list:
        from repro.data.toplist import build_top_list

        for spec in build_top_list():
            catalog.add(spec)
    return catalog


def build_category_database(catalog: SiteCatalog | None = None) -> CategoryDatabase:
    """ThreatSeeker-substitute database seeded from the catalog.

    Sites whose fine category is "unknown" are deliberately *omitted*
    so lookups for them return UNKNOWN (no keyword fallback for
    catalogued-unknown sites, mirroring unindexed ThreatSeeker entries).
    """
    from repro.categorize import CategoryDatabase, merge_category

    catalog = catalog or build_site_catalog()
    database = CategoryDatabase()
    for spec in catalog.specs():
        category = merge_category(spec.fine_category)
        database.add(spec.domain, category)
    return database


def survey_eligible_sites(
    seeds: tuple[SeedSet, ...] = RWS_SEED_SETS,
) -> dict[str, list[SiteSpec]]:
    """The paper's manual-filter outcome: eligible sites per set.

    Only primaries and associated sites are considered (the survey's
    pair groups are built from "all combinations of set primaries and
    associated sites"); a site is eligible when live and primarily
    English.

    Returns:
        Mapping from set primary domain to its eligible specs (sets with
        fewer than 2 eligible sites are dropped — no within-set pair can
        be formed from them).
    """
    eligible: dict[str, list[SiteSpec]] = {}
    for seed in seeds:
        specs = [spec for spec in (seed.primary, *seed.associated)
                 if spec.survey_eligible]
        if len(specs) >= 2:
            eligible[seed.primary.domain] = specs
    return eligible

