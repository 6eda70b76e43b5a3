"""Embedded datasets for the reproduction.

The paper's measurements run over four external data sources that are
reconstructed here (see DESIGN.md "Substitutions"):

* :mod:`repro.data.sites` — the site catalog model: per-domain metadata
  (organisation, brand, language, liveness, fine-grained category,
  branding-overlap level) that the synthetic web generator and the
  survey design consume;
* :mod:`repro.data.rws_seed` — the reconstructed Related Website Sets
  list as of 2024-03-26 (41 sets; 108 associated / 14 service / 10
  ccTLD members; the real members named in the paper are present),
  with each set's introduction month for the history series;
* :mod:`repro.data.toplist` — a Tranco-style top-200 list of
  categorised, live, English sites for the survey's "Top Site" groups;
* :mod:`repro.data.builders` — assemble the seeds into the library's
  typed objects (RwsList, RwsHistory, CategoryDatabase, site catalog);
* :mod:`repro.data.synthetic` — seeded synthetic RWS lists at
  arbitrary scale (million-domain benchmark fixtures and a small
  deterministic tier-1 variant).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.data.builders": ("build_category_database", "build_rws_history",
                            "build_rws_list", "build_site_catalog"),
    "repro.data.rws_seed": ("RWS_SEED_SETS", "SNAPSHOT_DATE"),
    "repro.data.sites": ("BrandingLevel", "SiteCatalog", "SiteSpec"),
    "repro.data.synthetic": ("build_small_synthetic_list",
                             "build_synthetic_list"),
    "repro.data.toplist": ("TOP_LIST_SIZE", "build_top_list"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
