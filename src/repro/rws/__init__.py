"""Related Website Sets: model, schema, membership, validation.

This package is the reproduction's realisation of the two halves of the
RWS proposal the paper describes:

* **the list** — :mod:`repro.rws.model` models sets (primary +
  associated/service/ccTLD subsets with per-site rationales);
  :mod:`repro.rws.schema` round-trips the canonical
  ``related_website_sets.JSON`` format; :mod:`repro.rws.wellknown`
  produces and parses the ``/.well-known/related-website-set.json``
  documents every member must serve; :mod:`repro.rws.diff` and
  :mod:`repro.rws.history` track list evolution over time (Figure 7);

* **the policy** — :meth:`repro.rws.model.RwsList.related` is the
  browser-facing predicate ("should storage partitioning be relaxed
  between these two sites?") consumed by :mod:`repro.browser`;

* **the governance** — :mod:`repro.rws.validation` reimplements the
  technical checks the RWS GitHub bot runs on submissions, producing
  the error taxonomy of Table 3.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.rws.model": ("MemberRecord", "RelatedWebsiteSet", "RwsList",
                        "SiteRole"),
    "repro.rws.schema": ("SchemaError", "parse_rws_json",
                         "serialize_rws_json"),
    "repro.rws.suggestions": ("Suggestion", "remediation_text",
                              "suggest_fixes"),
    "repro.rws.validation": ("CheckCode", "Finding", "Severity",
                             "ValidationReport", "Validator"),
    "repro.rws.wellknown": ("WELL_KNOWN_PATH", "member_well_known_document",
                            "parse_well_known",
                            "primary_well_known_document"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
