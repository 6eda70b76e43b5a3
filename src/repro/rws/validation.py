"""The RWS technical validation suite (the "GitHub bot").

Submissions to the RWS list are checked by an automated bot before any
manual review; §4 of the paper analyses the bot's output and finds that
58.8% of pull requests are closed without merging, with the error mix of
Table 3.  This module reimplements those checks as independent,
pluggable rules over a proposed :class:`RelatedWebsiteSet`:

Structural rules (no network):

* every site (primary / associated / service / ccTLD alias) must be an
  eTLD+1 per the Public Suffix List;
* every associated and service site needs a rationale;
* ccTLD aliases must be genuine ccTLD variants of an existing member;
* no site may already belong to a different set in the published list;
* no duplicate membership within the set.

Network rules (require a client over a :class:`SyntheticWeb` — or the
real Web, the interface is the same):

* every member must serve ``/.well-known/related-website-set.json``;
* the primary's document must match the submitted set, and every other
  member's document must name the submitted primary;
* every service site must answer with an ``X-Robots-Tag`` header.

Each rule failure yields a :class:`Finding` whose :class:`CheckCode`
maps onto one of Table 3's GitHub-bot message categories via
:data:`TABLE3_CATEGORY`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.psl import PublicSuffixList, default_psl
from repro.psl.lookup import DomainError
from repro.rws.model import RelatedWebsiteSet, RwsList
from repro.rws.schema import SchemaError
from repro.rws.wellknown import WELL_KNOWN_PATH, parse_well_known, well_known_matches

if TYPE_CHECKING:
    # repro.serve builds on this module (circular at runtime), and only
    # the network rules need netsim: they import it when they fetch.
    from repro.netsim.client import Client
    from repro.serve.index import MembershipIndex


class Severity(enum.Enum):
    """Finding severity; ERROR findings fail the submission."""

    ERROR = "error"
    WARNING = "warning"


class CheckCode(enum.Enum):
    """Machine-readable codes for every rule the bot enforces."""

    WELL_KNOWN_UNREACHABLE = "well-known-unreachable"
    WELL_KNOWN_INVALID = "well-known-invalid"
    WELL_KNOWN_MISMATCH = "well-known-mismatch"
    PRIMARY_NOT_ETLD_PLUS_ONE = "primary-not-etld-plus-one"
    ASSOCIATED_NOT_ETLD_PLUS_ONE = "associated-not-etld-plus-one"
    SERVICE_NOT_ETLD_PLUS_ONE = "service-not-etld-plus-one"
    ALIAS_NOT_ETLD_PLUS_ONE = "alias-not-etld-plus-one"
    SERVICE_MISSING_X_ROBOTS_TAG = "service-missing-x-robots-tag"
    MISSING_RATIONALE = "missing-rationale"
    INVALID_DOMAIN = "invalid-domain"
    INVALID_CCTLD_VARIANT = "invalid-cctld-variant"
    DUPLICATE_IN_SET = "duplicate-in-set"
    ALREADY_IN_OTHER_SET = "already-in-other-set"
    EMPTY_SET = "empty-set"


# Table 3 of the paper groups bot messages into 8 rows; this maps each
# check code onto the row label it would be reported under.
TABLE3_CATEGORY: dict[CheckCode, str] = {
    CheckCode.WELL_KNOWN_UNREACHABLE: "Unable to fetch .well-known JSON file",
    CheckCode.WELL_KNOWN_INVALID: "Unable to fetch .well-known JSON file",
    CheckCode.WELL_KNOWN_MISMATCH: "PR set does not match .well-known JSON file",
    CheckCode.PRIMARY_NOT_ETLD_PLUS_ONE: "Primary site isn't an eTLD+1",
    CheckCode.ASSOCIATED_NOT_ETLD_PLUS_ONE: "Associated site isn't an eTLD+1",
    CheckCode.SERVICE_NOT_ETLD_PLUS_ONE: "Service site isn't an eTLD+1",
    CheckCode.ALIAS_NOT_ETLD_PLUS_ONE: "Alias site isn't an eTLD+1",
    CheckCode.SERVICE_MISSING_X_ROBOTS_TAG: "Service site without X-Robots-Tag header",
    CheckCode.MISSING_RATIONALE: "No rationale for one or more set members",
    CheckCode.INVALID_DOMAIN: "Other",
    CheckCode.INVALID_CCTLD_VARIANT: "Other",
    CheckCode.DUPLICATE_IN_SET: "Other",
    CheckCode.ALREADY_IN_OTHER_SET: "Other",
    CheckCode.EMPTY_SET: "Other",
}


@dataclass(frozen=True)
class Finding:
    """One validation finding.

    Attributes:
        code: Which rule fired.
        site: The domain the finding concerns ("" for set-level rules).
        message: Human-readable bot message.
        severity: ERROR findings fail the submission.
    """

    code: CheckCode
    site: str
    message: str
    severity: Severity = Severity.ERROR

    @property
    def table3_category(self) -> str:
        """The Table 3 row this finding is tallied under."""
        return TABLE3_CATEGORY[self.code]


@dataclass
class ValidationReport:
    """The bot's verdict on one submission.

    Attributes:
        findings: All findings, in rule order.
        checked_set: The submission that was validated.
    """

    findings: list[Finding] = field(default_factory=list)
    checked_set: RelatedWebsiteSet | None = None

    @property
    def passed(self) -> bool:
        """True when no ERROR-severity finding was produced."""
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def table3_counts(self) -> dict[str, int]:
        """Findings tallied by Table 3 category."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            category = finding.table3_category
            counts[category] = counts.get(category, 0) + 1
        return counts

    def bot_comment(self) -> str:
        """Render the report as the GitHub bot would comment it."""
        if self.passed:
            return "All set-level technical checks passed."
        lines = ["The following validation errors were found:"]
        for finding in self.findings:
            if finding.severity is Severity.ERROR:
                site = f" [{finding.site}]" if finding.site else ""
                lines.append(f"  - {finding.message}{site}")
        return "\n".join(lines)


class Validator:
    """The RWS submission validator.

    Args:
        psl: Public Suffix List for eTLD+1 checks.
        client: HTTP client for the network checks; when None, network
            rules are skipped (structure-only validation, as used by the
            submission pre-checker example).
        published: The currently published list, for overlap checks.
        published_index: A precompiled
            :class:`~repro.serve.index.MembershipIndex` over
            ``published``; compiled on first use when omitted.  Sharing
            one index across many validators (as the governance
            simulation does) avoids recompiling per submission.
    """

    def __init__(
        self,
        psl: PublicSuffixList | None = None,
        client: Client | None = None,
        published: RwsList | None = None,
        published_index: "MembershipIndex | None" = None,
    ):
        self.psl = psl or default_psl()
        self.client = client
        self.published = published or RwsList()
        self._published_index = published_index

    @property
    def published_index(self) -> "MembershipIndex":
        """The compiled index over the published list (lazily built)."""
        if self._published_index is None:
            # Imported here, not at module level: repro.serve depends on
            # this module, so a top-level import would be circular.
            from repro.serve.index import MembershipIndex

            self._published_index = MembershipIndex.from_list(self.published)
        return self._published_index

    def set_published(
        self,
        published: RwsList,
        index: "MembershipIndex | None" = None,
    ) -> None:
        """Repoint the overlap rule at a new published snapshot."""
        self.published = published
        self._published_index = index

    # -- entry point -------------------------------------------------------

    def validate(self, submission: RelatedWebsiteSet) -> ValidationReport:
        """Run all rules against a submission.

        Returns:
            The full report; ``report.passed`` is the merge gate.
        """
        report = ValidationReport(checked_set=submission)
        self._check_shape(submission, report)
        self._check_etld_plus_one(submission, report)
        self._check_rationales(submission, report)
        self._check_cctld_variants(submission, report)
        self._check_overlap(submission, report)
        if self.client is not None:
            self._check_well_known(submission, report)
            self._check_service_headers(submission, report)
        return report

    # -- structural rules ---------------------------------------------------

    def _check_shape(self, submission: RelatedWebsiteSet,
                     report: ValidationReport) -> None:
        members = submission.members()
        if len(members) < 2:
            report.findings.append(Finding(
                CheckCode.EMPTY_SET, submission.primary,
                "A set must contain the primary and at least one other site",
            ))
        non_primary = (submission.associated + submission.service
                       + submission.cctld_sites)
        seen: set[str] = set()
        for site in non_primary:
            if site == submission.primary:
                report.findings.append(Finding(
                    CheckCode.DUPLICATE_IN_SET, site,
                    "Primary site also listed as a set member",
                ))
            elif site in seen:
                report.findings.append(Finding(
                    CheckCode.DUPLICATE_IN_SET, site,
                    "Site appears more than once in the set",
                ))
            seen.add(site)

    def _is_etld_plus_one(self, site: str) -> bool | None:
        """True/False for valid domains; None for unparseable ones."""
        try:
            return self.psl.is_etld_plus_one(site)
        except DomainError:
            return None

    def _check_etld_plus_one(self, submission: RelatedWebsiteSet,
                             report: ValidationReport) -> None:
        def check(site: str, code: CheckCode, label: str) -> None:
            verdict = self._is_etld_plus_one(site)
            if verdict is None:
                report.findings.append(Finding(
                    CheckCode.INVALID_DOMAIN, site,
                    f"{label} is not a valid domain name",
                ))
            elif not verdict:
                report.findings.append(Finding(
                    code, site, f"{label} isn't an eTLD+1",
                ))

        check(submission.primary, CheckCode.PRIMARY_NOT_ETLD_PLUS_ONE,
              "Primary site")
        for site in submission.associated:
            check(site, CheckCode.ASSOCIATED_NOT_ETLD_PLUS_ONE, "Associated site")
        for site in submission.service:
            check(site, CheckCode.SERVICE_NOT_ETLD_PLUS_ONE, "Service site")
        for site in submission.cctld_sites:
            check(site, CheckCode.ALIAS_NOT_ETLD_PLUS_ONE, "Alias site")

    def _check_rationales(self, submission: RelatedWebsiteSet,
                          report: ValidationReport) -> None:
        missing = [
            site for site in submission.associated + submission.service
            if not submission.rationales.get(site, "").strip()
        ]
        if missing:
            report.findings.append(Finding(
                CheckCode.MISSING_RATIONALE, ", ".join(missing),
                "No rationale for one or more set members",
            ))

    def _check_cctld_variants(self, submission: RelatedWebsiteSet,
                              report: ValidationReport) -> None:
        members_excluding_variants = set(
            [submission.primary] + submission.associated + submission.service
        )
        for member, variants in submission.cctlds.items():
            if member not in members_excluding_variants:
                report.findings.append(Finding(
                    CheckCode.INVALID_CCTLD_VARIANT, member,
                    "ccTLD variants declared for a site that is not a set member",
                ))
                continue
            try:
                member_label = self.psl.second_level_label(member)
            except DomainError:
                member_label = None
            for variant in variants:
                try:
                    variant_label = self.psl.second_level_label(variant)
                    variant_suffix = self.psl.public_suffix(variant)
                    member_suffix = self.psl.public_suffix(member)
                except DomainError:
                    report.findings.append(Finding(
                        CheckCode.INVALID_DOMAIN, variant,
                        "Alias site is not a valid domain name",
                    ))
                    continue
                if variant_label != member_label or variant_suffix == member_suffix:
                    report.findings.append(Finding(
                        CheckCode.INVALID_CCTLD_VARIANT, variant,
                        f"Alias site is not a ccTLD variant of {member}",
                    ))

    def _check_overlap(self, submission: RelatedWebsiteSet,
                       report: ValidationReport) -> None:
        index = self.published_index
        for site in submission.members():
            existing = index.set_for(site)
            if existing is not None and existing.primary != submission.primary:
                report.findings.append(Finding(
                    CheckCode.ALREADY_IN_OTHER_SET, site,
                    f"Site already belongs to the set of {existing.primary}",
                ))

    # -- network rules --------------------------------------------------------

    def _fetch_well_known(self, site: str) -> tuple[str | None, Finding | None]:
        """Fetch a member's well-known file; (body, finding-on-error)."""
        from repro.netsim.client import FetchError

        assert self.client is not None
        url = f"https://{site}{WELL_KNOWN_PATH}"
        try:
            response = self.client.get(url)
        except FetchError as exc:
            return None, Finding(
                CheckCode.WELL_KNOWN_UNREACHABLE, site,
                f"Unable to fetch .well-known JSON file ({exc.reason})",
            )
        if not response.ok:
            return None, Finding(
                CheckCode.WELL_KNOWN_UNREACHABLE, site,
                f"Unable to fetch .well-known JSON file (HTTP {response.status})",
            )
        return response.body, None

    def _check_well_known(self, submission: RelatedWebsiteSet,
                          report: ValidationReport) -> None:
        body, failure = self._fetch_well_known(submission.primary)
        if failure is not None:
            report.findings.append(failure)
        elif body is not None:
            try:
                _, served_set = parse_well_known(body)
            except SchemaError:
                report.findings.append(Finding(
                    CheckCode.WELL_KNOWN_INVALID, submission.primary,
                    "Unable to fetch .well-known JSON file (invalid JSON)",
                ))
            else:
                if served_set is None or not well_known_matches(submission,
                                                                served_set):
                    report.findings.append(Finding(
                        CheckCode.WELL_KNOWN_MISMATCH, submission.primary,
                        "PR set does not match .well-known JSON file",
                    ))

        for site in submission.members():
            if site == submission.primary:
                continue
            body, failure = self._fetch_well_known(site)
            if failure is not None:
                report.findings.append(failure)
                continue
            assert body is not None
            try:
                served_primary, _ = parse_well_known(body)
            except SchemaError:
                report.findings.append(Finding(
                    CheckCode.WELL_KNOWN_INVALID, site,
                    "Unable to fetch .well-known JSON file (invalid JSON)",
                ))
                continue
            if served_primary != submission.primary:
                report.findings.append(Finding(
                    CheckCode.WELL_KNOWN_MISMATCH, site,
                    "PR set does not match .well-known JSON file",
                ))

    def _check_service_headers(self, submission: RelatedWebsiteSet,
                               report: ValidationReport) -> None:
        from repro.netsim.client import FetchError

        assert self.client is not None
        for site in submission.service:
            try:
                response = self.client.get(f"https://{site}/")
            except FetchError:
                # Already reported by the well-known rule; a dead service
                # site does not produce a second header finding.
                continue
            if "X-Robots-Tag" not in response.headers:
                report.findings.append(Finding(
                    CheckCode.SERVICE_MISSING_X_ROBOTS_TAG, site,
                    "Service site without X-Robots-Tag header",
                ))
