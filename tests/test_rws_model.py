"""Tests for the RWS data model and membership predicate."""

import pytest

from repro.rws import MemberRecord, RelatedWebsiteSet, RwsList, SiteRole


@pytest.fixture()
def times_set() -> RelatedWebsiteSet:
    return RelatedWebsiteSet(
        primary="timesinternet.in",
        associated=["indiatimes.com", "cricbuzz.com"],
        service=["timescdn.net"],
        cctlds={"indiatimes.com": ["indiatimes.co.uk"]},
        rationales={
            "indiatimes.com": "Common branding.",
            "cricbuzz.com": "Affiliation shown in footer.",
            "timescdn.net": "Asset host.",
        },
    )


@pytest.fixture()
def small_list(times_set) -> RwsList:
    other = RelatedWebsiteSet(primary="bild.de", associated=["autobild.de"])
    return RwsList(sets=[times_set, other], as_of="2024-03-26")


class TestSetModel:
    def test_members_primary_first_no_duplicates(self, times_set):
        members = times_set.members()
        assert members[0] == "timesinternet.in"
        assert len(members) == len(set(members)) == 5

    def test_roles(self, times_set):
        assert times_set.role_of("timesinternet.in") is SiteRole.PRIMARY
        assert times_set.role_of("indiatimes.com") is SiteRole.ASSOCIATED
        assert times_set.role_of("timescdn.net") is SiteRole.SERVICE
        assert times_set.role_of("indiatimes.co.uk") is SiteRole.CCTLD
        assert times_set.role_of("unrelated.com") is None

    def test_case_insensitive(self, times_set):
        assert times_set.contains("INDIATIMES.COM")

    def test_member_records_carry_metadata(self, times_set):
        records = {r.site: r for r in times_set.member_records()}
        assert records["indiatimes.co.uk"].variant_of == "indiatimes.com"
        assert records["indiatimes.com"].rationale == "Common branding."
        assert records["timesinternet.in"].role is SiteRole.PRIMARY

    def test_size(self, times_set):
        assert times_set.size() == 5

    def test_normalisation_in_constructor(self):
        rws_set = RelatedWebsiteSet(primary="EXAMPLE.com",
                                    associated=["Other.COM"])
        assert rws_set.primary == "example.com"
        assert rws_set.associated == ["other.com"]


class TestListQueries:
    def test_find_set_for(self, small_list):
        found = small_list.find_set_for("cricbuzz.com")
        assert found is not None and found.primary == "timesinternet.in"
        assert small_list.find_set_for("nothing.net") is None

    def test_related_predicate_paper_example(self, small_list):
        # §2's worked example.
        assert small_list.related("timesinternet.in", "indiatimes.com")
        assert small_list.related("indiatimes.com", "cricbuzz.com")
        assert not small_list.related("indiatimes.com", "bild.de")

    def test_related_reflexive(self, small_list):
        assert small_list.related("nothing.net", "nothing.net")

    def test_related_symmetric(self, small_list):
        for a, b in [("timesinternet.in", "timescdn.net"),
                     ("autobild.de", "bild.de")]:
            assert small_list.related(a, b) == small_list.related(b, a)

    def test_composition(self, small_list):
        composition = small_list.composition()
        assert composition[SiteRole.PRIMARY] == 2
        assert composition[SiteRole.ASSOCIATED] == 3
        assert composition[SiteRole.SERVICE] == 1
        assert composition[SiteRole.CCTLD] == 1

    def test_duplicate_members_detected(self, times_set):
        conflicting = RelatedWebsiteSet(primary="rival.com",
                                        associated=["indiatimes.com"])
        bad_list = RwsList(sets=[times_set, conflicting])
        assert bad_list.duplicate_members() == ["indiatimes.com"]

    def test_a_site_repeated_inside_one_set_is_no_duplicate(self):
        # Sets are counted, not records: one set naming a site twice,
        # in one subset or across two, declares one membership.
        for one_set in (
                RelatedWebsiteSet("a.com", associated=["b.com", "b.com"]),
                RelatedWebsiteSet("a.com", associated=["b.com"],
                                  service=["b.com"])):
            assert RwsList(sets=[one_set]).duplicate_members() == []

    def test_a_primary_shared_by_two_sets_is_a_duplicate(self):
        twice = RwsList(sets=[
            RelatedWebsiteSet("a.com", associated=["b.com", "b.com"]),
            RelatedWebsiteSet("a.com", service=["c.com"])])
        assert twice.duplicate_members() == ["a.com"]

    def test_members_with_role(self, small_list):
        associated = small_list.members_with_role(SiteRole.ASSOCIATED)
        assert {record.site for record in associated} == {
            "indiatimes.com", "cricbuzz.com", "autobild.de",
        }

    def test_primaries_order(self, small_list):
        assert small_list.primaries() == ["timesinternet.in", "bild.de"]

    def test_iteration_and_len(self, small_list):
        assert len(small_list) == 2
        assert [s.primary for s in small_list] == small_list.primaries()


def test_member_record_is_frozen():
    record = MemberRecord(site="a.com", role=SiteRole.ASSOCIATED,
                          set_primary="p.com")
    with pytest.raises(AttributeError):
        record.site = "b.com"  # type: ignore[misc]
