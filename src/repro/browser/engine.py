"""The browser engine: visits, frames, and requestStorageAccess.

This is the executable form of the paper's §2 walk-through: with RWS,
``timesinternet.in`` can embed an iframe from ``indiatimes.com``, the
iframe calls ``requestStorageAccess()``, and — because the two sites
share a set — Chrome grants unpartitioned storage without asking the
user, letting both sites link the visit to one identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.browser.cookies import Cookie, CookieJar
from repro.browser.page import Frame, Page
from repro.browser.policy import BrowserPolicy, GrantDecision, PromptBehavior
from repro.browser.storage import PartitionedStorage
from repro.psl import PublicSuffixList, default_psl
from repro.rws.model import RwsList, SiteRole
from repro.serve.epoch import Epoch
from repro.serve.index import MembershipIndex


@dataclass
class Browser:
    """One browser profile.

    Args:
        policy: The browser's partitioning/storage-access policy.
        rws_list: The RWS list consulted when ``policy.rws_enabled``.
            Compiled into a :class:`MembershipIndex` on first use, the
            way Chrome consumes the component-updater payload — call
            :meth:`refresh_rws_index` after mutating the list in place.
        psl: Public suffix list for site computation.
        prompt_responses: Scripted user answers to storage-access
            prompts, keyed by (top_site, embedded_site); unscripted
            prompts are declined (the conservative default).
    """

    policy: BrowserPolicy
    rws_list: RwsList = field(default_factory=RwsList)
    psl: PublicSuffixList = field(default_factory=default_psl)
    prompt_responses: dict[tuple[str, str], bool] = field(default_factory=dict)

    storage: PartitionedStorage = field(default_factory=PartitionedStorage)
    cookies: CookieJar = field(default_factory=CookieJar)
    interacted_sites: set[str] = field(default_factory=set)
    grant_log: list[tuple[str, str, GrantDecision]] = field(default_factory=list)
    _autogrants_used: dict[str, set[str]] = field(default_factory=dict)
    _rws_index: MembershipIndex | None = field(default=None, init=False,
                                               repr=False)

    @property
    def rws_index(self) -> MembershipIndex:
        """The compiled membership index over ``rws_list``."""
        if self._rws_index is None:
            self._rws_index = MembershipIndex.from_list(self.rws_list)
        return self._rws_index

    def refresh_rws_index(self) -> None:
        """Recompile the index (after an in-place ``rws_list`` update)."""
        self._rws_index = None

    def adopt_index(self, index: MembershipIndex) -> None:
        """Serve storage-access decisions from a pre-compiled index.

        Real deployments compile the component-updater payload once and
        share it across every profile on the machine; workload drivers
        simulate thousands of browsers against one served snapshot and
        must not pay one index compilation per browser.  The adopted
        index replaces ``rws_list`` as the source of truth until
        :meth:`refresh_rws_index` drops it.
        """
        self._rws_index = index

    def adopt_epoch(self, epoch: Epoch) -> None:
        """Serve storage-access decisions from a serving epoch.

        The epoch-handle form of :meth:`adopt_index` — the browser
        consumes the same immutable (index, snapshot, version) unit
        the serving layer and its replicas swap, exactly how Chrome
        consumes one component-updater payload generation.  Because an
        epoch is never mutated, the browser's decisions stay pinned to
        the generation it adopted until the caller hands it a newer
        one (or :meth:`refresh_rws_index` drops it).
        """
        self._rws_index = epoch.index

    # -- navigation -----------------------------------------------------------

    def visit(self, host: str, *, interact: bool = True) -> Page:
        """Navigate a tab to a host's site.

        Args:
            host: Host being visited (reduced to its site).
            interact: Whether the user interacts with the page (clicks,
                scrolls) — tracked because parts of the RWS policy
                depend on prior interaction with set members.

        Returns:
            The new top-level page.

        Raises:
            ValueError: If the host has no registrable domain.
        """
        site = self.psl.etld_plus_one(host)
        if site is None:
            raise ValueError(f"cannot visit a bare public suffix: {host!r}")
        if interact:
            self.interacted_sites.add(site)
        return Page(site=site)

    def resolve_sites(self, hosts: list[str]) -> list[str | None]:
        """Batch host → site resolution through the engine's PSL.

        One bulk PSL call (lock-free cache probes, a single write-lock
        promotion for cold hosts) instead of a resolution per host;
        unresolvable hosts — invalid names or bare public suffixes —
        come back as None, the way the engine treats them everywhere.
        """
        return self.psl.etld_plus_one_many(hosts)

    def visit_with_embeds(
        self, top_host: str, embed_hosts: list[str], *,
        interact: bool = True,
    ) -> tuple[Page, list[str | None]]:
        """Navigate to a page and resolve its embedded hosts in one call.

        A page load is the browser's natural resolution batch: the
        top-level host and every embedded frame's host reduce to sites
        together, so the engine makes one bulk PSL call for all of them
        rather than looping :meth:`visit` plus one resolution per
        embed.  Embeds that do not resolve map to None — callers skip
        those frames, matching per-embed behaviour.

        Args:
            top_host: Host being visited (reduced to its site).
            embed_hosts: Hosts of the page's embedded frames.
            interact: Whether the user interacts with the page.

        Returns:
            The new top-level page and the embeds' sites, in order.

        Raises:
            ValueError: If the top-level host has no registrable
                domain (invalid hosts included — an unloadable page).
        """
        sites = self.psl.etld_plus_one_many([top_host, *embed_hosts])
        top_site = sites[0]
        if top_site is None:
            raise ValueError(f"cannot visit a bare public suffix: {top_host!r}")
        if interact:
            self.interacted_sites.add(top_site)
        return Page(site=top_site), sites[1:]

    # -- storage access -------------------------------------------------------

    def request_storage_access(self, frame: Frame, *,
                               user_gesture: bool = True) -> GrantDecision:
        """Handle a frame's ``document.requestStorageAccess()`` call.

        Decision ladder (mirroring Chrome-with-RWS semantics, and each
        other browser's via the policy object):

        1. same-site frames trivially have access;
        2. unpartitioned profiles have nothing to grant — access already;
        3. the API requires a user gesture in the frame;
        4. with RWS enabled and both sites in the same set: auto-grant,
           except that *service* sites cannot be the top-level site of a
           grant, and an embedded non-service member requires prior
           user interaction with some member of the set;
        5. otherwise fall back to the policy's prompt behaviour.

        Returns:
            The decision; granting decisions set
            ``frame.has_storage_access``.
        """
        top_site = frame.page.site
        embedded = frame.site

        if not frame.is_cross_site:
            frame.has_storage_access = True
            return self._log(top_site, embedded, GrantDecision.GRANTED_SAME_SITE)

        if not self.policy.partitions_by_default:
            frame.has_storage_access = True
            return self._log(top_site, embedded,
                             GrantDecision.GRANTED_UNPARTITIONED)

        if not user_gesture:
            return self._log(top_site, embedded,
                             GrantDecision.DENIED_NO_USER_GESTURE)

        if self.policy.rws_enabled and self.rws_index.related(top_site, embedded):
            decision = self._decide_rws(top_site, embedded)
            if decision.granted:
                frame.has_storage_access = True
            return self._log(top_site, embedded, decision)

        decision = self._decide_prompt(top_site, embedded)
        if decision.granted:
            frame.has_storage_access = True
        return self._log(top_site, embedded, decision)

    def request_storage_access_for(self, page: Page, embedded_site: str, *,
                                   user_gesture: bool = True) -> GrantDecision:
        """Handle a top-level ``document.requestStorageAccessFor()`` call.

        Chrome ships this alongside RWS: a top-level site may request
        unpartitioned access *on behalf of* an embedded site (e.g. to
        let cross-set images/scripts carry credentials before any
        iframe exists).  There is no prompt fallback — the call only
        succeeds for same-site targets, unpartitioned profiles, or
        same-RWS-set members under the usual RWS constraints.

        Granting marks the site on the page, so frames embedded from it
        afterwards start with storage access.
        """
        embedded = self.psl.etld_plus_one(embedded_site)
        if embedded is None:
            raise ValueError(
                f"cannot request access for a bare public suffix: "
                f"{embedded_site!r}"
            )
        top_site = page.site

        if embedded == top_site:
            page.granted_sites.add(embedded)
            return self._log(top_site, embedded,
                             GrantDecision.GRANTED_SAME_SITE)
        if not self.policy.partitions_by_default:
            page.granted_sites.add(embedded)
            return self._log(top_site, embedded,
                             GrantDecision.GRANTED_UNPARTITIONED)
        if not user_gesture:
            return self._log(top_site, embedded,
                             GrantDecision.DENIED_NO_USER_GESTURE)
        if self.policy.rws_enabled and self.rws_index.related(top_site,
                                                              embedded):
            decision = self._decide_rws(top_site, embedded)
            if decision.granted:
                page.granted_sites.add(embedded)
            return self._log(top_site, embedded, decision)
        return self._log(top_site, embedded, GrantDecision.DENIED_POLICY)

    def _decide_rws(self, top_site: str, embedded: str) -> GrantDecision:
        rws_set = self.rws_index.set_for(top_site)
        assert rws_set is not None  # related() established membership
        if rws_set.role_of(top_site) is SiteRole.SERVICE:
            # Service sites support other members; they cannot be the
            # top-level context of a storage-access grant.
            return GrantDecision.DENIED_SERVICE_TOP_LEVEL
        embedded_role = rws_set.role_of(embedded)
        if embedded_role is not SiteRole.SERVICE:
            # Non-service members require that the user has interacted
            # with some member of the set before the silent grant.
            members = set(rws_set.members())
            if not (members & self.interacted_sites):
                return GrantDecision.DENIED_POLICY
        return GrantDecision.GRANTED_RWS

    def _decide_prompt(self, top_site: str, embedded: str) -> GrantDecision:
        behavior = self.policy.prompt_behavior
        if behavior is PromptBehavior.NEVER_PROMPT_DENY:
            return GrantDecision.DENIED_POLICY
        if behavior is PromptBehavior.NO_PARTITIONING:
            return GrantDecision.GRANTED_UNPARTITIONED
        if behavior is PromptBehavior.PROMPT_WITH_AUTOGRANT:
            used = self._autogrants_used.setdefault(top_site, set())
            if embedded in used:
                return GrantDecision.GRANTED_AUTO
            if len(used) < self.policy.autogrant_quota \
                    and embedded in self.interacted_sites:
                used.add(embedded)
                return GrantDecision.GRANTED_AUTO
        answer = self.prompt_responses.get((top_site, embedded), False)
        if answer:
            return GrantDecision.GRANTED_PROMPT
        return GrantDecision.DENIED_PROMPT_DECLINED

    def _log(self, top_site: str, embedded: str,
             decision: GrantDecision) -> GrantDecision:
        self.grant_log.append((top_site, embedded, decision))
        return decision

    # -- script-visible storage ---------------------------------------------------

    def frame_set_item(self, frame: Frame, name: str, value: str) -> None:
        """Script in a frame writes localStorage."""
        partitioned = self.policy.partitions_by_default
        self.storage.set(frame.storage_key(partitioned), name, value)

    def frame_get_item(self, frame: Frame, name: str) -> str | None:
        """Script in a frame reads localStorage."""
        partitioned = self.policy.partitions_by_default
        return self.storage.get(frame.storage_key(partitioned), name)

    def frame_set_cookie(self, frame: Frame, name: str, value: str) -> None:
        """Script in a frame sets a cookie."""
        partitioned = self.policy.partitions_by_default
        key = frame.storage_key(partitioned)
        self.cookies.set(Cookie(
            name=name, value=value, site=key.site, partition=key.partition,
        ))

    def frame_get_cookie(self, frame: Frame, name: str) -> str | None:
        """Script in a frame reads a cookie."""
        partitioned = self.policy.partitions_by_default
        key = frame.storage_key(partitioned)
        cookie = self.cookies.get(key.site, key.partition, name)
        return cookie.value if cookie is not None else None

    def page_set_cookie(self, page: Page, name: str, value: str) -> None:
        """The top-level document sets a first-party cookie."""
        key = page.storage_key()
        self.cookies.set(Cookie(
            name=name, value=value, site=key.site, partition=key.partition,
        ))
