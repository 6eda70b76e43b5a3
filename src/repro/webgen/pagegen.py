"""Deterministic HTML page generation.

Every page is produced from a :class:`PageBlueprint` derived from the
site's metadata; the same domain always yields byte-identical HTML, so
every measurement in the reproduction is replayable.

Two properties of real pages matter for Figure 4 and are engineered
here explicitly:

* **unrelated sites are dissimilar** — each site samples its own small
  tag pool, page sizes span an order of magnitude, and CSS class names
  embed a domain hash, so cross-site tag/class overlap is minimal
  (matching the paper's median joint similarity of 0.04);
* **strongly-branded members resemble their primary** — STRONG members
  inherit the primary's section template and its *class stream* (a
  position-indexed assignment of CSS classes, i.e. a shared design
  system) with a small amount of local divergence, so a minority of
  member pages score high, as in the paper's CDF tails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import sha256
from repro.data.sites import BrandingLevel, SiteSpec

# Superset of content tags; each site samples its own small pool, so
# two unrelated sites share few tags and diverge structurally.
_TAG_SUPERSET = (
    "article", "aside", "blockquote", "button", "code", "dd", "dl", "dt",
    "em", "figcaption", "figure", "form", "h2", "h3", "h4", "hr", "img",
    "input", "label", "li", "ol", "p", "pre", "small", "span", "strong",
    "table", "td", "textarea", "time", "tr", "ul", "video",
)

_WORDS = (
    "latest", "update", "feature", "report", "community", "member", "story",
    "review", "guide", "insight", "detail", "summary", "analysis", "service",
    "product", "offer", "special", "season", "local", "global", "market",
    "team", "project", "series", "event", "release", "edition", "daily",
)

_LOREM = (
    "The quick overview covers what changed this week and why it matters.",
    "Readers can explore the archive for earlier coverage of this topic.",
    "Our editors select the most relevant items for the front page.",
    "Sign in to save items and follow topics that interest you.",
    "This section is updated throughout the day as news develops.",
    "More detail is available on the dedicated topic pages below.",
)

# Class-stream geometry: each template section owns a fixed-size slot of
# the stream, so sections shared between a primary and a STRONG member
# consume identical class runs regardless of which sections were kept.
_STREAM_STRIDE = 24
_MAX_TEMPLATE_SECTIONS = 100
_CHROME_BASE = _STREAM_STRIDE * _MAX_TEMPLATE_SECTIONS
_STREAM_LENGTH = _CHROME_BASE + 64

# Fraction of inherited class-stream entries a STRONG member localises.
_MEMBER_STREAM_NOISE = 0.08


def _seed_for(domain: str) -> int:
    """A stable per-domain seed (independent of PYTHONHASHSEED)."""
    digest = sha256(domain.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _class_vocabulary(domain: str, size: int) -> list[str]:
    """A site-specific CSS class vocabulary.

    Class names embed a short domain hash so two unrelated sites share
    no classes at all, which drives style similarity to ~0 for
    unrelated pairs.
    """
    tag = sha256(domain.encode("ascii")).hexdigest()[:6]
    stems = ("wrap", "row", "col", "card", "item", "box", "head", "body",
             "foot", "list", "link", "text", "media", "meta", "cta", "grid")
    vocabulary = []
    for i in range(size):
        stem = stems[i % len(stems)]
        vocabulary.append(f"{stem}-{tag}-{i // len(stems)}")
    return vocabulary


def _class_stream(domain: str, classes: list[str]) -> list[str]:
    """The site's position-indexed class assignment (its design system)."""
    rng = random.Random(_seed_for(domain) ^ 0xC1A55)
    return [rng.choice(classes) for _ in range(_STREAM_LENGTH)]


@dataclass
class PageBlueprint:
    """Everything needed to render one site's homepage.

    Attributes:
        spec: The site's catalog entry.
        primary_spec: The site's set primary's entry (None for sites
            not in any set, or for the primary itself).
        org_for_branding: Organisation name used in branding surfaces.
        sections: ``(template_index, tags)`` pairs; the tags are each
            section's element run and the template index addresses the
            section's slot in the class stream.
        class_stream: Position-indexed CSS class assignment.
        own_classes: The site's own CSS vocabulary.
        shared_classes: Classes inherited from the primary's design
            system (STRONG branding only; informational).
        theme_color: Declared theme color.
    """

    spec: SiteSpec
    primary_spec: SiteSpec | None = None
    org_for_branding: str = ""
    sections: list[tuple[int, list[str]]] = field(default_factory=list)
    class_stream: list[str] = field(default_factory=list)
    own_classes: list[str] = field(default_factory=list)
    shared_classes: list[str] = field(default_factory=list)
    theme_color: str = "#336699"


class PageGenerator:
    """Renders deterministic HTML for catalog sites.

    Args:
        year: The copyright year rendered into footers.
    """

    def __init__(self, year: int = 2024):
        self.year = year

    # -- blueprint ---------------------------------------------------------

    def blueprint(self, spec: SiteSpec,
                  primary_spec: SiteSpec | None = None) -> PageBlueprint:
        """Derive a blueprint for a site.

        Args:
            spec: The site to render.
            primary_spec: Its set primary (for member sites); None for
                primaries and non-set sites.
        """
        rng = random.Random(_seed_for(spec.domain))
        own_classes = _class_vocabulary(spec.domain, rng.randint(14, 40))
        sections = list(enumerate(self._structure(spec.domain)))
        class_stream = _class_stream(spec.domain, own_classes)

        shared: list[str] = []
        theme = f"#{_seed_for(spec.domain) % 0xFFFFFF:06x}"
        is_member_with_primary = (
            primary_spec is not None and primary_spec.domain != spec.domain
        )
        if is_member_with_primary and spec.branding is BrandingLevel.STRONG:
            assert primary_spec is not None
            primary_classes = _class_vocabulary(
                primary_spec.domain,
                random.Random(_seed_for(primary_spec.domain)).randint(14, 40),
            )
            share_count = max(4, len(primary_classes) // 3)
            shared = primary_classes[:share_count]
            theme = f"#{_seed_for(primary_spec.domain) % 0xFFFFFF:06x}"
            # STRONG members are built from the primary's template: they
            # reuse its section structure and design-system class stream
            # with small local edits.
            sections = self._derive_structure(primary_spec.domain,
                                              spec.domain)
            class_stream = self._derive_stream(
                primary_spec.domain, primary_classes, spec.domain, own_classes,
            )

        return PageBlueprint(
            spec=spec,
            primary_spec=primary_spec,
            org_for_branding=spec.organization,
            sections=sections,
            class_stream=class_stream,
            own_classes=own_classes,
            shared_classes=shared,
            theme_color=theme,
        )

    def _structure(self, domain: str) -> list[list[str]]:
        """The site's own page structure: sampled tag pool + sections.

        Page sizes span an order of magnitude and tag pools are small
        per-site samples of the superset, so unrelated pages have low
        tag-sequence overlap — as crawled pages do.
        """
        rng = random.Random(_seed_for(domain) ^ 0x5DEECE66D)
        pool = rng.sample(_TAG_SUPERSET, k=rng.randint(3, 7))
        wrapper = rng.choice(("section", "div", "article", "aside"))
        heading = rng.choice(("h2", "h3", "h4", "strong"))
        section_count = rng.randint(8, 80)
        return [
            [wrapper, heading]
            + [rng.choice(pool) for _ in range(rng.randint(2, 12))]
            for _ in range(section_count)
        ]

    def _derive_structure(self, primary_domain: str,
                          member_domain: str) -> list[tuple[int, list[str]]]:
        """A member structure derived from the primary's template.

        Keeps most of the primary's sections (retaining their template
        indices, and therefore their class-stream slots), and appends a
        few member-specific ones — high but imperfect structural
        similarity, like a shared CMS theme.
        """
        base = self._structure(primary_domain)
        rng = random.Random(_seed_for(member_domain) ^ 0x0BADC0DE)
        kept = [(index, list(section)) for index, section in enumerate(base)
                if rng.random() < 0.8]
        extra = self._structure(member_domain)
        extra_count = max(1, len(extra) // 6)
        next_index = len(base)
        for offset, section in enumerate(extra[:extra_count]):
            kept.append((min(next_index + offset,
                             _MAX_TEMPLATE_SECTIONS - 1), section))
        return kept or [(0, ["section", "h2", "p", "a"])]

    def _derive_stream(self, primary_domain: str, primary_classes: list[str],
                       member_domain: str,
                       own_classes: list[str]) -> list[str]:
        """The member's class stream: the primary's, locally diverged."""
        stream = _class_stream(primary_domain, primary_classes)
        rng = random.Random(_seed_for(member_domain) ^ 0x57EA11)
        return [
            rng.choice(own_classes)
            if rng.random() < _MEMBER_STREAM_NOISE else entry
            for entry in stream
        ]

    # -- rendering -------------------------------------------------------------

    def homepage(self, blueprint: PageBlueprint) -> str:
        """Render the site's homepage HTML."""
        spec = blueprint.spec
        rng = random.Random(_seed_for(spec.domain) ^ 0x9E3779B97F4A7C15)
        stream = blueprint.class_stream

        chrome_cursor = [_CHROME_BASE]

        def chrome_cls(count: int = 1) -> str:
            picks = []
            for _ in range(count):
                picks.append(stream[chrome_cursor[0] % len(stream)])
                chrome_cursor[0] += 1
            return " ".join(picks)

        parts: list[str] = []
        parts.append("<!DOCTYPE html>")
        parts.append(f'<html lang="{spec.language}">')
        parts.append("<head>")
        parts.append(f"<title>{spec.brand} — {spec.domain}</title>")
        parts.append(f'<meta name="theme-color" content="{blueprint.theme_color}">')
        if spec.branding is BrandingLevel.STRONG or blueprint.primary_spec is None:
            parts.append(
                f'<meta property="og:site_name" '
                f'content="{blueprint.org_for_branding}">'
            )
        else:
            parts.append(f'<meta property="og:site_name" content="{spec.brand}">')
        parts.append("</head>")
        parts.append("<body>")

        # Header with logo/branding.
        parts.append(f'<header class="{chrome_cls(2)}">')
        if spec.branding is BrandingLevel.STRONG or blueprint.primary_spec is None:
            logo_text = blueprint.org_for_branding
        else:
            logo_text = spec.brand
        parts.append(f'<div id="logo" class="brand {chrome_cls()}">{logo_text}</div>')
        parts.append(f'<nav class="{chrome_cls()}">')
        nav_labels = ("Home", "Topics", "Contact", "Archive", "Team",
                      "Press", "Jobs")[: rng.randint(1, 7)]
        for label in nav_labels:
            parts.append(
                f'<a class="{chrome_cls()}" href="/{label.lower()}">{label}</a>'
            )
        parts.append('<a href="/about">About</a>')
        parts.append("</nav>")
        parts.append("</header>")

        # Content sections from the blueprint's structural identity.
        # The first two tags of each section are its wrapper and heading
        # (chosen per-site); classes come from the section's slot of the
        # class stream, so shared template sections share class runs.
        parts.append(f'<main class="{chrome_cls()}">')
        for index, section_tags in blueprint.sections:
            slot = index * _STREAM_STRIDE
            offset = [0]

            def section_cls(count: int = 1) -> str:
                picks = []
                for _ in range(count):
                    position = slot + (offset[0] % _STREAM_STRIDE)
                    picks.append(stream[position % len(stream)])
                    offset[0] += 1
                return " ".join(picks)

            wrapper, heading = section_tags[0], section_tags[1]
            parts.append(f'<{wrapper} class="{section_cls(2)}">')
            heading_word = _WORDS[(index * 7 + len(spec.domain)) % len(_WORDS)]
            parts.append(
                f"<{heading}>{heading_word.title()} {index + 1}</{heading}>"
            )
            for tag in section_tags[2:]:
                sentence = _LOREM[(index + len(tag)) % len(_LOREM)]
                if tag in ("img", "source", "input", "hr"):
                    parts.append(
                        f'<{tag} class="{section_cls()}" alt="{heading_word}"/>'
                    )
                elif tag == "a":
                    parts.append(
                        f'<a class="{section_cls()}" href="/{heading_word}">'
                        f"{sentence[:24]}</a>"
                    )
                else:
                    parts.append(
                        f'<{tag} class="{section_cls()}">{sentence}</{tag}>'
                    )
            parts.append(f"</{wrapper}>")
        parts.append("</main>")

        # Footer: the key branding surface.
        parts.append(f'<footer class="{chrome_cls(2)}">')
        if blueprint.primary_spec is None or spec.branding is BrandingLevel.STRONG:
            parts.append(
                f"<p>© {self.year} {blueprint.org_for_branding}. "
                f"All rights reserved.</p>"
            )
        elif spec.branding is BrandingLevel.WEAK:
            parts.append(
                f"<p>© {self.year} {spec.brand}. "
                f"Part of the {blueprint.org_for_branding} family.</p>"
            )
        else:
            parts.append(f"<p>© {self.year} {spec.brand}.</p>")
        parts.append('<a href="/about">About us</a>')
        parts.append("</footer>")
        parts.append("</body>")
        parts.append("</html>")
        return "\n".join(parts)

    def about_page(self, blueprint: PageBlueprint) -> str:
        """Render the site's /about page.

        STRONG- and WEAK-branded members disclose the owning
        organisation here (the "about page" cue 47.6% of survey
        respondents reported using); NONE members do not.
        """
        spec = blueprint.spec
        lines = [
            "<!DOCTYPE html>",
            f'<html lang="{spec.language}"><head>'
            f"<title>About — {spec.brand}</title></head><body>",
            f"<h1>About {spec.brand}</h1>",
        ]
        if blueprint.primary_spec is None:
            lines.append(
                f"<p>{spec.brand} is operated by "
                f"{blueprint.org_for_branding}.</p>"
            )
        elif spec.branding in (BrandingLevel.STRONG, BrandingLevel.WEAK):
            assert blueprint.primary_spec is not None
            lines.append(
                f"<p>{spec.brand} is part of {blueprint.org_for_branding}, "
                f"which also operates {blueprint.primary_spec.brand} "
                f"({blueprint.primary_spec.domain}).</p>"
            )
        else:
            lines.append(f"<p>{spec.brand} is an independent website.</p>")
        lines.append("</body></html>")
        return "\n".join(lines)
