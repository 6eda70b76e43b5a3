"""PSL rule model and parser.

The Public Suffix List file format (https://publicsuffix.org/list/) is a
line-oriented text format.  Each non-comment, non-empty line is a *rule*:

* a **normal** rule is a sequence of labels, e.g. ``co.uk``;
* a **wildcard** rule begins with ``*.``, e.g. ``*.ck`` (every direct
  child of ``ck`` is a public suffix);
* an **exception** rule begins with ``!``, e.g. ``!www.ck`` (carves a
  registrable domain out of a wildcard rule).

Rules are matched right-to-left against the labels of a candidate domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class RuleKind(enum.Enum):
    """The three kinds of PSL rule."""

    NORMAL = "normal"
    WILDCARD = "wildcard"
    EXCEPTION = "exception"


@dataclass(frozen=True)
class Rule:
    """A single parsed PSL rule.

    Attributes:
        labels: The rule's labels in *reversed* order (TLD first), which
            is the order in which matching proceeds.  For an exception
            rule the leading ``!`` has been stripped; for a wildcard rule
            the final element is ``"*"``.
        kind: Which of the three rule kinds this is.
        is_private: True if the rule came from the PSL "PRIVATE DOMAINS"
            section (e.g. ``github.io``); some consumers distinguish
            ICANN and private rules.
    """

    labels: tuple[str, ...]
    kind: RuleKind
    is_private: bool = False

    @property
    def match_length(self) -> int:
        """Number of labels this rule contributes to a public suffix.

        Exception rules match one label *fewer* than they contain: the
        exception ``!www.ck`` means the public suffix is ``ck``.
        """
        if self.kind is RuleKind.EXCEPTION:
            return len(self.labels) - 1
        return len(self.labels)

    def matches(self, reversed_labels: tuple[str, ...]) -> bool:
        """Check whether this rule matches a domain.

        Args:
            reversed_labels: The candidate domain's labels, TLD first.

        Returns:
            True when every rule label equals the corresponding domain
            label (``*`` matches any single label) and the domain has at
            least as many labels as the rule.
        """
        if len(reversed_labels) < len(self.labels):
            return False
        for rule_label, domain_label in zip(self.labels, reversed_labels):
            if rule_label != "*" and rule_label != domain_label:
                return False
        return True

    def as_text(self) -> str:
        """Render the rule back to PSL file syntax."""
        body = ".".join(reversed(self.labels))
        if self.kind is RuleKind.EXCEPTION:
            return "!" + body
        return body


def parse_rule(line: str, *, is_private: bool = False) -> Rule:
    """Parse one PSL rule line.

    Args:
        line: A non-comment, non-empty PSL line (whitespace tolerated).
        is_private: Whether the line came from the private section.

    Raises:
        ValueError: If the line is empty, a comment, or malformed.
    """
    text = line.strip()
    if not text:
        raise ValueError("empty PSL rule line")
    if text.startswith("//"):
        raise ValueError(f"comment passed to parse_rule: {text!r}")

    kind = RuleKind.NORMAL
    if text.startswith("!"):
        kind = RuleKind.EXCEPTION
        text = text[1:]
    elif text.startswith("*."):
        kind = RuleKind.WILDCARD

    if not text or text.startswith(".") or text.endswith("."):
        raise ValueError(f"malformed PSL rule: {line!r}")

    labels = tuple(label.lower() for label in reversed(text.split(".")))
    if any(not label for label in labels):
        raise ValueError(f"malformed PSL rule (empty label): {line!r}")
    if kind is RuleKind.EXCEPTION and len(labels) < 2:
        raise ValueError(f"exception rule must have >= 2 labels: {line!r}")
    return Rule(labels=labels, kind=kind, is_private=is_private)


def parse_rules(text: str) -> Iterator[Rule]:
    """Parse a PSL file body into rules.

    Handles the ``===BEGIN PRIVATE DOMAINS===`` /
    ``===END PRIVATE DOMAINS===`` section markers used by the canonical
    list, tagging rules in between as private.

    Args:
        text: The full text of a PSL-format file.

    Yields:
        Parsed :class:`Rule` objects in file order.
    """
    in_private = False
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("//"):
            if "BEGIN PRIVATE DOMAINS" in line:
                in_private = True
            elif "END PRIVATE DOMAINS" in line:
                in_private = False
            continue
        yield parse_rule(line, is_private=in_private)


class SuffixTrie:
    """A compiled reversed-label trie over a PSL rule set.

    The candidate-scan resolver must re-check every bucketed rule with
    :meth:`Rule.matches` (a per-label Python loop) on every lookup.
    Compiling the rules into a trie keyed by reversed labels turns
    resolution into a single O(labels) descent: each node is a
    ``[children, normal, exception, star]`` list where ``children``
    maps the next (more specific) label to a child node, the two
    terminal slots hold ``(rule, seq)`` for a normal/wildcard rule and
    an exception rule ending at that node, and ``star`` is the node's
    ``*`` (wildcard-label) child.  ``seq`` is the rule's position in
    compilation order, which reproduces the scan's first-wins
    tie-break exactly when two rules match at the same depth (e.g.
    ``*.ck`` and a hypothetical ``foo.ck``).

    The hot walk is single-path — one ``children`` probe and one
    ``star`` slot read per level, no allocations.  When a level
    matches *both* an exact child and a wildcard child (e.g.
    ``city.kawasaki.jp`` against ``*.kawasaki.jp`` +
    ``!city.kawasaki.jp``), the walk restarts on the fully general
    multi-path form, which tracks every simultaneously active node —
    rare in real rule sets, and bounded by rule depth.

    The trie is immutable once compiled; :meth:`resolve` is safe to
    call from any number of threads without locking.
    """

    __slots__ = ("_root", "_count")

    def __init__(self, rules: Iterable[Rule]):
        self._root: list = [{}, None, None, None]
        self._count = 0
        for seq, rule in enumerate(rules):
            node = self._root
            for position, label in enumerate(rule.labels):
                # A "*" in TLD position goes into the exact-children
                # dict, not the star slot: the bucketed scan keys its
                # candidate lookup on the literal TLD label, so such a
                # rule can never match a real domain (no valid domain
                # has a "*" label) — the trie reproduces that exactly.
                if label == "*" and position > 0:
                    child = node[3]
                    if child is None:
                        child = [{}, None, None, None]
                        node[3] = child
                else:
                    child = node[0].get(label)
                    if child is None:
                        child = [{}, None, None, None]
                        node[0][label] = child
                node = child
            slot = 2 if rule.kind is RuleKind.EXCEPTION else 1
            if node[slot] is None:
                # First rule with these labels wins ties (scan order).
                node[slot] = (rule, seq)
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def resolve(self, labels: list[str]) -> tuple[Rule | None, int]:
        """The prevailing rule and public-suffix length for a domain.

        Args:
            labels: The domain's labels in display order (TLD last).

        Returns:
            ``(winner, suffix_length)`` — the prevailing :class:`Rule`
            (None when only the implicit ``*`` rule applied) and the
            number of labels in the public suffix.  Identical to
            collecting every matching rule and applying the PSL
            precedence (exception beats all, else longest match, else
            the implicit single-label rule).
        """
        node = self._root
        best: Rule | None = None
        best_depth = 0
        exc: Rule | None = None
        exc_depth = 0
        depth = 0
        i = len(labels)
        while i:
            i -= 1
            depth += 1
            child = node[0].get(labels[i])
            star = node[3]
            if star is None:
                if child is None:
                    break
                node = child
            elif child is None:
                node = star
            else:
                # Both an exact and a wildcard path are live: hand the
                # whole resolution to the multi-path walk.
                return self._resolve_general(labels)
            terminal = node[1]
            if terminal is not None:
                # Depth strictly increases on a single path, so the
                # deepest terminal seen always prevails.
                best = terminal[0]
                best_depth = depth
            terminal = node[2]
            if terminal is not None:
                exc = terminal[0]
                exc_depth = depth
        if exc is not None:
            # An exception rule wins outright and matches one label
            # fewer than it contains.
            return exc, exc_depth - 1
        if best is not None:
            return best, best_depth
        return None, 1  # implicit "*": the bare TLD is the suffix

    def _resolve_general(self, labels: list[str]) -> tuple[Rule | None, int]:
        """Multi-path descent for domains matching exact + wildcard."""
        nodes = [self._root]
        best: Rule | None = None
        best_depth = 0
        best_seq = 0
        exc: Rule | None = None
        exc_depth = 0
        exc_seq = 0
        depth = 0
        for i in range(len(labels) - 1, -1, -1):
            label = labels[i]
            depth += 1
            matched: list = []
            for node in nodes:
                child = node[0].get(label)
                if child is not None:
                    matched.append(child)
                star = node[3]
                if star is not None:
                    matched.append(star)
            if not matched:
                break
            for node in matched:
                terminal = node[1]
                if terminal is not None and (
                        depth > best_depth
                        or (depth == best_depth and terminal[1] < best_seq)):
                    best = terminal[0]
                    best_depth = depth
                    best_seq = terminal[1]
                terminal = node[2]
                if terminal is not None and (
                        depth > exc_depth
                        or (depth == exc_depth and terminal[1] < exc_seq)):
                    exc = terminal[0]
                    exc_depth = depth
                    exc_seq = terminal[1]
            nodes = matched
        if exc is not None:
            return exc, exc_depth - 1
        if best is not None:
            return best, best_depth
        return None, 1


@dataclass
class RuleIndex:
    """Index of rules bucketed by TLD label for fast candidate lookup.

    The PSL algorithm must consider every rule that could match a domain;
    bucketing rules by their first (right-most) label reduces that to a
    handful of candidates per lookup.  :meth:`compile` bakes the same
    rules into a :class:`SuffixTrie` for the serving hot path; the
    bucketed form remains the differential-testing reference.
    """

    _by_tld: dict[str, list[Rule]] = field(default_factory=dict)
    _count: int = 0

    @classmethod
    def from_rules(cls, rules: Iterable[Rule]) -> "RuleIndex":
        index = cls()
        for rule in rules:
            index.add(rule)
        return index

    def add(self, rule: Rule) -> None:
        """Insert a rule into the index."""
        self._by_tld.setdefault(rule.labels[0], []).append(rule)
        self._count += 1

    def candidates(self, reversed_labels: tuple[str, ...]) -> list[Rule]:
        """Rules whose TLD label could match the given domain labels."""
        if not reversed_labels:
            return []
        return self._by_tld.get(reversed_labels[0], [])

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Rule]:
        for bucket in self._by_tld.values():
            yield from bucket

    def compile(self) -> SuffixTrie:
        """Compile the indexed rules into a :class:`SuffixTrie`.

        Iteration order preserves per-bucket (file) order, so the
        trie's tie-breaks match the candidate scan's rule-list order.
        """
        return SuffixTrie(self)
