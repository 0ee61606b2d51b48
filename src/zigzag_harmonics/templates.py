"""Templates: alternating signed clusters with multiplicities.

A template is an ordered list of clusters, each a sign with a positive
multiplicity that may be infinite; signs alternate and at least one
cluster is infinite.  A word fits a template when it splits into
consecutive, possibly empty chunks, chunk i carrying cluster i's sign
and at most its multiplicity.  The set of fitting words is downward
closed and saturated: it is the coideal the template stands for.

Finite clusters split into two kinds.  A separating cluster is a
one-symbol cluster strictly inside the template whose two neighbours
are both infinite; every other finite cluster belongs to the flange.
Maximal runs of flange clusters give the flange words a_0 .. a_k and
cut the template into sections t_1 .. t_k, each of which is a template
whose only finite clusters are separating ("finite" templates).
Removing one symbol from a flange cluster and merging any same-sign
neighbours that this exposes yields the reduced templates; the union
of their coideals is the locus where the semifinite evaluations of
:mod:`zigzag_harmonics.semifinite` blow up.  Off that locus a fitting
word fills every flange cluster exactly, so the greedy pass of
:func:`member` also gives its section coordinates; the search over
every splitting is left to :func:`inject_all`, the uniqueness oracle.

Grammar: whitespace-separated tokens, each a sign followed by a
positive integer or '*' for an infinite multiplicity, e.g.
``"+* -1 +1 -*"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .words import MINUS, PLUS, BinaryWord


@dataclass(frozen=True, slots=True)
class Cluster:
    sign: str
    mult: Optional[int]  # None means infinite

    def __post_init__(self) -> None:
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"bad cluster sign {self.sign!r}")
        if self.mult is not None and self.mult < 1:
            raise ValueError(f"finite multiplicity must be >= 1, got {self.mult}")

    @property
    def is_infinite(self) -> bool:
        return self.mult is None

    def __str__(self) -> str:
        return f"{self.sign}{'*' if self.mult is None else self.mult}"


@dataclass(frozen=True, slots=True)
class Template:
    clusters: tuple[Cluster, ...]
    # (sign bit, multiplicity or None) per cluster, read by member
    _runs: tuple[tuple[int, Optional[int]], ...] = field(
        init=False, repr=False, compare=False)
    # per section, its first and one past its last cluster index; filled
    # by _section_spans on first use
    _spans: Optional[tuple[tuple[int, int], ...]] = field(
        default=None, init=False, repr=False, compare=False)
    # filled by reduced_templates on first use
    _reduced: Optional[tuple["Template", ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("template needs at least one cluster")
        for a, b in zip(self.clusters, self.clusters[1:]):
            if a.sign == b.sign:
                raise ValueError(f"clusters must alternate, got {a} {b}")
        if not any(c.is_infinite for c in self.clusters):
            raise ValueError("template needs at least one infinite cluster")
        object.__setattr__(self, "_runs", tuple(
            (1 if c.sign == MINUS else 0, c.mult) for c in self.clusters))

    @staticmethod
    def parse(text: str) -> "Template":
        clusters = []
        for token in text.split():
            sign, mult_text = token[0], token[1:]
            if sign not in (PLUS, MINUS) or not mult_text:
                raise ValueError(f"bad cluster token {token!r}")
            if mult_text == "*":
                clusters.append(Cluster(sign, None))
            else:
                try:
                    mult = int(mult_text)
                except ValueError:
                    raise ValueError(f"bad cluster token {token!r}") from None
                clusters.append(Cluster(sign, mult))
        return Template(tuple(clusters))

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters)

    @property
    def infinite_count(self) -> int:
        return sum(1 for c in self.clusters if c.is_infinite)


def parse_template(text: str) -> Template:
    return Template.parse(text)


# ---------------------------------------------------------------------------
# Cluster classification
# ---------------------------------------------------------------------------

def _is_separating(t: Template, i: int) -> bool:
    c = t.clusters[i]
    if c.is_infinite or c.mult != 1 or i in (0, len(t) - 1):
        return False
    return t.clusters[i - 1].is_infinite and t.clusters[i + 1].is_infinite


def _section_spans(t: Template) -> tuple[tuple[int, int], ...]:
    """Cluster index ranges of the sections: maximal runs of infinite
    and separating clusters.  Computed on first use and stored on t."""
    if t._spans is None:
        spans: list[tuple[int, int]] = []
        for i, c in enumerate(t.clusters):
            if c.is_infinite or _is_separating(t, i):
                if spans and spans[-1][1] == i:
                    spans[-1] = (spans[-1][0], i + 1)
                else:
                    spans.append((i, i + 1))
        object.__setattr__(t, "_spans", tuple(spans))
    return t._spans


def is_finite_template(t: Template) -> bool:
    """True iff every finite cluster is separating."""
    return all(c.is_infinite or _is_separating(t, i) for i, c in enumerate(t.clusters))


def is_semifinite_template(t: Template) -> bool:
    return not is_finite_template(t)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def member(t: Template, w: BinaryWord) -> bool:
    """True iff w splits into chunks fitting t's clusters in order.

    Greedy: each cluster in turn takes the longest run of its sign that
    its multiplicity allows, read off ``w.bits``, and w fits once the
    clusters have consumed all of it.  This is exact because the
    coideal is closed under deletion: if some splitting fits, every
    suffix of the remainder it leaves after a cluster fits the
    remaining clusters, so taking more symbols never hurts.  (By
    induction, the greedy position after each cluster is at least that
    of any fitting splitting.)  Linear in len(w) + len(t).
    """
    bits, n = w.bits, w.n
    pos = 0
    for bit, mult in t._runs:
        rest = bits >> pos
        if bit:
            run = (~rest & (rest + 1)).bit_length() - 1   # trailing ones
        else:
            run = (rest & -rest).bit_length() - 1 if rest else n - pos
        if mult is not None and run > mult:
            run = mult
        pos += run
        if pos == n:
            return True
    return False


def section_coordinates(t: Template, w: BinaryWord) -> Optional[tuple[BinaryWord, ...]]:
    """The chunks of member's greedy pass, joined per section; None when w does not fit.

    Off the blow-up locus these are the coordinates of :func:`inject`:
    there every fitting splitting fills each flange cluster exactly
    (one that leaves a flange cluster short fits the reduced template
    that cuts that cluster down), so the greedy flange chunks are the
    flange words and the section chunks between them are the unique
    section coordinates.  On the locus they mean nothing.
    """
    # member's loop, run to the last cluster to note where each chunk
    # ends; member keeps its own copy with the early exit, as the scans'
    # hot path
    bits, n = w.bits, w.n
    pos = 0
    ends = [0]  # ends[i + 1]: where cluster i's chunk ends
    for bit, mult in t._runs:
        rest = bits >> pos
        if bit:
            run = (~rest & (rest + 1)).bit_length() - 1
        else:
            run = (rest & -rest).bit_length() - 1 if rest else n - pos
        if mult is not None and run > mult:
            run = mult
        pos += run
        ends.append(pos)
    if pos != n:
        return None
    return tuple(w.sub(ends[lo], ends[hi]) for lo, hi in _section_spans(t))


# ---------------------------------------------------------------------------
# Flange and sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlangeDecomposition:
    """Interleaving a_0, t_1, a_1, ..., t_k, a_k; outer words may be empty."""

    flange_words: tuple[BinaryWord, ...]
    sections: tuple[Template, ...]

    def __post_init__(self) -> None:
        if len(self.flange_words) != len(self.sections) + 1:
            raise ValueError("need exactly one more flange word than sections")

    def splittings(self, w: BinaryWord) -> Iterator[tuple[BinaryWord, ...]]:
        """Every a_0 . s_1 . a_1 ... s_k . a_k = w with s_i fitting section i,
        as the tuple (s_1, ..., s_k)."""
        segments: list[tuple[str, object]] = []
        for i, section in enumerate(self.sections):
            if len(self.flange_words[i]):
                segments.append(("lit", self.flange_words[i]))
            segments.append(("sec", section))
        if len(self.flange_words[-1]):
            segments.append(("lit", self.flange_words[-1]))

        n = len(w)
        acc: list[BinaryWord] = []

        def rec(pos: int, si: int) -> Iterator[tuple[BinaryWord, ...]]:
            if si == len(segments):
                if pos == n:
                    yield tuple(acc)
                return
            kind, payload = segments[si]
            if kind == "lit":
                lit: BinaryWord = payload  # type: ignore[assignment]
                if pos + len(lit) <= n and w.sub(pos, pos + len(lit)) == lit:
                    yield from rec(pos + len(lit), si + 1)
            else:
                section: Template = payload  # type: ignore[assignment]
                for end in range(pos, n + 1):
                    piece = w.sub(pos, end)
                    if member(section, piece):
                        acc.append(piece)
                        yield from rec(end, si + 1)
                        acc.pop()

        return rec(0, 0)


def flange_and_sections(t: Template) -> FlangeDecomposition:
    """Split t at its flange into maximal finite-template sections.

    For a finite template the flange is empty and the single section is
    t itself.
    """
    def flange_word(clusters: tuple[Cluster, ...]) -> BinaryWord:
        return BinaryWord.from_str("".join(c.sign * c.mult for c in clusters))

    words: list[BinaryWord] = []
    sections: list[Template] = []
    start = 0
    for lo, hi in _section_spans(t):
        words.append(flange_word(t.clusters[start:lo]))
        sections.append(Template(t.clusters[lo:hi]))
        start = hi
    words.append(flange_word(t.clusters[start:]))
    return FlangeDecomposition(tuple(words), tuple(sections))


# ---------------------------------------------------------------------------
# Reduced templates and the blow-up locus
# ---------------------------------------------------------------------------

def _normalized(clusters: list[Cluster]) -> Template:
    """Merge adjacent same-sign clusters; infinity absorbs any length."""
    merged: list[Cluster] = []
    for c in clusters:
        if merged and merged[-1].sign == c.sign:
            prev = merged.pop()
            if prev.is_infinite or c.is_infinite:
                merged.append(Cluster(c.sign, None))
            else:
                merged.append(Cluster(c.sign, prev.mult + c.mult))
        else:
            merged.append(c)
    return Template(tuple(merged))


def reduced_templates(t: Template) -> tuple[Template, ...]:
    """One symbol removed from each flange cluster, deduplicated.

    Only flange clusters are eligible; separating clusters stay.  When
    a one-symbol flange cluster disappears its two neighbours share a
    sign and merge.  Computed on first use and stored on t.
    """
    if t._reduced is None:
        object.__setattr__(t, "_reduced", _reduce(t))
    return t._reduced


def _reduce(t: Template) -> tuple[Template, ...]:
    out: list[Template] = []
    for i, c in enumerate(t.clusters):
        if c.is_infinite or _is_separating(t, i):
            continue
        cs = list(t.clusters)
        if c.mult > 1:
            cs[i] = Cluster(c.sign, c.mult - 1)
            reduced = Template(tuple(cs))
        else:
            del cs[i]
            reduced = _normalized(cs)
        if reduced not in out:
            out.append(reduced)
    return tuple(out)


def member_J(t: Template, w: BinaryWord) -> bool:
    """True iff w fits some reduced template (always False for finite t)."""
    return any(member(r, w) for r in reduced_templates(t))


# ---------------------------------------------------------------------------
# The injection into the product of sections
# ---------------------------------------------------------------------------

def inject(t: Template, w: BinaryWord) -> tuple[BinaryWord, ...]:
    """Coordinates of w in the product of section coideals.

    Defined on words fitting t but no reduced template; there the
    splitting of the word as a_0 . s_1 . a_1 ... s_k . a_k with s_i
    fitting section i exists and is unique, and taking coordinates is
    an edge-preserving embedding whose image is upward closed.  The
    coordinates are read off the greedy pass of :func:`member` by
    :func:`section_coordinates`; the test suite checks them against
    :func:`inject_all`, the search over every splitting.
    """
    coords = section_coordinates(t, w)
    if coords is None:
        raise ValueError(f"{w} does not fit {t}")
    if member_J(t, w):
        raise ValueError(f"{w} fits a reduced template of {t}")
    return coords


def inject_all(t: Template, w: BinaryWord) -> list[tuple[BinaryWord, ...]]:
    """Every decomposition; used to check the uniqueness claim."""
    return list(flange_and_sections(t).splittings(w))


# ---------------------------------------------------------------------------
# Single-generator word
# ---------------------------------------------------------------------------

def _matches(clusters: tuple[Cluster, ...], pattern: tuple[tuple[str, Optional[int]], ...]) -> bool:
    return (len(clusters) == len(pattern)
            and all(c.sign == s and c.mult == m for c, (s, m) in zip(clusters, pattern)))


_INF = None
_AVOID = (
    ((PLUS, _INF), (MINUS, _INF), (PLUS, 1), (MINUS, _INF), (PLUS, _INF)),
    ((MINUS, _INF), (PLUS, _INF), (MINUS, 1), (PLUS, _INF), (MINUS, _INF)),
)
_NO_PREFIX = (
    ((PLUS, _INF), (MINUS, 1), (PLUS, _INF), (MINUS, _INF)),
    ((MINUS, _INF), (PLUS, 1), (MINUS, _INF), (PLUS, _INF)),
)
_NO_SUFFIX = (
    ((MINUS, _INF), (PLUS, _INF), (MINUS, 1), (PLUS, _INF)),
    ((PLUS, _INF), (MINUS, _INF), (PLUS, 1), (MINUS, _INF)),
)


def single_generator_word(t: Template) -> tuple[BinaryWord, bool]:
    """(a_t, flag): candidate generator word and a sufficient condition.

    a_t drops outermost infinite clusters, shrinks internal infinite
    clusters with an infinite neighbour to one symbol, drops internal
    infinite clusters squeezed between finite ones, and keeps finite
    clusters as they are.  When the flag is true (t avoids the listed
    cluster patterns) the words above a_t inside the coideal are
    exactly those outside every reduced template.  The condition is
    sufficient only; templates failing it may still be generated by a
    single word.
    """
    cs = t.clusters
    last = len(cs) - 1
    kept: list[str] = []
    for i, c in enumerate(cs):
        if c.is_infinite:
            if i in (0, last):
                continue
            if cs[i - 1].is_infinite or cs[i + 1].is_infinite:
                kept.append(c.sign)
            # squeezed between two finite clusters: dropped entirely
        else:
            kept.append(c.sign * c.mult)
    word = BinaryWord.from_str("".join(kept))

    windows = [cs[i:i + 5] for i in range(len(cs) - 4)]
    flag = (not any(_matches(win, pat) for win in windows for pat in _AVOID)
            and not any(_matches(cs[:4], pat) for pat in _NO_PREFIX)
            and not any(_matches(cs[-4:], pat) for pat in _NO_SUFFIX))
    return word, flag


# ---------------------------------------------------------------------------
# Max-block words
# ---------------------------------------------------------------------------

def minimal_maxblock_word(t: Template) -> BinaryWord:
    """Word of t with every infinite cluster shrunk to one symbol."""
    return BinaryWord.from_str(
        "".join(c.sign * (1 if c.is_infinite else c.mult) for c in t.clusters))


def maxblock_member(t: Template, w: BinaryWord) -> bool:
    """Membership in the ideal of words with the most blocks possible.

    One block per cluster, finite clusters filled to their exact
    multiplicity; only the blocks at infinite clusters vary, which
    makes the ideal a Pascal graph in as many dimensions as t has
    infinite clusters.
    """
    blocks = w.blocks()
    if len(blocks) != len(t.clusters):
        return False
    for (sign, length), c in zip(blocks, t.clusters):
        if sign != c.sign:
            return False
        if c.is_infinite:
            if length < 1:
                return False
        elif length != c.mult:
            return False
    return True
