"""Reduced templates built by their definition, kept as a test oracle.

A reduced template of t is t with one symbol removed from one flange
cluster; a one-symbol flange cluster disappears, and the two
neighbours it separated, which share a sign, merge into one cluster.
The blow-up locus is the union of the reduced coideals, and off it
the injection's coordinates are the one splitting that
``templates.inject_all`` finds.  ``templates.place`` decides both
without building a reduced template; these functions build every one
and ask ``member`` of each, so tests can compare the two routes.

``template_regex`` reads a coideal as a regular expression over the
word's text, so membership can be checked without the greedy loop that
``member``, ``place`` and ``phi_tw`` share.  ``splittings`` uses it to
find every decomposition of a word into flange words and section
pieces by trying every cut of its text, the search that
``templates.inject_all`` makes on packed bits.

``alternating_templates`` draws random templates for property tests:
one to six alternating clusters of multiplicity 1, 2, 3 or *, at least
one of them infinite.  ``sweep_models`` lists every semifinite
alternating template of one to five clusters of multiplicity 1, 2 or *,
578 of them, each as a growth model with seeded random weights.

``single_generator_word`` proposes one word whose upper set inside the
coideal is the complement of the blow-up locus, with a sufficient
condition for that claim; the tests check it against ``member_J``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product
from typing import Optional

from hypothesis import strategies as st

from zigzag_harmonics.semifinite import GrowthModel
from zigzag_harmonics.templates import Cluster, Template, inject_all, is_finite_template, member
from zigzag_harmonics.words import MINUS, PLUS, BinaryWord


def is_flange(t: Template, i: int) -> bool:
    """Finite and not a one-symbol cluster strictly inside between two infinite ones."""
    c = t.clusters[i]
    if c.is_infinite:
        return False
    inside = 0 < i < len(t) - 1
    return not (c.mult == 1 and inside and t.clusters[i - 1].is_infinite
                and t.clusters[i + 1].is_infinite)


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


@lru_cache(maxsize=512)
def reduced_templates(t: Template) -> tuple[Template, ...]:
    """One symbol removed from each flange cluster in turn, deduplicated.

    Kept per template, since the tests ask it of every word in turn."""
    out: list[Template] = []
    for i, c in enumerate(t.clusters):
        if not is_flange(t, i):
            continue
        cs = list(t.clusters)
        if c.mult > 1:
            cs[i] = Cluster(c.sign, c.mult - 1)
        else:
            del cs[i]
        reduced = _normalized(cs)
        if reduced not in out:
            out.append(reduced)
    return tuple(out)


def locus_by_reduction(t: Template, w: BinaryWord) -> bool:
    """True iff w fits some reduced template of t."""
    return any(member(r, w) for r in reduced_templates(t))


def inject_by_reduction(t: Template, w: BinaryWord) -> tuple[BinaryWord, ...]:
    """The one splitting of w into section coordinates, where it is defined."""
    if not member(t, w):
        raise ValueError(f"{w} does not fit {t}")
    if locus_by_reduction(t, w):
        raise ValueError(f"{w} fits a reduced template of {t}")
    (coords,) = inject_all(t, w)
    return coords


def template_regex(t: Template) -> re.Pattern:
    """The words fitting t, as text: per cluster a run of its sign of at
    most its multiplicity (``+3`` gives ``\\+{0,3}``, ``-*`` gives
    ``\\-*``).  Match with ``fullmatch``."""
    return re.compile("".join(
        re.escape(c.sign) + ("*" if c.is_infinite else f"{{0,{c.mult}}}")
        for c in t.clusters))


def splittings(t: Template, w: BinaryWord) -> list[tuple[BinaryWord, ...]]:
    """Every a_0 . s_1 . a_1 ... s_k . a_k = w with s_i fitting section i,
    as the tuple (s_1, ..., s_k), in increasing order of the cuts.

    Maximal runs of clusters that ``is_flange`` marks are the flange
    words, each of which a piece must equal exactly; the runs between
    them are the sections, each piece of which must ``fullmatch`` the
    section's ``template_regex``.  Every cut of w's text into that many
    pieces is tried, so nothing here shares code with ``inject_all``."""
    parts = []  # (section?, the test a piece of text must pass)
    for flange, run in groupby(range(len(t)), key=lambda i: is_flange(t, i)):
        clusters = tuple(t.clusters[i] for i in run)
        if flange:
            parts.append((False, "".join(c.sign * c.mult for c in clusters).__eq__))
        else:
            parts.append((True, template_regex(Template(clusters)).fullmatch))
    text = str(w)
    found = []
    for cuts in combinations_with_replacement(range(len(text) + 1), len(parts) - 1):
        bounds = (0, *cuts, len(text))
        pieces = [text[a:b] for a, b in zip(bounds, bounds[1:])]
        if all(fits(piece) for (_, fits), piece in zip(parts, pieces)):
            found.append(tuple(BinaryWord.from_str(piece)
                               for (section, _), piece in zip(parts, pieces) if section))
    return found


@st.composite
def alternating_templates(draw) -> Template:
    k = draw(st.integers(1, 6))
    first = draw(st.sampled_from("+-"))
    mults = draw(st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=k, max_size=k))
    if None not in mults:
        mults[draw(st.integers(0, k - 1))] = None
    signs = [first if i % 2 == 0 else ("-" if first == "+" else "+") for i in range(k)]
    return Template(tuple(Cluster(s, m) for s, m in zip(signs, mults)))


def sweep_models(seed: int = 6) -> list[GrowthModel]:
    """Every alternating template of one to five clusters of multiplicity
    1, 2 or *, either sign first, with an infinite cluster and a flange;
    each infinite cluster weighs an integer from 1 to 9, drawn from
    ``random.Random(seed)``, over their sum."""
    rng = random.Random(seed)
    models = []
    for k in range(1, 6):
        for first, mults in product((PLUS, MINUS), product((1, 2, None), repeat=k)):
            if None not in mults:
                continue
            signs = (first, MINUS if first == PLUS else PLUS)
            t = Template(tuple(Cluster(signs[i % 2], m) for i, m in enumerate(mults)))
            if is_finite_template(t):
                continue
            draws = [rng.randint(1, 9) for _ in range(t.infinite_count)]
            models.append(GrowthModel(t, tuple(Fraction(d, sum(draws)) for d in draws)))
    return models


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
