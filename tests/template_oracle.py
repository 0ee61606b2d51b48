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
``member``, ``place`` and ``phi_tw`` share.

``single_generator_word`` proposes one word whose upper set inside the
coideal is the complement of the blow-up locus, with a sufficient
condition for that claim; the tests check it against ``member_J``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from zigzag_harmonics.templates import Cluster, Template, inject_all, member
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
