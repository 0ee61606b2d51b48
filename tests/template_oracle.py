"""Reduced templates built by their definition, kept as a test oracle.

A reduced template of t is t with one symbol removed from one flange
cluster; a one-symbol flange cluster disappears, and the two
neighbours it separated, which share a sign, merge into one cluster.
The blow-up locus is the union of the reduced coideals, and off it
the injection's coordinates are the one splitting that
``templates.inject_all`` finds.  ``templates.place`` decides both
without building a reduced template; these functions build every one
and ask ``member`` of each, so tests can compare the two routes.
"""

from __future__ import annotations

from functools import lru_cache

from zigzag_harmonics.templates import Cluster, Template, inject_all, member
from zigzag_harmonics.words import BinaryWord


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

