"""Whole levels of words and level-by-level expansions, kept as test oracles.

``enumerate_level(n)`` lists all 2^n words of n symbols in
lexicographic order ('+' < '-') by parsing the strings that
``itertools.product`` yields.  It shares nothing with the prefix walk
of ``words.words_below`` beyond ``BinaryWord.from_str``, so tests can
compare the walk, filtered or not, against it.

``expand`` pushes a vertex up to a level through the cover relations,
as a combination of ``BinaryWord`` keys with ``Fraction`` coefficients;
``dominates_at`` compares two such expansions at one level, and
``first_certified_level`` asks it level after level, expanding from
the base each time.  Together they are the oracle of
``words.dominates_search``, which pushes one signed layer of packed
integer path counts up one level at a time and takes its restriction
on a word's length and packed bits; the tests wrap these word filters
for it.

``word_of_composition`` builds a word from its row lengths, the
inverse of ``words.composition_of_word``; the polynomial oracle names
its product terms by compositions through it.  ``composition_by_text``
is the definition of ``words.composition_of_word`` on the word's text,
which the packed version reads off the bits instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Optional

from zigzag_harmonics.words import (MINUS, PLUS, BinaryWord, FormalCombination,
                                    Vertex, level, upper_covers)

Filter = Optional[Callable[[BinaryWord], bool]]


def enumerate_level(nsymbols: int) -> list[BinaryWord]:
    """All 2^n words of the given length in lexicographic order ('+' < '-')."""
    return [BinaryWord.from_str("".join(symbols))
            for symbols in product("+-", repeat=nsymbols)]


def word_of_composition(parts: Iterable[int]) -> BinaryWord:
    """Row lengths to word: lambda_i - 1 pluses per row, one minus between rows."""
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"composition parts must be >= 1, got {parts}")
    return BinaryWord.from_str(MINUS.join(PLUS * (p - 1) for p in parts))


def composition_by_text(w: BinaryWord) -> tuple[int, ...]:
    """Row lengths: each '-' starts a row, each '+' adds a box to one."""
    return tuple(len(row) + 1 for row in str(w).split(MINUS))


def expand(v: Vertex, n: int, within: Filter = None) -> FormalCombination:
    """Push v up to level n through the defining relations.

    The coefficient at each level-n vertex equals the number of paths
    from v inside the (optionally restricted) graph.  ``within`` keeps
    only covers satisfying the predicate, which computes expansions
    inside a coideal such as the words fitting a template.
    """
    if n < level(v):
        raise ValueError(f"cannot expand level {level(v)} vertex down to level {n}")
    layer: dict[Vertex, Fraction] = {v: Fraction(1)}
    for _ in range(n - level(v)):
        nxt: dict[Vertex, Fraction] = {}
        for u, c in layer.items():
            for w in upper_covers(u):
                if within is None or within(w):
                    nxt[w] = nxt.get(w, Fraction(0)) + c
        layer = nxt
    return FormalCombination(n, layer)


def dominates_at(a: Vertex, comb: FormalCombination, at_level: Optional[int] = None,
                 within: Filter = None) -> bool:
    """Single-level cone certificate for a >=_K comb.

    Compares the expansions of both sides at one level, coefficient by
    coefficient.  Success is sufficient for cone dominance; failure at
    one level decides nothing.
    """
    lvl = comb.level if at_level is None else at_level
    if lvl < comb.level or lvl < level(a):
        raise ValueError("comparison level below one of the sides")
    lhs = expand(a, lvl, within).coeffs
    rhs: dict[Vertex, Fraction] = {}
    for v, c in comb.coeffs.items():
        for u, d in expand(v, lvl, within).coeffs.items():
            rhs[u] = rhs.get(u, Fraction(0)) + c * d
    return all(lhs.get(u, Fraction(0)) >= c for u, c in rhs.items())


def first_certified_level(a: Vertex, comb: FormalCombination, max_level: int,
                          within: Filter = None) -> Optional[int]:
    """The first level up to max_level at which dominates_at holds, else None.

    Each level expands both sides from the base again.
    """
    start = max(comb.level, level(a))
    for lvl in range(start, max_level + 1):
        if dominates_at(a, comb, lvl, within):
            return lvl
    return None
