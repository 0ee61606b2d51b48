"""Whole levels of words, built from strings, kept as a test oracle.

``enumerate_level(n)`` lists all 2^n words of n symbols in
lexicographic order ('+' < '-') by parsing the strings that
``itertools.product`` yields.  It shares nothing with the prefix walk
of ``words.words_below`` beyond ``BinaryWord.from_str``, so tests can
compare the walk, filtered or not, against it.
"""

from __future__ import annotations

from itertools import product

from zigzag_harmonics.words import BinaryWord


def enumerate_level(nsymbols: int) -> list[BinaryWord]:
    """All 2^n words of the given length in lexicographic order ('+' < '-')."""
    return [BinaryWord.from_str("".join(symbols))
            for symbols in product("+-", repeat=nsymbols)]
