"""Products in the fundamental basis by Gessel's shuffle rule.

A word with n - 1 symbols is the descent set of any permutation of
n letters whose runs break exactly at its '-' symbols (a '-' between
boxes j and j+1 starts a new row, hence a descent).  Gessel's rule
(Multipartite P-partitions, 1984; Malvenuto-Reutenauer 1995) says that
for permutations u and v on disjoint alphabets

    F_{Des u} * F_{Des v} = sum of F_{Des w} over all shuffles w of u and v,

so the structure constants are shuffle counts: non-negative integers,
computed here with no polynomial and no change of basis, as integers
keyed by packed word bits (:func:`shuffle_counts`).  :func:`product_F`
makes them vertices; the one-box check and the ring identity read the
counts as they come.  The independent polynomial route (monomial
expansions multiplied and re-expanded) lives in
``tests/polynomial_oracle.py``, where the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from .words import (EMPTY, ROOT, BinaryWord, FormalCombination, Vertex, level,
                    upper_cover_bits)

#: largest |a| + |b| accepted by shuffle_counts and product_F
DEGREE_CAP = 16


def _place(into: dict[int, int], prefixes: dict[int, int], bit: int) -> None:
    """Extend every descent-word prefix by one symbol, merging equal results."""
    for prefix, count in prefixes.items():
        key = prefix | bit
        into[key] = into.get(key, 0) + count


def shuffle_counts(a: Vertex, b: Vertex) -> tuple[int, dict[int, int]]:
    """Structure constants of F_a * F_b as the level n and {packed bits: count}.

    The keys are the packed bits of the words of n - 1 symbols that
    carry a positive count.  The empty diagram is the unit: a product
    with it is the other factor, at count 1, and the root alone is
    level 0 under the key 0.

    Otherwise take one permutation per factor with the factor's word
    as its descent set: runs increase and later runs take smaller
    values, with all of a's values above all of b's.  Every comparison
    a shuffle makes is then known without the values: inside a factor
    it is that factor's own symbol, a letter of a followed by one of b
    descends ('-'), and the reverse ascends ('+').  A dynamic program
    over (letters of a placed, letters of b placed, factor placed last)
    counts the shuffles by descent word; each state maps the packed
    prefix bits to a count, so shuffles sharing a prefix merge.  The
    counts are positive integers supported on words above both factors
    in subword order.
    """
    if a is ROOT or b is ROOT:
        other = b if a is ROOT else a
        return level(other), {0 if other is ROOT else other.bits: 1}
    la, lb = level(a), level(b)
    n = la + lb
    if n > DEGREE_CAP:
        raise ValueError(f"combined degree {n} above cap {DEGREE_CAP}")
    # (letters of a placed, last letter from a) -> {prefix bits: count};
    # the other letters placed so far are b's
    layer: dict[tuple[int, bool], dict[int, int]] = {(1, True): {0: 1}, (0, False): {0: 1}}
    for placed in range(1, n):
        bit = 1 << (placed - 1)
        nxt: dict[tuple[int, bool], dict[int, int]] = {}
        for (i, last_a), prefixes in layer.items():
            j = placed - i
            if i < la:
                descends = last_a and (a.bits >> (i - 1)) & 1
                _place(nxt.setdefault((i + 1, True), {}), prefixes, bit if descends else 0)
            if j < lb:
                descends = last_a or (b.bits >> (j - 1)) & 1
                _place(nxt.setdefault((i, False), {}), prefixes, bit if descends else 0)
        layer = nxt
    counts: dict[int, int] = {}
    for prefixes in layer.values():
        _place(counts, prefixes, 0)
    return n, counts


def product_F(a: Vertex, b: Vertex) -> FormalCombination:
    """F_a * F_b as a combination of vertices with integer coefficients.

    The counts of :func:`shuffle_counts`, each packed word made a
    vertex; the empty diagram is the unit.
    """
    n, counts = shuffle_counts(a, b)
    if not n:
        return FormalCombination(0, {ROOT: 1})
    return FormalCombination(n, {BinaryWord(n - 1, bits): c for bits, c in counts.items()})


def pieri_check(a: Vertex) -> bool:
    """Multiplying by the one-box function lists exactly the upward covers.

    Compares the shuffle counts themselves, packed bits to integers,
    with count 1 at each cover's bits.
    """
    _, counts = shuffle_counts(EMPTY, a)
    covers = [EMPTY.bits] if a is ROOT else upper_cover_bits(a.n, a.bits)
    return counts == dict.fromkeys(covers, 1)


def fexpansion_to_json(comb: FormalCombination) -> dict:
    """JSON form: word (or '@') to rational string."""
    return {
        "schema": "zigzag-fexpansion/1",
        "level": comb.level,
        "terms": {str(v): str(c) for v, c in
                  sorted(comb.coeffs.items(), key=lambda t: str(t[0]))},
    }


def fexpansion_from_json(data: dict) -> FormalCombination:
    from .words import parse_vertex

    return FormalCombination(
        data["level"],
        {parse_vertex(k): Fraction(v) for k, v in data["terms"].items()})
