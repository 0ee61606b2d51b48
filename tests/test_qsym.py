"""Fundamental-basis products by the shuffle rule, against the polynomial oracle.

Core claims:
    - the oracle's monomial expansions match the chain description
      (minus symbols force strict index increases)
    - the one-box product lists exactly the upward covers
    - structure constants are non-negative, graded, commutative, and
      supported above both factors in subword order
    - the shuffle product equals the polynomial product: exhaustively
      up to six boxes, by property test up to eight
    - above the oracle's reach the coefficients still sum to the number
      of shuffles and the one-box product still lists the covers
    - degree-many variables are already faithful for the oracle
      (doubling changes nothing) and the F-expansion reproduces the
      product polynomial
"""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polynomial_oracle import (monomial_expansion, poly_mul,
                               polynomial_product, reexpand)
from word_oracle import enumerate_level
from zigzag_harmonics import (EMPTY, ROOT, BinaryWord, is_subword, level,
                              pieri_check, product_F, shuffle_counts)
from zigzag_harmonics.qsym import DEGREE_CAP

W = BinaryWord.from_str


def test_monomial_expansion_examples():
    assert monomial_expansion(EMPTY, 2) == {(1, 0): 1, (0, 1): 1}
    assert monomial_expansion(W("-"), 2) == {(1, 1): 1}
    assert monomial_expansion(W("+"), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert monomial_expansion(ROOT, 3) == {(0, 0, 0): 1}
    with pytest.raises(ValueError):
        monomial_expansion(W("+"), 1)


def test_monomial_expansion_is_multiplicity_free():
    for length in range(5):
        for w in enumerate_level(length):
            poly = monomial_expansion(w, length + 2)
            assert set(poly.values()) == {1}
            assert all(sum(e) == length + 1 for e in poly)


def test_product_examples():
    box = EMPTY
    assert product_F(box, box).coeffs == {W("+"): 1, W("-"): 1}
    assert product_F(box, W("+")).coeffs == {W("++"): 1, W("+-"): 1, W("-+"): 1}
    assert product_F(ROOT, W("+-")).coeffs == {W("+-"): 1}
    assert product_F(W("+-"), ROOT).coeffs == {W("+-"): 1}
    assert product_F(ROOT, ROOT).coeffs == {ROOT: 1}


def test_product_degree_cap():
    # 8 + 9 boxes, one above the cap, in the product and in its counts
    with pytest.raises(ValueError, match=f"above cap {DEGREE_CAP}"):
        product_F(W("+" * 7), W("-" * 8))
    with pytest.raises(ValueError, match=f"above cap {DEGREE_CAP}"):
        shuffle_counts(W("-" * 8), W("+" * 7))


def test_pieri_exhaustive_small():
    for length in range(6):
        for w in enumerate_level(length):
            assert pieri_check(w)


def test_structure_constants_properties():
    vertices = [w for length in range(4) for w in enumerate_level(length)]
    for a in vertices:
        for b in vertices:
            expansion = product_F(a, b)
            assert expansion.level == level(a) + level(b)
            assert product_F(b, a).coeffs == expansion.coeffs
            for v, c in expansion.coeffs.items():
                assert c > 0
                assert c == int(c)
                assert is_subword(a, v) and is_subword(b, v)


def test_support_nonnegativity_and_grading_exhaustive():
    # every pair with at most eight boxes combined, commutativity-reduced
    for la in range(1, 8):
        for lb in range(la, 9 - la):
            for a in enumerate_level(la - 1):
                for b in enumerate_level(lb - 1):
                    if la == lb and str(b) < str(a):
                        continue
                    expansion = product_F(a, b)
                    assert sum(expansion.coeffs.values(), Fraction(0)) > 0
                    for v, c in expansion.coeffs.items():
                        assert c > 0 and c == int(c)
                        assert level(v) == la + lb
                        assert is_subword(a, v) and is_subword(b, v)


def test_doubling_variable_count_changes_nothing():
    # faithfulness of the oracle itself: degree-many variables suffice
    pairs = [(EMPTY, W("+-")), (W("+"), W("-+")), (W("--"), W("++"))]
    for a, b in pairs:
        n = level(a) + level(b)
        doubled = polynomial_product(a, b, nvars=2 * n).coeffs
        assert polynomial_product(a, b).coeffs == doubled == product_F(a, b).coeffs


def test_reexpansion_reproduces_the_polynomial():
    pairs = [(W("+"), W("-")), (W("+-"), W("-")), (W("++"), W("--"))]
    for a, b in pairs:
        n = level(a) + level(b)
        poly = poly_mul(monomial_expansion(a, n), monomial_expansion(b, n))
        assert reexpand(product_F(a, b), n) == poly


def test_shuffle_product_matches_oracle_exhaustive():
    # every ordered pair with at most six boxes combined
    vertices = [ROOT] + [w for length in range(5) for w in enumerate_level(length)]
    for a in vertices:
        for b in vertices:
            if level(a) + level(b) <= 6:
                assert product_F(a, b) == polynomial_product(a, b), (a, b)


def _word(boxes: int):
    return st.integers(0, (1 << (boxes - 1)) - 1).map(
        lambda bits: BinaryWord(boxes - 1, bits))


def _pairs(min_total: int, max_total: int):
    """Pairs of words with a combined number of boxes in the range."""
    return st.integers(min_total, max_total).flatmap(
        lambda total: st.integers(1, total - 1).flatmap(
            lambda boxes: st.tuples(_word(boxes), _word(total - boxes))))


@given(_pairs(2, 8))
def test_shuffle_product_matches_oracle_property(pair):
    a, b = pair
    assert product_F(a, b) == polynomial_product(a, b)


@given(_pairs(13, DEGREE_CAP))
def test_invariants_above_the_oracle(pair):
    a, b = pair
    n = level(a) + level(b)
    expansion = product_F(a, b)
    assert expansion.level == n
    # one count per shuffle of the two factors' letters
    assert sum(expansion.coeffs.values()) == comb(n, level(a))
    assert product_F(b, a) == expansion
    for v, c in expansion.coeffs.items():
        assert c > 0 and c == int(c)
        assert is_subword(a, v) and is_subword(b, v)


def test_pieri_at_the_degree_cap():
    rng = random.Random(16)
    words = [BinaryWord(DEGREE_CAP - 2, rng.getrandbits(DEGREE_CAP - 2))
             for _ in range(40)]
    words += [W("+" * (DEGREE_CAP - 2)), W("+-" * ((DEGREE_CAP - 2) // 2))]
    for w in words:
        assert pieri_check(w)
