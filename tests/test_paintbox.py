"""Interval evaluation layer.

Core claims:
    - interval tuples refuse any length that is not a positive int or
      Fraction, floats included
    - eval_F agrees with brute-force splitting enumeration
    - eval_F and the coproduct evaluator agree everywhere tested, and on
      property-test inputs well above the exhaustive levels; the
      coproduct evaluator alone agrees with brute force too, to 10
      symbols, on tuples with both orientations and with one only (so
      the row and the column cuts are each checked alone)
    - the level walk's numerators are eval_F times D^(k+1) on every word
    - the coproduct oracle on whole levels gives the per-word oracle's
      numerator on every word below 10 symbols, for the kerov-oracle
      suite's tuples and for single intervals, one-sign tuples,
      equal-sign neighbours and integer lengths, and on property-test
      words to 14 symbols; it refuses a bound outside its cap before
      any work
    - the max-block closed form agrees with eval_F, including the
      boundary cases (a single interval, equal-orientation neighbours)
    - paintbox evaluations are normalized, harmonic, supported exactly
      on the coideal of the associated template, and multiplicative
    - associated templates insert separators at touching components and
      are always finite
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eps_oracle import brute_eval
from maxblock_oracle import eval_F_maxblock, maxblock_member
from word_oracle import enumerate_level
from zigzag_harmonics import (EMPTY, ROOT, BinaryWord, IntervalTuple, Paintbox,
                              dim, eval_F, eval_F_coproduct, eval_F_coproduct_levels,
                              eval_F_levels, paintbox,
                              is_finite_template, member, phi_w, product_F,
                              template_of_intervals,
                              template_of_paintbox, upper_covers)
from zigzag_harmonics.verify import _random_interval_tuple, random_paintbox
from zigzag_harmonics.words import LEVEL_CAP

W = BinaryWord.from_str
F = Fraction


# -- oracle -------------------------------------------------------------------

def test_brute_oracle_itself():
    # one box in one interval, and the 2-interval row worked by hand
    assert brute_eval(EMPTY, (("+", F(1, 3)),)) == F(1, 3)
    a, b = F(1, 2), F(1, 3)
    assert brute_eval(W("+"), (("+", a), ("+", b))) == a * a + a * b + b * b


# -- eval_F -------------------------------------------------------------------

def test_eval_examples():
    q = F(2, 7)
    assert eval_F(EMPTY, IntervalTuple((("+", q),))) == q
    one_row = IntervalTuple((("+", F(1)),))
    for n in range(5):
        assert eval_F(W("+" * n), one_row) == 1
    assert eval_F(W("+-"), one_row) == 0
    assert eval_F(ROOT, one_row) == 1
    u = IntervalTuple((("+", F(1, 2)), ("+", F(1, 3))))
    assert eval_F(W("+"), u) == F(1, 4) + F(1, 6) + F(1, 9)


def test_single_box_sums_the_lengths():
    u = IntervalTuple((("+", F(1, 5)), ("-", F(2, 5)), ("+", F(3, 5))))
    assert eval_F(EMPTY, u) == F(6, 5)


def seeded_tuples(seed, count, length):
    rng = random.Random(seed)
    return [IntervalTuple(tuple((rng.choice("+-"), length(rng))
                                for _ in range(rng.randint(1, 4))))
            for _ in range(count)]


def fraction_length(rng):
    return F(rng.randint(1, 5), rng.randint(1, 5))


def int_length(rng):
    return rng.randint(1, 5)


def test_eval_matches_brute_force():
    tuples = seeded_tuples(5, 6, fraction_length) + seeded_tuples(15, 4, int_length)
    for u in tuples:
        for length in range(6):
            for w in enumerate_level(length):
                expected = brute_eval(w, u.intervals)
                assert eval_F(w, u) == expected, (w, u)
                assert eval_F_coproduct(w, u) == expected, (w, u)


def signed_tuples(seed, sign, sizes):
    """Tuples whose intervals all point one way, one of each size."""
    rng = random.Random(seed)
    return [IntervalTuple(tuple((sign, fraction_length(rng)) for _ in range(m)))
            for m in sizes]


def test_coproduct_route_is_brute_force_to_10_symbols():
    # all-'+' tuples take only row cuts and all-'-' tuples only column cuts
    tuples = (seeded_tuples(20, 4, fraction_length) + seeded_tuples(21, 2, int_length)
              + signed_tuples(22, "+", (2, 4)) + signed_tuples(23, "-", (2, 4)))
    for u in tuples:
        for length in range(11):
            for w in enumerate_level(length):
                assert eval_F_coproduct(w, u) == brute_eval(w, u.intervals), (w, u)


def test_eval_agrees_with_coproduct_route():
    rng = random.Random(6)
    tuples = [IntervalTuple(tuple(
        (rng.choice("+-"), F(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(1, 4)))) for _ in range(5)]
    for u in tuples:
        assert eval_F(ROOT, u) == eval_F_coproduct(ROOT, u)
        for length in range(7):
            for w in enumerate_level(length):
                assert eval_F(w, u) == eval_F_coproduct(w, u), (w, u)


# Words with few runs mostly lie in the support of a few intervals, where
# uniformly random long words almost always evaluate to 0.
def words(max_len):
    random_words = st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda bits: BinaryWord(n, bits)))
    few_runs = st.lists(st.tuples(st.sampled_from("+-"), st.integers(1, 8)),
                        max_size=6).map(
        lambda runs: W("".join(s * k for s, k in runs)[:max_len]))
    return st.one_of(random_words, few_runs)


@st.composite
def interval_tuples(draw):
    lengths = draw(st.sampled_from([st.integers(1, 9),
                                    st.builds(F, st.integers(1, 9), st.integers(1, 9))]))
    m = draw(st.integers(1, 5))
    return IntervalTuple(tuple((draw(st.sampled_from("+-")), draw(lengths))
                               for _ in range(m)))


@settings(max_examples=300)
@given(interval_tuples(), words(24))
def test_eval_agrees_with_coproduct_route_on_long_words(u, w):
    assert eval_F(w, u) == eval_F_coproduct(w, u)


# -- the level walk -----------------------------------------------------------

def assert_walk_is_eval_F(u, n):
    denominator, levels = eval_F_levels(u, n)
    assert [len(level) for level in levels] == [1 << k for k in range(n)]
    for k in range(n):
        for w in enumerate_level(k):
            assert levels[k][w.bits] == eval_F(w, u) * denominator ** (k + 1), (w, u)


def test_level_walk_is_eval_F_to_10_symbols():
    for u in seeded_tuples(18, 4, fraction_length) + seeded_tuples(19, 3, int_length):
        assert_walk_is_eval_F(u, 11)


@settings(max_examples=100)
@given(interval_tuples(), words(14))
def test_level_walk_is_eval_F_along_long_words(u, w):
    denominator, levels = eval_F_levels(u, len(w) + 1)
    for k in range(len(w) + 1):
        prefix = w.sub(0, k)
        assert levels[k][prefix.bits] == eval_F(prefix, u) * denominator ** (k + 1)


def test_level_walk_checks_its_cap_first():
    with pytest.raises(ValueError, match="above cap"):
        eval_F_levels(Paintbox.parse("+1"), 22)
    with pytest.raises(ValueError, match="negative"):
        eval_F_levels(Paintbox.parse("+1"), -1)
    assert eval_F_levels(Paintbox.parse("+1/2,-1/2"), 0) == (2, [])


# -- the coproduct oracle on whole levels -------------------------------------

def assert_oracle_levels_are_per_word(u, n):
    denominator, levels = eval_F_coproduct_levels(u, n)
    assert denominator == u.denominator
    assert [len(level) for level in levels] == [1 << k for k in range(n)]
    for k in range(n):
        for w in enumerate_level(k):
            assert levels[k][w.bits] == eval_F_coproduct(w, u) * denominator ** (k + 1), (w, u)


def test_oracle_levels_are_the_per_word_oracle_to_9_symbols():
    rng = random.Random(20240)  # the kerov-oracle suite's default seed
    tuples = [_random_interval_tuple(rng) for _ in range(20)]
    tuples += [IntervalTuple(((sign, F(2, 3)),)) for sign in "+-"]
    tuples += signed_tuples(24, "+", (2, 3, 4)) + signed_tuples(25, "-", (2, 3, 4))
    tuples += [IntervalTuple((("+", F(1, 2)), ("+", F(1, 3)), ("-", F(1, 6)))),
               IntervalTuple((("-", 2), ("-", 3), ("+", 1), ("+", 4))),
               IntervalTuple((("+", 3), ("-", 5), ("+", 2)))]
    for u in tuples:
        assert_oracle_levels_are_per_word(u, 10)


@settings(max_examples=100)
@given(interval_tuples(), words(14))
def test_oracle_levels_are_the_per_word_oracle_along_long_words(u, w):
    denominator, levels = eval_F_coproduct_levels(u, len(w) + 1)
    for k in range(len(w) + 1):
        prefix = w.sub(0, k)
        assert levels[k][prefix.bits] == eval_F_coproduct(prefix, u) * denominator ** (k + 1)


def test_oracle_levels_check_their_cap_first(monkeypatch):
    def no_work(u):
        raise AssertionError("set-up before the cap check")

    monkeypatch.setattr(paintbox, "_coproduct_setup", no_work)
    with pytest.raises(ValueError, match="above cap"):
        eval_F_coproduct_levels(Paintbox.parse("+1"), LEVEL_CAP + 2)
    with pytest.raises(ValueError, match="negative"):
        eval_F_coproduct_levels(Paintbox.parse("+1"), -1)
    monkeypatch.undo()
    assert eval_F_coproduct_levels(Paintbox.parse("+1/2,-1/2"), 0) == (2, [])


# -- max-block closed form ----------------------------------------------------

def test_maxblock_alternating_example():
    w1, e1, e2, w2 = F(1, 3), F(1, 97), F(1, 89), F(2, 3)
    u = IntervalTuple((("+", w1), ("-", e1), ("+", e2), ("-", w2)))
    for a, b in ((1, 1), (2, 3)):
        w = W("+" * a + "-+" + "-" * b)
        expected = (w1 ** a * w2 ** b
                    * (w1 + e1) * (e1 + e2) * (e2 + w2))
        assert eval_F_maxblock(w, u) == expected
        assert eval_F(w, u) == expected


def test_maxblock_single_interval_counts_boxes():
    u = IntervalTuple((("+", F(3, 4)),))
    for k in range(1, 5):
        w = W("+" * k)
        assert eval_F_maxblock(w, u) == F(3, 4) ** (k + 1)
        assert eval_F(w, u) == eval_F_maxblock(w, u)


def test_maxblock_equal_orientation_neighbours():
    a, b = F(1, 2), F(1, 3)
    u = IntervalTuple((("+", a), ("+", b)))
    w = W("++-+")  # blocks of 2 and 1 around the forced corner
    assert eval_F_maxblock(w, u) == a ** 3 * b ** 2
    assert eval_F(w, u) == a ** 3 * b ** 2


def test_maxblock_matches_eval_on_random_words():
    rng = random.Random(8)
    checked = 0
    while checked < 50:
        m = rng.randint(1, 4)
        u = IntervalTuple(tuple(
            (rng.choice("+-"), F(rng.randint(1, 7), rng.randint(1, 7)))
            for _ in range(m)))
        t_u = template_of_intervals(u)
        base = len(str(t_u).split()) - t_u.infinite_count  # separators
        sizes = [rng.randint(1, 3) for _ in range(t_u.infinite_count)]
        chunks = []
        it = iter(sizes)
        for c in t_u.clusters:
            chunks.append(c.sign * (next(it) if c.is_infinite else c.mult))
        w = W("".join(chunks))
        if len(w) > 12 or not maxblock_member(t_u, w):
            continue
        assert eval_F_maxblock(w, u) == eval_F(w, u), (w, u)
        checked += 1


def test_maxblock_rejects_other_words():
    u = IntervalTuple((("+", F(1, 2)), ("-", F(1, 2))))
    with pytest.raises(ValueError):
        eval_F_maxblock(W("++"), u)  # two blocks required


# -- paintboxes ---------------------------------------------------------------

def test_interval_lengths_must_be_exact_rationals():
    for intervals in ((("+", 0.5), ("-", -0.25)), (("+", 0.5),), (("-", -0.25),),
                      (("+", F(1, 2)), ("-", 0.5)), (("+", "1/2"),), (("+", True),)):
        with pytest.raises(ValueError, match="not a positive int or Fraction"):
            IntervalTuple(intervals)
    for intervals in ((("+", 0.5), ("-", 0.5)), (("+", True),)):
        with pytest.raises(ValueError, match="not a positive int or Fraction"):
            Paintbox(intervals)
    assert IntervalTuple((("+", 2), ("-", F(1, 3)))).denominator == 3


def test_paintbox_validation():
    Paintbox((("+", F(1, 3)), ("+", F(1, 3)), ("-", F(1, 3))))  # touching ok
    with pytest.raises(ValueError):
        Paintbox((("+", F(1, 3)), ("-", F(1, 3))))
    with pytest.raises(ValueError):
        Paintbox((("+", F(1, 2)), ("-", F(0)), ("+", F(1, 2))))
    with pytest.raises(ValueError):
        Paintbox.parse("+1/2,?1/2")
    assert Paintbox.parse("+1/3,-1/6,+1/2").lengths == (F(1, 3), F(1, 6), F(1, 2))
    # interval tuples carry no total-length constraint
    IntervalTuple.parse("+1/3,-1/6")


def test_template_of_paintbox_examples():
    assert str(template_of_paintbox(Paintbox.parse("+1/2,-1/2"))) == "+* -*"
    t = template_of_paintbox(Paintbox.parse("+1/3,+1/3,-1/3"))
    assert str(t) == "+* -1 +* -*"
    assert is_finite_template(t)
    t = template_of_paintbox(Paintbox.parse("+1/4,-1/4,+1/4,-1/4"))
    assert all(c.is_infinite for c in t.clusters)


def test_template_of_paintbox_always_finite():
    rng = random.Random(9)
    for _ in range(30):
        pb = random_paintbox(rng)
        assert is_finite_template(template_of_paintbox(pb))


def test_phi_normalization_and_row_support():
    pb = Paintbox.parse("+1")
    assert phi_w(ROOT, pb) == 1
    for length in range(5):
        for w in enumerate_level(length):
            expected = 1 if all(s == "+" for s in w) else 0
            assert phi_w(w, pb) == expected


def test_phi_support_is_the_template_coideal():
    rng = random.Random(10)
    for _ in range(5):
        pb = random_paintbox(rng)
        t = template_of_paintbox(pb)
        for length in range(7):
            for w in enumerate_level(length):
                assert (phi_w(w, pb) > 0) == member(t, w), (pb, w)


def test_phi_harmonic_and_normalized_small():
    rng = random.Random(12)
    for _ in range(3):
        pb = random_paintbox(rng)
        values = {ROOT: phi_w(ROOT, pb)}
        for length in range(8):
            for w in enumerate_level(length):
                values[w] = phi_w(w, pb)
        for v, val in values.items():
            if v is not ROOT and len(v) == 7:
                continue
            assert val == sum(values[c] for c in upper_covers(v))
        for length in range(8):
            # total mass against path counts stays 1 level by level
            total = sum(dim(ROOT, w) * values[w] for w in enumerate_level(length))
            assert total == 1


def test_evaluation_is_multiplicative_on_products():
    rng = random.Random(13)
    u = IntervalTuple((("+", F(1, 2)), ("-", F(1, 3)), ("-", F(1, 5))))
    vertices = [ROOT] + [w for length in range(4) for w in enumerate_level(length)]
    for _ in range(40):
        a, b = rng.choice(vertices), rng.choice(vertices)
        expansion = product_F(a, b)
        lhs = sum((c * eval_F(v, u) for v, c in expansion.coeffs.items()),
                  F(0))
        assert lhs == eval_F(a, u) * eval_F(b, u)


def test_unnormalized_tuples_are_not_harmonic():
    # total length 1 is what makes the evaluation harmonic
    u = IntervalTuple((("+", F(1, 2)), ("-", F(1, 3))))
    total = sum(eval_F(w, u) for w in enumerate_level(0))
    assert eval_F(ROOT, u) == 1 and total != 1
