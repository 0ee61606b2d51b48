"""Word layer: bijection with compositions, covers, path counts, the cone.

Core claims:
    - words and compositions are mutually inverse encodings, and the
      composition read off the packed bits is the one read off the text
    - insertion and deletion are dual cover relations
    - the cover sums gathered a whole level at a time with slices are
      the sums over each word's upper cover bits, exhaustively below 13
      symbols and as a property test to 16
    - dim agrees with brute-force chain enumeration and the bent-word
      closed form N * N! / (n1! m1!)
    - expansions carry dim as coefficients and have unit single steps
    - formal combinations take int and Fraction coefficients only
    - the single-level cone certificate accepts and rejects correctly,
      in the full graph and restricted to a template's coideal
    - the level-by-level cone search gives the first level at which the
      single-level certificate holds, exhaustively on small targets and
      as a property test
    - a word prints as its symbols and parses back from them, in time
      linear in its length
    - subword order is a partial order
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from word_oracle import (composition_by_text, dominates_at, enumerate_level, expand,
                         first_certified_level, word_of_composition)
from zigzag_harmonics import (EMPTY, ROOT, BinaryWord, FormalCombination, GrowthModel,
                              Paintbox, cover_sums, dim, dominates_search, is_subword,
                              level, lower_covers, member, member_J, parse_template,
                              parse_vertex, phi_tw, phi_w, upper_cover_bits, upper_covers,
                              words_below)
from zigzag_harmonics.words import LEVEL_CAP, composition_of_word

W = BinaryWord.from_str


def _insert(w, pos, symbol):
    text = str(w)
    return W(text[:pos] + symbol + text[pos:])


# -- oracles ------------------------------------------------------------------

def brute_dim(a, b):
    """Chain count by bare recursion over deletions, no memo."""
    if a is ROOT:
        return 1 if b is ROOT else brute_dim(EMPTY, b)
    if b is ROOT or len(b) < len(a):
        return 0
    if len(b) == len(a):
        return 1 if a == b else 0
    return sum(brute_dim(a, c) for c in lower_covers(b))


STEP_T = parse_template("+* -1 +1 -*")
CAPPED_T = parse_template("+1 -* +* -1 +*")
FILTERS = {"graph": None,
           "step": lambda w: member(STEP_T, w),
           "capped": lambda w: member(CAPPED_T, w)}


# -- compositions -------------------------------------------------------------

def test_word_of_composition_examples():
    assert str(word_of_composition((3, 1, 1, 4))) == "++---+++"
    assert word_of_composition((1,)) == EMPTY
    assert str(word_of_composition((1, 2))) == "-+"


def test_composition_of_word_examples():
    assert composition_of_word(W("++---+++")) == (3, 1, 1, 4)
    assert composition_of_word(EMPTY) == (1,)
    assert composition_of_word(W("+-")) == (2, 1)


def test_composition_of_word_is_the_text_definition():
    # every word of up to 14 symbols, and random words around and past
    # one and two machine words
    for length in range(15):
        for bits in range(1 << length):
            w = BinaryWord(length, bits)
            assert composition_of_word(w) == composition_by_text(w), w
    rng = random.Random(7)
    for n in (63, 64, 65, 66, 127, 128, 129, 300):
        for bits in (0, 1, 1 << (n - 1), (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))):
            w = BinaryWord(n, bits)
            assert composition_of_word(w) == composition_by_text(w), w


def test_round_trip_all_small_compositions():
    for length in range(12):
        for w in enumerate_level(length):
            parts = composition_of_word(w)
            assert sum(parts) == length + 1
            assert word_of_composition(parts) == w


def test_composition_validation():
    with pytest.raises(ValueError):
        word_of_composition((2, 0, 1))
    with pytest.raises(ValueError):
        word_of_composition(())


# -- covers -------------------------------------------------------------------

def test_upper_covers_examples():
    assert upper_covers(EMPTY) == {W("+"), W("-")}
    assert upper_covers(W("+")) == {W("++"), W("+-"), W("-+")}
    assert W("-+-+-+-+") in upper_covers(W("-+-+-+-"))
    assert upper_covers(ROOT) == {EMPTY}


def test_upper_covers_are_the_n_plus_2_insertions():
    for length in range(11):
        for w in enumerate_level(length):
            covers = upper_covers(w)
            assert covers == {_insert(w, pos, s) for pos in range(length + 1)
                              for s in "+-"}
            assert len(covers) == length + 2


def test_lower_covers_worked_sets():
    got = lower_covers(W("-++-++-+"))
    expected = {W("++-++-+"), W("-+-++-+"), W("-++++-+"),
                W("-++-+-+"), W("-++-+++"), W("-++-++-")}
    assert got == expected

    got = lower_covers(W("-+-+-+-+"))
    expected = {W("+-+-+-+"), W("--+-+-+"), W("-++-+-+"), W("-+--+-+"),
                W("-+-++-+"), W("-+-+--+"), W("-+-+-++"), W("-+-+-+-")}
    assert got == expected


def test_lower_covers_merging_deletions():
    assert lower_covers(W("++")) == {W("+")}
    assert lower_covers(EMPTY) == set()
    assert lower_covers(ROOT) == set()


def test_cover_duality_exhaustive():
    for length in range(8):
        for a in enumerate_level(length):
            for b in upper_covers(a):
                assert a in lower_covers(b)
    for length in range(1, 9):
        for b in enumerate_level(length):
            for a in lower_covers(b):
                assert b in upper_covers(a)


def _cover_sum(row, n, bits):
    return sum(row[c] for c in upper_cover_bits(n, bits))


def test_cover_sums_are_the_sums_over_upper_cover_bits_below_13_symbols():
    rng = random.Random(2113)
    for n in range(13):
        row = [rng.getrandbits(40) for _ in range(2 << n)]
        assert cover_sums(row, n) == [_cover_sum(row, n, bits) for bits in range(1 << n)], n


@settings(max_examples=40)
@given(st.integers(0, 16).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, 2 ** 32))))
def test_cover_sums_are_the_sums_over_upper_cover_bits_to_16_symbols(case):
    n, bits, seed = case
    rng = random.Random(seed)
    row = [rng.getrandbits(40) for _ in range(2 << n)]
    assert cover_sums(row, n)[bits] == _cover_sum(row, n, bits)


# -- subword order ------------------------------------------------------------

def test_is_subword_examples():
    assert is_subword(W("+--"), W("+-+--"))
    assert not is_subword(W("-+"), W("+-"))
    for w in (EMPTY, W("+-"), W("-++-")):
        assert is_subword(w, w)


def test_subword_is_partial_order():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 7)
        a = W("".join(rng.choice("+-") for _ in range(n)))
        b = a
        for _ in range(rng.randint(0, 3)):
            b = _insert(b, rng.randrange(len(b) + 1), rng.choice("+-"))
        c = b
        for _ in range(rng.randint(0, 3)):
            c = _insert(c, rng.randrange(len(c) + 1), rng.choice("+-"))
        assert is_subword(a, b) and is_subword(b, c)
        assert is_subword(a, c)
        if len(a) == len(b) and is_subword(b, a):
            assert a == b


# -- path counting ------------------------------------------------------------

def test_dim_examples():
    assert dim(W("++--"), W("++-+--")) == 4
    assert dim(ROOT, W("+-")) == 2
    assert dim(ROOT, ROOT) == 1
    for w in (EMPTY, W("+-"), W("---")):
        assert dim(w, w) == 1
    assert dim(W("+"), W("--")) == 0


def test_dim_matches_brute_force():
    words = [w for length in range(7) for w in enumerate_level(length)]
    for b in words:
        for a in words:
            if len(a) <= len(b):
                assert dim(a, b) == brute_dim(a, b), (a, b)
    for b in enumerate_level(5):
        assert dim(ROOT, b) == brute_dim(ROOT, b)


def test_dim_recursion_over_lower_covers():
    # dim vanishes off the subword order, so the unfiltered sum works too
    for length in range(4, 9):
        for b in enumerate_level(length):
            for a in enumerate_level(3):
                assert dim(a, b) == sum(dim(a, c) for c in lower_covers(b))


def test_dim_bent_word_closed_form_spot():
    # N * N!/(n1! m1!) into the bent three-block targets
    from math import factorial

    for n, m in ((2, 3), (3, 2), (4, 4)):
        source = W("+" * n + "-" * m)
        for n1, m1 in ((0, 3), (2, 1), (3, 3)):
            big_n = n1 + m1
            target = W("+" * (n1 + n - 1) + "-+" + "-" * (m1 + m - 1))
            assert dim(source, target) == big_n * factorial(big_n) // (
                factorial(n1) * factorial(m1))


# -- expansion ----------------------------------------------------------------

def test_expand_single_step_has_unit_coefficients():
    for length in range(6):
        for a in enumerate_level(length):
            comb = expand(a, level(a) + 1)
            assert comb.coeffs == {w: Fraction(1) for w in upper_covers(a)}


def test_expand_examples():
    assert expand(ROOT, 2).coeffs == {W("+"): 1, W("-"): 1}
    comb = expand(W("++--"), 7)
    assert comb.coefficient(W("++-+--")) == 4
    for v, c in comb.coeffs.items():
        assert c == dim(W("++--"), v)
    assert sum(comb.coeffs.values()) == sum(
        dim(W("++--"), v) for v in enumerate_level(6))


def test_expand_level_validation():
    with pytest.raises(ValueError):
        expand(W("+-"), 2)


# -- cone certificate ---------------------------------------------------------

def test_dominates_reflexive_and_failing():
    w = W("+-+")
    assert dominates_at(w, FormalCombination(level(w), {w: Fraction(1)}))
    c = FormalCombination(3, {W("++"): Fraction(4)})
    assert not dominates_at(W("+"), c)
    assert dominates_search(W("+"), c, 9) is None


def test_dominates_needs_template_restriction():
    # Inside the step coideal the bent words are dominated by the
    # two-block word at level 7; in the full graph they never are,
    # witnessed by growing a tail of pluses the two-block word cannot
    # reach.
    t = parse_template("+* -1 +1 -*")
    within = lambda w: member(t, w)
    target = W("++--")
    c = FormalCombination(5, {W("+-+-"): Fraction(2)})
    assert dominates_search(target, c, 9, within=within) == 7
    assert not dominates_at(target, c, 5, within=within)
    assert dominates_search(target, c, 9) is None


def test_dominates_search_is_the_first_certified_level():
    # every target of up to 5 symbols, against two seeded single
    # vertices and a seeded pair of up to 4 symbols, in the full graph
    # and inside two coideals; the last case certifies two levels up
    rng = random.Random(41)
    targets = [ROOT, *(w for k in range(6) for w in enumerate_level(k))]
    cases = []
    for a in targets:
        for _ in range(2):
            v = rng.choice(targets[:32])
            cases.append((a, FormalCombination(level(v), {v: Fraction(rng.randint(1, 3),
                                                                      rng.randint(1, 3))})))
        pair = rng.sample(enumerate_level(rng.randint(1, 4)), 2)
        cases.append((a, FormalCombination(level(pair[0]), {
            v: Fraction(rng.randint(1, 3), rng.randint(1, 3)) for v in pair})))
    cases.append((W("+-"), FormalCombination(3, {W("-+"): Fraction(2)})))
    outcomes = Counter()
    for a, comb in cases:
        start = max(comb.level, level(a))
        for name, within in FILTERS.items():
            expected = first_certified_level(a, comb, start + 2, within)
            assert dominates_search(a, comb, start + 2, within) == expected, (a, comb, name)
            outcomes[None if expected is None else expected - start] += 1
    # certified at once, one or two levels up, and not at all
    assert set(outcomes) == {None, 0, 1, 2}


@st.composite
def cone_cases(draw):
    a = draw(st.one_of(st.just(ROOT), st.integers(0, 6).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda bits: BinaryWord(n, bits)))))
    lvl = draw(st.integers(0, 7))
    if lvl == 0:
        vertices = [ROOT]
    else:
        n = lvl - 1
        vertices = [BinaryWord(n, bits) for bits in draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3, unique=True))]
    comb = FormalCombination(lvl, {v: draw(st.builds(Fraction, st.integers(1, 5),
                                                     st.integers(1, 5)))
                                   for v in vertices})
    max_level = max(lvl, level(a)) + draw(st.integers(-1, 3))
    return a, comb, max_level, draw(st.sampled_from(sorted(FILTERS)))


@settings(max_examples=150)
@given(cone_cases())
def test_dominates_search_property(case):
    a, comb, max_level, name = case
    within = FILTERS[name]
    assert (dominates_search(a, comb, max_level, within)
            == first_certified_level(a, comb, max_level, within))


def test_dominates_level_validation():
    c = FormalCombination(3, {W("++"): Fraction(1)})
    with pytest.raises(ValueError):
        dominates_at(W("+"), c, at_level=2)


def test_formal_combination_takes_only_ints_and_fractions():
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    for c in (0.1, 1.0, True):
        with pytest.raises(ValueError, match="no int or Fraction"):
            FormalCombination(2, {W("+"): c})
    comb = FormalCombination(2, {W("+"): 3, W("-"): Fraction(1, 10)})
    assert comb.coeffs == {W("+"): 3, W("-"): Fraction(1, 10)}
    assert type(comb.coefficient(W("+"))) is int


# -- enumeration and serialization --------------------------------------------

def test_enumerate_level():
    assert enumerate_level(0) == [EMPTY]
    assert [str(w) for w in enumerate_level(1)] == ["+", "-"]
    words = enumerate_level(3)
    assert len(words) == 8
    assert [str(w) for w in words] == sorted(str(w) for w in words)
    with pytest.raises(ValueError):
        enumerate_level(-1)


def test_words_below_is_the_levels_in_order_and_checks_its_cap_first():
    assert list(words_below(0)) == []
    for n in (1, 4, 13):
        assert list(words_below(n)) == [w for k in range(n) for w in enumerate_level(k)]
    with pytest.raises(ValueError, match="above cap"):
        words_below(LEVEL_CAP + 2)  # raises at the call, not at the first word
    with pytest.raises(ValueError):
        words_below(-1)
    # lazy: the first word of the capped range comes without building the rest
    assert next(words_below(LEVEL_CAP + 1)) == EMPTY


def test_packed_operations_match_string_model():
    rng = random.Random(11)
    for _ in range(200):
        s = "".join(rng.choice("+-") for _ in range(rng.randint(0, 10)))
        w = W(s)
        assert str(w) == s and len(w) == len(s)
        if s:
            pos = rng.randrange(len(s))
            assert str(w.delete(pos)) == s[:pos] + s[pos + 1:]
        i = rng.randint(0, len(s))
        j = rng.randint(i, len(s))
        assert str(w.sub(i, j)) == s[i:j]


def test_blocks():
    assert W("+-+++").blocks() == (("+", 1), ("-", 1), ("+", 3))
    assert EMPTY.blocks() == ()


def test_str_round_trips_every_word_to_12_symbols():
    assert str(EMPTY) == ""
    for length in range(13):
        for bits in range(1 << length):
            w = BinaryWord(length, bits)
            text = str(w)
            assert len(text) == length
            assert all(w.symbol(i) == s for i, s in enumerate(text))
            assert BinaryWord.from_str(text) == w


def test_words_of_a_million_symbols_convert_in_linear_time():
    # setting or reading packed bits one symbol at a time is quadratic:
    # seconds, not a fraction of one, at this length
    started = time.perf_counter()
    text = "+-" * 250_000 + "-" * 500_000
    w = W(text)
    assert str(w) == text and "".join(w) == text
    parts = composition_of_word(w)
    assert parts[:2] == (2, 2) and len(parts) == 750_001
    assert is_subword(W("+-" * 10), w) and not is_subword(W("-+" * 260_000), w)
    assert time.perf_counter() - started < 2.0


def test_vertex_serialization():
    assert str(ROOT) == "@"
    assert parse_vertex("@") is ROOT
    assert parse_vertex("+-+") == W("+-+")
    with pytest.raises(ValueError):
        parse_vertex("+x-")


def test_operations_are_safe_under_threads():
    # shared memo table, and a template, a paintbox and a growth model
    # whose compiled parts are stored on the object: concurrent results
    # must agree with serial ones computed on fresh objects
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from zigzag_harmonics.words import _dim_words

    text_t, text_pb = "-1 +* -* +1 -* +* -* +1", "+1/3,-1/6,+1/4,+1/4"
    text_m = text_t + " | w=1/3,1/4,1/6,1/8,1/8"
    template, paintbox = parse_template(text_t), Paintbox.parse(text_pb)
    model = GrowthModel.parse(text_m)
    words = [w for length in range(9) for w in enumerate_level(length)]
    _dim_words.cache_clear()
    pairs = [(a, b) for b in enumerate_level(8) for a in enumerate_level(3)
             if is_subword(a, b)][:200]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: dim(*p), pairs, timeout=60))
            blown = list(pool.map(lambda w: member_J(template, w), words, timeout=60))
            values = list(pool.map(lambda w: phi_w(w, paintbox), words, timeout=60))
            model_values = list(pool.map(lambda w: phi_tw(model, w), words, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    _dim_words.cache_clear()
    assert threaded == [dim(a, b) for a, b in pairs]
    fresh_t, fresh_pb = parse_template(text_t), Paintbox.parse(text_pb)
    assert blown == [member_J(fresh_t, w) for w in words]
    assert values == [phi_w(w, fresh_pb) for w in words]
    fresh_m = GrowthModel.parse(text_m)
    assert model_values == [phi_tw(fresh_m, w) for w in words]
