"""Template layer: membership, flange splitting, reductions, injection.

Core claims:
    - the grammar parses and rejects exactly what it should
    - finiteness classification matches the worked pair of examples
    - membership agrees with brute-force chunk assignment, exhaustively
      on small words and by property tests on random templates
    - the layout's spans and flange indices reproduce the worked
      decompositions, and inject_all on a flange multiplicity of
      100000000 allocates under 2 MiB
    - reductions (built by the test oracle) come from flange clusters
      only; the capped template reduces to its bare section (so its
      blow-up locus is one coideal)
    - the placement pass decides the blow-up locus and the injection as
      the reduced templates and the splitting search do: exhaustively on
      every alternating template of up to 4 clusters and words of up to
      8 symbols, by property test on random templates, and at flange
      clusters on either end of a template
    - on words of a million symbols, member, member_J, inject and phi_tw
      make a few operations on the word's packed bits per cluster, never
      one per symbol
    - the injection decomposes uniquely, preserves edges, and its image
      matches the worked descriptions
    - the section coordinates read off the greedy pass are the one
      decomposition the splitting search finds, off the blow-up locus,
      exhaustively to 14 symbols and by property test on random templates
    - the splitting search finds exactly the splittings that trying
      every cut of the word's text against the flange words and the
      sections' regular expressions finds, in the same order: on every
      word below 10 symbols of the four benchmark models, locus words
      and words off the coideal included, and by property test on
      random templates
    - a growth model's eps-deformed intervals and section intervals are
      those built from the oracle's own flange test, by property test on
      random semifinite templates and weights
    - the candidate generator word and its sufficiency flag behave as
      documented, including the exhaustive identity when the flag holds
    - the max-block ideal has Pascal-graph level counts
    - the placement walk inside a coideal lists exactly the words of
      the filtered level scan, in the same order, on random templates
    - the placement step walks each template's coideal and reads its
      blow-up locus as member and member_J do, and as the regular
      expressions of the template and its reduced templates do: on every
      alternating template of up to 5 clusters with multiplicities 1, 2,
      3 and * to 12 symbols, and by property test on random templates;
      a multiplicity of 100000000 compiles to the table of a 1, and a
      walk numbers only the placement states of its words, as many as
      its length allows the first cluster to take, those of +13 below 13
      symbols; coideal-identities, finite-harmonicity, distinctness and
      graph --ideal run no greedy pass on a walked word, and semifinite
      one, the place call it compares with
    - the per-word walk is the layer walk word for word and state for
      state on the example templates to 12 symbols; the layer walk of a
      None start is empty, it ends at the first length that keeps no
      word, a search that stops early builds no further length, and a
      bound past the cap is refused before any step
"""

import pickle
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxblock_oracle import maxblock_member
from model_oracle import value_kind
from template_oracle import (alternating_templates, inject_by_reduction, is_flange,
                             locus_by_reduction, reduced_templates, single_generator_word,
                             splittings, template_regex)
from word_oracle import enumerate_level
from zigzag_harmonics import (EMPTY, BinaryWord, Cluster, GrowthModel, Template,
                              build_w_eps, inject, inject_all,
                              is_finite_template, is_subword, lower_covers, member,
                              member_J, minimal_maxblock_word, on_locus, parse_template,
                              phi_tw, place, placement, section_interval_tuples,
                              upper_covers, walk, walk_levels, words_below)
from zigzag_harmonics import cli, templates, verify
from zigzag_harmonics.templates import _layout
from zigzag_harmonics.verify import EXAMPLE_MODELS
from zigzag_harmonics.words import LEVEL_CAP

W = BinaryWord.from_str

STEP = parse_template("+* -1 +1 -*")
CAPPED = parse_template("+1 -* +* -1 +*")
BRACKETED = parse_template("-1 +* -* +1 -* +* -* +1")
TWO_FLANGE = parse_template("-2 +* -* +1 -* +* -1 +2")
FIGURE = parse_template("-1 +* -* +1 -1 +* -2 +* -1 +1 -2 +* -* +1 -*")


# -- oracle -------------------------------------------------------------------

def brute_member(t, w):
    """Try every split of w into len(t) consecutive, possibly empty chunks."""
    n, k = len(w), len(t.clusters)
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        bounds = (0,) + cuts + (n,)
        ok = True
        for (start, stop), c in zip(zip(bounds, bounds[1:]), t.clusters):
            size = stop - start
            if size == 0:
                continue
            if c.mult is not None and size > c.mult:
                ok = False
                break
            if any(w.symbol(i) != c.sign for i in range(start, stop)):
                ok = False
                break
        if ok:
            return True
    return False


# -- grammar ------------------------------------------------------------------

def test_parse_and_render():
    t = parse_template("+* -1 +1 -*")
    assert str(t) == "+* -1 +1 -*"
    assert parse_template("+*").infinite_count == 1
    assert parse_template(str(FIGURE)) == FIGURE


@pytest.mark.parametrize("text", ["+1 -1", "+* +1", "+* -0 +*", "1+ -*", "+x", ""])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_template(text)


# -- finiteness ---------------------------------------------------------------

def test_finiteness_worked_pair():
    assert is_finite_template(parse_template("+* -* +* -1 +* -1 +* -* +1 -*"))
    assert not is_finite_template(FIGURE)
    assert is_finite_template(parse_template("+*"))
    assert not is_finite_template(STEP)


# -- membership ---------------------------------------------------------------

def test_member_examples():
    assert member(CAPPED, W("+--+"))
    assert member(STEP, EMPTY)
    # the bent words +^n - + -^m all fit the step template, n = m = 1 included
    assert member(STEP, W("+-+-"))
    assert not member(STEP, W("-++"))
    assert not member(STEP, W("+-+-+"))
    assert not member(STEP, W("+--+"))


def test_member_matches_brute_force():
    templates = [STEP, CAPPED, BRACKETED, parse_template("+*"),
                 parse_template("-2 +* -1 +3 -*")]
    for t in templates:
        for length in range(8):
            for w in enumerate_level(length):
                assert member(t, w) == brute_member(t, w), (t, w)


# half the words are cut from the template's own clusters, so that both
# answers occur often; uniformly random words of 14 symbols rarely fit
@settings(max_examples=300)
@given(alternating_templates(), st.data())
def test_member_matches_brute_force_on_random_templates(t, data):
    random_word = st.integers(0, 14).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda bits: BinaryWord(n, bits)))
    near_fit = st.tuples(*(st.integers(0, 4) for _ in t.clusters), st.integers(-1, 13)).map(
        lambda sizes: _near_fit(t, sizes))
    w = data.draw(st.one_of(random_word, near_fit))
    assert member(t, w) == brute_member(t, w), (t, w)


def _near_fit(t, sizes):
    """Chunks of the cluster signs, then one symbol flipped (index -1: none)."""
    text = "".join(c.sign * k for c, k in zip(t.clusters, sizes))[:14]
    flip = sizes[-1]
    if 0 <= flip < len(text):
        text = text[:flip] + ("+" if text[flip] == "-" else "-") + text[flip + 1:]
    return W(text)


def _filled(t, sizes):
    """Finite clusters at their full multiplicity, infinite ones at the drawn sizes."""
    return W("".join(c.sign * (k if c.is_infinite else c.mult)
                     for c, k in zip(t.clusters, sizes)))


def test_coideals_are_saturated():
    for t in (STEP, CAPPED, BRACKETED):
        for length in range(1, 11):
            for w in enumerate_level(length):
                if not member(t, w):
                    continue
                assert all(member(t, c) for c in lower_covers(w))
                assert any(member(t, c) for c in upper_covers(w))


# -- flange and sections ------------------------------------------------------

def _flange_words_and_sections(t):
    """The flange words between the sections and the section templates, as
    text, read off the layout's spans and flange indices."""
    spans, flange = _layout(t)
    cuts = (0, *(i for span in spans for i in span), len(t))
    gaps = list(zip(cuts[::2], cuts[1::2]))
    # the flange indices are exactly the clusters between the sections
    assert list(flange) == [i for lo, hi in gaps for i in range(lo, hi)], t
    return (["".join(c.sign * c.mult for c in t.clusters[lo:hi]) for lo, hi in gaps],
            [str(Template(t.clusters[lo:hi])) for lo, hi in spans])


def test_flange_worked_decomposition():
    assert _layout(FIGURE) == (((1, 3), (5, 6), (7, 8), (11, 15)), (0, 3, 4, 6, 8, 9, 10))
    words, sections = _flange_words_and_sections(FIGURE)
    assert words == ["-", "+-", "--", "-+--", ""]
    assert sections == ["+* -*", "+*", "+*", "+* -* +1 -*"]


def test_flange_step_and_capped():
    assert _layout(STEP) == (((0, 1), (3, 4)), (1, 2))
    assert _flange_words_and_sections(STEP) == (["", "-+", ""], ["+*", "-*"])

    assert _layout(CAPPED) == (((1, 5),), (0,))
    assert _flange_words_and_sections(CAPPED) == (["+", ""], ["-* +* -1 +*"])


def test_flange_of_finite_template_is_empty():
    t = parse_template("+* -1 +*")
    assert _layout(t) == (((0, 3),), ())
    assert _flange_words_and_sections(t) == (["", ""], [str(t)])


def test_inject_all_on_a_huge_flange_multiplicity_stays_small():
    # a flange cluster of 10^8 symbols is checked against the rest of the
    # word's length before any mask is built, and never spelt out
    t = parse_template("+100000000 -* +* -1 +*")
    tracemalloc.start()
    try:
        for w in words_below(8):
            assert inject_all(t, w) == [], w
        assert inject_all(t, W("+" * 1000 + "-+--+")) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


# -- reductions and the blow-up locus ----------------------------------------

def test_reduced_templates():
    # the separating cluster of the capped template is not reducible,
    # so its blow-up locus is the single bare-section coideal
    assert reduced_templates(CAPPED) == (parse_template("-* +* -1 +*"),)
    # both step flange clusters reduce to the same two-ray template
    assert reduced_templates(STEP) == (parse_template("+* -*"),)
    assert reduced_templates(BRACKETED) == (
        parse_template("+* -* +1 -* +* -* +1"),
        parse_template("-1 +* -* +1 -* +* -*"),
    )


def test_multiplicity_decrement_keeps_cluster():
    t = parse_template("-2 +* -* +1 -*")
    assert parse_template("-1 +* -* +1 -*") in reduced_templates(t)


def test_member_J_examples():
    assert member_J(STEP, W("++--"))
    assert not member_J(STEP, W("-+"))
    assert member_J(STEP, EMPTY)
    # finite templates have nothing to reduce
    assert reduced_templates(parse_template("+* -1 +*")) == ()
    assert not member_J(parse_template("+* -1 +*"), EMPTY)


def test_blow_up_locus_sits_inside_the_coideal():
    for t in (STEP, CAPPED, BRACKETED):
        for length in range(11):
            for w in enumerate_level(length):
                if member_J(t, w):
                    assert member(t, w)


def test_blow_up_locus_is_saturated_coideal():
    for t in (STEP, CAPPED, BRACKETED):
        for length in range(1, 11):
            for w in enumerate_level(length):
                if not (member(t, w) and member_J(t, w)):
                    continue
                assert all(member_J(t, c) for c in lower_covers(w))
                assert any(member_J(t, c) and member(t, c)
                           for c in upper_covers(w))


def _agrees_with_reduction(t, w):
    """member_J and inject against the reduced-template definition."""
    assert member_J(t, w) == locus_by_reduction(t, w), (t, w)
    def coordinates(injection):
        try:
            return injection(t, w)
        except ValueError:
            return None

    assert coordinates(inject) == coordinates(inject_by_reduction), (t, w)


def _alternating(first, mults):
    other = "-" if first == "+" else "+"
    return Template(tuple(Cluster(first if i % 2 == 0 else other, m)
                          for i, m in enumerate(mults)))


def test_placement_matches_reduced_templates_exhaustively():
    # every alternating template of up to 4 clusters with multiplicities
    # 1, 2 and infinity, and every word of up to 8 symbols
    words = list(words_below(9))
    templates = [_alternating(first, mults) for k in range(1, 5) for first in "+-"
                 for mults in product((1, 2, None), repeat=k) if None in mults]
    assert len(templates) == 180
    for t in templates:
        for w in words:
            _agrees_with_reduction(t, w)


@settings(max_examples=300)
@given(alternating_templates(), st.data())
def test_placement_matches_reduced_templates_on_random_templates(t, data):
    sizes = st.tuples(*(st.integers(0, 4) for _ in t.clusters), st.integers(-1, 13))
    w = data.draw(st.one_of(sizes.map(lambda s: _filled(t, s)),
                            sizes.map(lambda s: _near_fit(t, s))))
    _agrees_with_reduction(t, w)


@pytest.mark.parametrize("text, locus, off, coords", [
    ("+* -1", ["++", ""], "+-", ("+",)),
    ("-2 +*", ["-++", "-+"], "--+", ("+",)),
    ("-1 +* -1", ["+-", "-+"], "-+-", ("+",)),
])
def test_flange_clusters_at_the_ends(text, locus, off, coords):
    # the mirror pass must check the first and the last cluster too
    t = parse_template(text)
    for w in locus:
        assert member_J(t, W(w)), w
        assert locus_by_reduction(t, W(w)), w
    assert not member_J(t, W(off))
    assert inject(t, W(off)) == tuple(W(c) for c in coords)
    _agrees_with_reduction(t, W(off))


class _CountedBits(int):
    """Packed bits that count the integer operations made on them."""

    def __new__(cls, value):
        bits = super().__new__(cls, value)
        bits.ops = 0
        return bits


def _counted(name):
    op = getattr(int, name)

    def counted(self, *args):
        self.ops += 1
        return op(self, *args)
    return counted


for _name in ("__rshift__", "__lshift__", "__and__", "__rand__", "__or__", "__ror__",
              "__xor__", "__rxor__", "__invert__", "__neg__", "__add__", "__radd__",
              "__sub__", "__rsub__"):
    setattr(_CountedBits, _name, _counted(_name))


def test_placement_takes_a_few_integer_steps_per_cluster_on_long_words():
    # words of 10^6 symbols: a step per symbol would be a million
    # operations on the word's bits, each on a million-bit integer
    n, half = 10 ** 6, 10 ** 6 // 2
    long_flange = GrowthModel.parse("+100000000 -* +* -1 +* | w=1/2,1/3,1/6")
    step = EXAMPLE_MODELS["step"]
    tail = (1 << (n - half - 2)) - 1
    cases = [  # model, packed bits, member, member_J, phi_tw kind, inject
        (long_flange, 0, True, True, "infinite", None),                 # +^n
        (long_flange, 0b01101 << (n - 5), False, False, "zero", None),  # +^(n-5) -+--+
        (step, 0, True, True, "infinite", None),                        # +^n
        (step, 0b0101 << (n - 4), False, False, "zero", None),          # +^(n-4) -+-+
        (step, 1 << half | tail << (half + 2), True, False, None,       # +^h -+ -^(n-h-2)
         (BinaryWord(half, 0), BinaryWord(n - half - 2, tail))),
    ]
    started = time.perf_counter()
    for model, bits, fits, blown, kind, coords in cases:
        t = model.template
        w = BinaryWord(n, _CountedBits(bits))
        calls = [(lambda: member(t, w), fits), (lambda: member_J(t, w), blown),
                 (lambda: inject(t, w), coords)]
        if kind is not None:
            calls.append((lambda: value_kind(phi_tw(model, w)), kind))
        for call, expected in calls:
            before = w.bits.ops
            try:
                result = call()
            except ValueError:
                result = None
            assert result == expected, (t, expected)
            assert w.bits.ops - before <= 3 * len(t), (t, expected)
    assert time.perf_counter() - started < 1.0


# -- injection ----------------------------------------------------------------

def test_inject_worked_examples():
    assert inject(STEP, W("++-+--")) == (W("++"), W("--"))
    assert inject(CAPPED, W("+--+")) == (W("--+"),)
    assert inject(BRACKETED, W("-+-+-+-+")) == (W("+-+-+-"),)


def test_inject_preconditions():
    with pytest.raises(ValueError):
        inject(STEP, W("-++"))  # outside the coideal
    with pytest.raises(ValueError):
        inject(STEP, W("++--"))  # inside the blow-up locus


def test_inject_unique_on_small_levels():
    # every finite-value word of up to 14 symbols: the greedy coordinates
    # are the one decomposition that the splitting search finds
    for t in (STEP, CAPPED, BRACKETED, TWO_FLANGE):
        checked = 0
        for w, state in walk(15, *placement(t)):
            if not on_locus(state):
                assert inject_all(t, w) == [inject(t, w)], (t, w)
                checked += 1
        assert checked > 50, t


# filled words fit t with every flange cluster full, so many of them lie
# off the blow-up locus, where the coordinates mean something
@settings(max_examples=300)
@given(alternating_templates().filter(lambda t: not is_finite_template(t)), st.data())
def test_greedy_coordinates_on_random_semifinite_templates(t, data):
    sizes = st.tuples(*(st.integers(0, 4) for _ in t.clusters), st.integers(-1, 13))
    w = data.draw(st.one_of(sizes.map(lambda s: _filled(t, s)),
                            sizes.map(lambda s: _near_fit(t, s))))
    fits, cuts = place(t, w)
    assert fits == member(t, w), (t, w)
    if cuts is not None:
        assert inject_all(t, w) == [tuple(w.sub(a, b) for a, b in cuts)], (t, w)


def test_inject_all_finds_every_splitting_of_the_text():
    # every word below 10 symbols, locus words and words off the coideal
    # included, against the cut-by-cut search over the word's text
    for t in (STEP, CAPPED, BRACKETED, TWO_FLANGE):
        several = 0
        for w in words_below(10):
            found = inject_all(t, w)
            assert found == splittings(t, w), (t, w)
            several += len(found) > 1
        assert several == 0, t
    # off the examples' coideals a word may split in several ways
    t = parse_template("+* -* +2 -* +*")
    assert inject_all(t, W("+++")) == splittings(t, W("+++")) == [
        (W(""), W("+")), (W("+"), W(""))]


@settings(max_examples=200)
@given(alternating_templates(), st.data())
def test_inject_all_finds_every_splitting_on_random_templates(t, data):
    sizes = st.tuples(*(st.integers(0, 3) for _ in t.clusters), st.integers(-1, 11))
    w = data.draw(st.one_of(sizes.map(lambda s: _filled(t, s)),
                            sizes.map(lambda s: _near_fit(t, s))))
    assert inject_all(t, w) == splittings(t, w), (t, w)


def _by_flange_test(t, weights, eps):
    """The eps-deformed intervals and the section intervals, built from the
    oracle's flange test: maximal runs of flange clusters are the flange
    words, one eps-interval per block, and the runs between them the
    sections, one weighted interval per infinite cluster."""
    weights = iter(weights)
    deformed, sections = [], []
    for flange, run in groupby(range(len(t)), key=lambda i: is_flange(t, i)):
        clusters = [t.clusters[i] for i in run]
        if flange:
            word = W("".join(c.sign * c.mult for c in clusters))
            deformed.extend((sign, eps) for sign, _ in word.blocks())
        else:
            sections.append(tuple((c.sign, next(weights)) for c in clusters if c.is_infinite))
            deformed.extend(sections[-1])
    return tuple(deformed), tuple(sections)


@settings(max_examples=300)
@given(alternating_templates().filter(lambda t: not is_finite_template(t)), st.data())
def test_eps_deformation_and_sections_follow_the_flange_test(t, data):
    raw = data.draw(st.lists(st.integers(1, 9), min_size=t.infinite_count,
                             max_size=t.infinite_count))
    model = GrowthModel(t, tuple(Fraction(r, sum(raw)) for r in raw))
    eps = data.draw(st.integers(1, 9).map(lambda k: Fraction(1, k)))
    deformed, sections = _by_flange_test(t, model.weights, eps)
    assert build_w_eps(model, eps).intervals == deformed, t
    assert tuple(u.intervals for u in section_interval_tuples(model)) == sections, t


def test_capped_image_is_generated_by_two_minuses():
    section = parse_template("-* +* -1 +*")
    for length in range(1, 10):
        image = {inject(CAPPED, w)[0] for w in enumerate_level(length)
                 if member(CAPPED, w) and not member_J(CAPPED, w)}
        expected = {u for u in enumerate_level(length - 1)
                    if member(section, u) and is_subword(W("--"), u)}
        assert image == expected


def test_step_image_is_all_pairs_of_boxes():
    for length in range(2, 10):
        image = {inject(STEP, w) for w in enumerate_level(length)
                 if member(STEP, w) and not member_J(STEP, w)}
        expected = {(W("+" * (r - 1)), W("-" * (length - r - 1)))
                    for r in range(1, length)}
        assert image == expected


# -- generator word -----------------------------------------------------------

def test_single_generator_word_examples():
    t = parse_template("+* -* +2 -* +* -1 +* -3")
    word, flag = single_generator_word(t)
    assert str(word) == "-++-+----"
    assert flag

    word, flag = single_generator_word(parse_template("+*"))
    assert word == EMPTY and flag

    word, flag = single_generator_word(STEP)
    assert str(word) == "-+" and flag

    _, flag = single_generator_word(BRACKETED)
    assert not flag  # contains an avoided pattern
    _, flag = single_generator_word(CAPPED)
    assert not flag  # ends with a forbidden suffix


def test_flagged_generator_describes_the_ideal():
    for t in (STEP, parse_template("+* -2 +* -1 +*"),
              parse_template("-* +1 -2 +*"),
              parse_template("+* -* +2 -* +* -1 +* -3")):
        a_t, flag = single_generator_word(t)
        assert flag
        for length in range(12):
            for w in enumerate_level(length):
                if not member(t, w):
                    continue
                assert (not member_J(t, w)) == is_subword(a_t, w), (t, w)


# -- max-block ideal ----------------------------------------------------------

def test_minimal_maxblock_word():
    assert str(minimal_maxblock_word(STEP)) == "+-+-"
    assert str(minimal_maxblock_word(BRACKETED)) == "-+-+-+-+"
    assert str(minimal_maxblock_word(parse_template("+2 -* +*"))) == "++-+"


def test_maxblock_ideal_has_pascal_counts():
    from math import comb

    for t in (STEP, CAPPED, BRACKETED, parse_template("+* -1 +* -*")):
        d = t.infinite_count
        base = len(minimal_maxblock_word(t))
        for extra in range(5):
            count = sum(1 for w in enumerate_level(base + extra)
                        if maxblock_member(t, w))
            assert count == comb(extra + d - 1, d - 1)


# -- the coideal walk ---------------------------------------------------------

def _scan(n, within):
    return [w for k in range(n) for w in enumerate_level(k) if within(w)]


def _in(t):
    return lambda w: member(t, w)


@settings(max_examples=100)
@given(alternating_templates(), st.integers(0, 16), st.data())
def test_walk_matches_membership_on_random_templates(t, n, data):
    walked = [w for w, _ in walk(n + 1, *placement(t))]
    if n <= 10:
        assert walked == _scan(n + 1, _in(t))
    assert all(member(t, w) for w in walked)
    assert walked == sorted(walked, key=lambda w: (len(w), str(w)))
    # above 10 symbols the level scan is too long: sampled words stand in
    seen = set(walked)
    random_word = st.integers(0, n).flatmap(
        lambda k: st.integers(0, (1 << k) - 1).map(lambda bits: BinaryWord(k, bits)))
    near_fit = st.tuples(*(st.integers(0, 4) for _ in t.clusters), st.integers(-1, 13)).map(
        lambda sizes: _near_fit(t, sizes))
    for w in data.draw(st.lists(st.one_of(random_word, near_fit), max_size=20)):
        if len(w) <= n:
            assert (w in seen) == member(t, w), (t, w)


# -- the placement step -------------------------------------------------------

def _every_template(most_clusters, first):
    """Every alternating template of up to most_clusters clusters with
    multiplicities 1, 2, 3 and *, starting with the sign first."""
    other = "-" if first == "+" else "+"
    for k in range(1, most_clusters + 1):
        signs = [other if i % 2 else first for i in range(k)]
        for mults in product((1, 2, 3, None), repeat=k):
            if None in mults:
                yield Template(tuple(map(Cluster, signs, mults)))


def _walked(t, n):
    return [(w, on_locus(state)) for w, state in walk(n + 1, *placement(t))]


def _check_walk(t, n):
    """The walk of t's placement step to n symbols against place, the pass
    behind member and member_J, and against the regular expressions of t
    and of its reduced templates, which share nothing with either.  Each
    word the walk prunes below n symbols must fit neither."""
    walked = _walked(t, n)
    fits = template_regex(t).fullmatch
    # the union of the reduced coideals; a finite template has none
    blown = re.compile("|".join(template_regex(r).pattern for r in reduced_templates(t))
                       or "(?!)").fullmatch
    seen = {w for w, _ in walked}
    assert walked[0][0] == EMPTY
    for w, locus in walked:
        text = str(w)
        in_t, cuts = place(t, w)
        assert in_t and fits(text) and locus == (cuts is None) == bool(blown(text)), (t, w)
        if len(w) < n:
            for c in (BinaryWord(len(w) + 1, w.bits | bit << len(w)) for bit in (0, 1)):
                assert c in seen or not (member(t, c) or fits(str(c))), (t, c)
    return walked


def _mirror(t):
    return Template(tuple(Cluster("-" if c.sign == "+" else "+", c.mult) for c in t.clusters))


def test_the_walk_places_every_word_of_every_small_template():
    # the templates that start with '-' are the mirror images of the rest:
    # their walk is the other's with every symbol flipped
    count = 0
    for t in _every_template(5, "+"):
        flipped = {BinaryWord(len(w), w.bits ^ ((1 << len(w)) - 1)): locus
                   for w, locus in _check_walk(t, 12)}
        assert dict(_walked(_mirror(t), 12)) == flipped, t
        count += 2
    assert count == 2002


@settings(max_examples=100)
@given(alternating_templates(), st.integers(0, 14))
def test_the_walk_places_every_word_of_random_templates(t, n):
    _check_walk(t, n)


@pytest.mark.parametrize("t", [STEP, CAPPED, BRACKETED, TWO_FLANGE, FIGURE], ids=str)
def test_the_walk_is_the_layer_walk_word_by_word(t):
    start, step = placement(t)
    layers = list(walk_levels(13, start, step))
    assert [length for length, _ in layers] == list(range(13))
    assert list(walk(13, start, step)) == [
        (BinaryWord(length, bits), at) for length, layer in layers for bits, at in layer]


def test_the_layer_walk_stops_where_its_words_do():
    steps = []

    def step(depth, bit):
        steps.append(depth)
        return depth + 1 if depth < 2 else None

    # a None start walks nothing, and a length that keeps no word ends the walk
    assert list(walk_levels(5, None, step)) == list(walk(5, None, step)) == []
    assert [(length, len(layer)) for length, layer in walk_levels(10, 0, step)] == [
        (0, 1), (1, 2), (2, 4)]
    assert len(steps) == 2 + 4 + 8
    # a search that stops early builds no further length: the words of 2
    # symbols come from stepping the 1 + 2 shorter ones, none of theirs
    steps.clear()
    for length, layer in walk_levels(10, 0, step):
        if length == 2:
            break
    assert len(steps) == 2 + 4
    steps.clear()
    assert next(w for w, _ in walk(10, 0, step) if w.n == 2) == BinaryWord(2, 0)
    assert len(steps) == 2 + 4

    def refused(state, bit):
        raise AssertionError("a refused walk stepped a state")

    # the cap is refused at the call, before any word or step
    for bound in (LEVEL_CAP + 2, -1):
        with pytest.raises(ValueError):
            walk_levels(bound, 0, refused)
        with pytest.raises(ValueError):
            walk(bound, 0, refused)


def test_a_huge_multiplicity_keeps_the_step_state_small():
    # a placement state is a small id, numbered when a walk first reaches
    # it, and a walk numbers only the states of its own words; the first
    # cluster's count makes one state per symbol it took, so their number
    # follows the walk's length, never the multiplicity
    text = "+100000000 -* +* -1 +*"
    states = {}
    for n in (5, 9, 13, 21):
        huge = parse_template(text)
        reached = {at for _, at in walk(n, *placement(huge))}
        assert reached == set(huge._placement.ids.values()), n
        states[n] = len(reached)
    assert states == {5: 9, 9: 13, 13: 17, 21: 25}
    # one table row per cluster and symbol, in t and in its reduced template
    assert [len(table) for table in huge._placement.advance.args[0]] == [10, 10]
    # below 13 symbols the first cluster never fills: the walk numbers the
    # states of +13, id for id, and the stored automaton is data
    huge, thirteen = parse_template(text), parse_template("+13 -* +* -1 +*")
    walked = list(walk(13, *placement(huge)))
    assert walked == list(walk(13, *placement(thirteen)))
    assert huge._placement == thirteen._placement
    copy = pickle.loads(pickle.dumps(huge))
    assert copy == huge and copy._placement == huge._placement
    assert list(walk(15, *placement(copy))) == list(walk(15, *placement(huge)))
    # twelve '+' leave the first cluster short: the word is on the locus
    assert all(on_locus(at) for w, at in walked if w.bits == 0)
    assert member_J(huge, BinaryWord.from_str("+" * 1000 + "--+-"))
    assert _walked(huge, 12) == [(w, member_J(huge, w)) for w in words_below(13)
                                 if member(huge, w)]


def test_the_walked_suites_place_no_walked_word(monkeypatch):
    placed = []
    real = templates._greedy
    monkeypatch.setattr(templates, "_greedy", lambda runs, bits, n, *rest: placed.append(
        BinaryWord(n, bits)) or real(runs, bits, n, *rest))
    # member and member_J of the two common lower covers of g1 and g2
    verify.run_suite("coideal-identities", level=11)
    assert sorted(map(str, placed)) == ["-++-+-+", "-++-+-+", "-+-++-+", "-+-++-+"]
    placed.clear()
    verify.run_suite("finite-harmonicity", level=10)
    verify.run_suite("distinctness", level=10)
    cli._graph_data(10, str(BRACKETED), True)
    assert placed == []
    # semifinite: the place call its trichotomy compares with, once per
    # walked word, and phi_tw at the 25 words of the step closed form
    verify.run_suite("semifinite", level=10)
    assert len(placed) == 91 + 259 + 875 + 25
