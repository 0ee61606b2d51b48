"""Growth models: trichotomy, harmonicity, deformation, ring identity.

Core claims:
    - model validation enforces semifiniteness and weight shape
    - evaluations follow the worked step-model closed form and are
      zero / finite / infinite exactly off the coideal / on its finite
      part / on the blow-up locus (root included)
    - a value is a Fraction or INFINITY, which prints inf and unpickles
      to itself; its text is 0, inf or a reduced p/q on every word below
      10 symbols of the three example models, and a zero section
      numerator off the blow-up locus raises instead of printing 0
    - the harmonicity identity holds with extended arithmetic, at the
      point values and on the integer numerators of the suite's table
    - each model's automaton reads phi_tw's kind and value off every
      word below 13 symbols of 26 models, among them two whose skipped
      sections weigh other than one, and by property test on random
      templates and weights; a planted fault that counts a skipped
      section as one fails that comparison and passes the semifinite
      suite; a multiplicity of 100000000 steps the placement states of
      a 13 below 13 symbols, and a compiled model pickles with its caches
      at every protocol, its copy's walk numbering the same states
    - model weights are exact rationals; floats and bools are refused,
      and each refusal of a model, paintbox or interval length carries
      its message
    - phi_tw, on integer section numerators with one division, is the
      product of eval_F over inject's coordinates and the
      section_interval_tuples, on every word below 11 symbols of the four
      benchmark models and by property test on random models
    - phi_tw is zero, finite or infinite exactly as the coideal and the
      reduced coideals, read as regular expressions, say: on the root
      and every word below 11 symbols, for four models
    - the eps deformation has one interval per flange cluster; the
      base-2^b digits of one integer evaluation at eps = 2^b, b as the
      limit check picks it, equal the splitting sum over formal eps
      polynomials times D^(n+1), and interpolate the rational
      evaluations at n + 2 values of eps
    - valuation and ratio are constant above the marker word, to
      level 12; the step model measures n = 1 with ratio 2
    - the eps-limit walk gives the report of the point-by-point route of
      tests/eps_oracle.py on five models at every level from the marker
      to 12
    - the ring identity holds against the model's paintbox, and refuses
      a combined degree above the product cap before any work
    - the worked approximating sequence is certified inside the
      coideal's cone, with the expected values and sharp levels
"""

import pickle
import re
import time
from fractions import Fraction
from functools import partial

import pytest

from eps_oracle import EPS, EpsPoly, brute_eval, eps_intervals, limit_by_points
from hypothesis import given, settings
from hypothesis import strategies as st

from model_oracle import automaton_mismatches, cover_sum, value_kind
from template_oracle import alternating_templates, reduced_templates, template_regex
from word_oracle import enumerate_level
from zigzag_harmonics import (EMPTY, INFINITY, ROOT, BinaryWord,
                              FormalCombination, GrowthModel, IntervalTuple, Paintbox, automaton,
                              inject,
                              automaton_numerator, automaton_step, build_w_eps,
                              check_approx_sequence, check_limit_formula,
                              eval_F, eval_F_numerator, is_finite_template, level, member,
                              minimal_maxblock_word, model_paintbox, parse_template, phi_tw,
                              placement,
                              ring_identity_failures, section_interval_tuples,
                              semifinite, template_of_intervals, upper_covers, verify,
                              walk, words_below)
from zigzag_harmonics.verify import (BRACKETED_MODEL, CAPPED_MODEL, DISTINCT_PAIRS,
                                     EXAMPLE_MODELS, STEP_MODEL, semifinite_table)
from zigzag_harmonics.words import LEVEL_CAP

W = BinaryWord.from_str
F = Fraction


# -- values and polynomials ---------------------------------------------------

def test_infinity_prints_inf_and_unpickles_to_itself():
    assert str(INFINITY) == "inf" and repr(INFINITY) == "INFINITY"
    assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY


def test_a_zero_section_numerator_off_the_locus_raises(monkeypatch):
    # -+ is a finite point of the step model; 0 there would print as if
    # the word were off the coideal
    monkeypatch.setattr(semifinite, "eval_F_numerator", lambda w, intervals: 0)
    with pytest.raises(ValueError, match="^finite values must be positive, got 0$"):
        phi_tw(STEP_MODEL, W("-+"))


def test_phi_tw_prints_zero_inf_or_a_reduced_fraction():
    # the text that a reader of `zigzag eval --model` parses
    for model in EXAMPLE_MODELS.values():
        assert str(phi_tw(model, ROOT)) == "inf"
        for w in words_below(10):
            text = str(phi_tw(model, w))
            assert re.fullmatch(r"0|inf|[1-9][0-9]*(/[1-9][0-9]*)?", text), (model, w, text)
            if "/" in text:
                value = Fraction(text)  # reduced, so equal texts mean a reduced text
                assert text == f"{value.numerator}/{value.denominator}", (model, w, text)
                assert value.denominator > 1, (model, w, text)


def test_eps_poly_arithmetic():
    p = (1 + EPS) * (1 + EPS)
    assert p == EpsPoly({0: 1, 1: 2, 2: 1})
    assert (EPS ** 3).valuation() == 3
    q = F(1, 2) * EPS + F(1, 2) * EPS
    assert q == EpsPoly({1: 1})
    assert (EPS + (-1) * EPS).is_zero
    assert EpsPoly({2: F(5)}).leading() == 5
    with pytest.raises(ValueError):
        EpsPoly().leading()


# -- growth models ------------------------------------------------------------

def test_model_validation():
    refusals = {
        "+* -1 +* | w=1/2,1/2": "template +* -1 +* is finite",
        "+* -1 +1 -* | w=1/2": "need 2 weights, got 1",
        "+* -1 +1 -* | w=1/2,1/3": "weights must sum to 1",
        "+* -1 +1 -* | w=1/2,1/2,0": "need 2 weights, got 3",
        "+* -1 +1 -* | w=3/2,-1/2": "weights must be positive ints or Fractions",
        "+* -1 +1 -* | w=0,1": "weights must be positive ints or Fractions",
    }
    for text, message in refusals.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrowthModel.parse(text)
    with pytest.raises(ValueError, match="^paintbox lengths must sum to 1, got 5/6$"):
        Paintbox.parse("+1/2,-1/3")
    for length in (0, -1, F(0), F(-1, 2)):
        with pytest.raises(ValueError, match=f"^length {re.escape(repr(length))} is not a positive"):
            IntervalTuple((("+", F(1, 2)), ("-", length)))
    m = GrowthModel.parse(" +* -1 +1 -*  |  w=1/3,2/3 ")
    assert str(m) == "+* -1 +1 -* | w=1/3,2/3"
    assert m._scaled == (3, (1, 2))  # the integer form: D and the weights scaled by it


def test_model_refuses_float_weights():
    # 0.1 + 0.9 == 1.0 in floats, so only the type check catches these;
    # True is an int, but a model of weight True would print as w=True
    for weights in ((0.25, 0.75), (0.1, 0.9)):
        with pytest.raises(ValueError, match="positive ints or Fractions"):
            GrowthModel(parse_template("+* -1 +1 -*"), weights)
    with pytest.raises(ValueError, match="positive ints or Fractions"):
        GrowthModel(parse_template("+1 -*"), (True,))
    GrowthModel(parse_template("+* -1 +1 -*"), (F(1, 4), F(3, 4)))


def test_section_intervals_and_paintbox():
    tuples = section_interval_tuples(CAPPED_MODEL)
    assert len(tuples) == 1
    assert tuples[0].intervals == (("-", F(1, 2)), ("+", F(1, 3)), ("+", F(1, 6)))
    pb = model_paintbox(CAPPED_MODEL)
    assert pb.intervals == (("-", F(1, 2)), ("+", F(1, 3)), ("+", F(1, 6)))


# -- evaluation ---------------------------------------------------------------

def test_step_closed_form():
    w1, w2 = STEP_MODEL.weights
    for n in range(4):
        for m in range(4):
            v = W("+" * n + "-+" + "-" * m)
            value = phi_tw(STEP_MODEL, v)
            assert type(value) is Fraction and value == w1 ** (n + 1) * w2 ** (m + 1)
    assert phi_tw(STEP_MODEL, W("++--")) is INFINITY
    value = phi_tw(STEP_MODEL, W("-++"))
    assert type(value) is Fraction and value == 0
    assert phi_tw(STEP_MODEL, ROOT) is INFINITY
    assert phi_tw(STEP_MODEL, EMPTY) is INFINITY


# the four models of the benchmark's queries: the three worked models and
# one with flange clusters at both ends
QUERY_MODELS = [*EXAMPLE_MODELS.values(),
                GrowthModel.parse("-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4")]


def fraction_route_mismatches(model, words):
    """The words of finite value at which phi_tw, on integer section
    numerators with one division, is not the product of eval_F over
    inject's coordinates and the section_interval_tuples; and how many
    finite points there were."""
    tuples = section_interval_tuples(model)
    finite, wrong = 0, []
    for w in words:
        value = phi_tw(model, w)
        if value_kind(value) != "finite":
            continue
        finite += 1
        expected = F(1)
        for part, u in zip(inject(model.template, w), tuples):
            expected *= eval_F(part, u)
        if type(value) is not Fraction or value != expected:
            wrong.append(w)
    return wrong, finite


def test_phi_tw_is_the_fraction_route_to_10_symbols():
    for model in QUERY_MODELS:
        wrong, finite = fraction_route_mismatches(model, words_below(11))
        assert wrong == [] and finite, (model, wrong[:3])


@given(alternating_templates().filter(lambda t: not is_finite_template(t)), st.data())
def test_phi_tw_is_the_fraction_route_on_random_models(t, data):
    raw = data.draw(st.lists(st.integers(1, 9), min_size=t.infinite_count,
                             max_size=t.infinite_count))
    # a whole weight, 1 on a one-section model, comes as an int or a Fraction
    weights = tuple(1 if r == sum(raw) and data.draw(st.booleans()) else F(r, sum(raw))
                    for r in raw)
    model = GrowthModel(t, weights)
    assert fraction_route_mismatches(model, words_below(8))[0] == [], model


def test_phi_tw_kind_matches_the_regex_oracle():
    # member, place and phi_tw run one greedy loop, so the semifinite
    # suite cannot check the zero branch; this oracle shares none of it
    models = [*EXAMPLE_MODELS.values(),
              GrowthModel.parse("-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4")]
    for model in models:
        t = model.template
        fits = template_regex(t)
        blown = [template_regex(r) for r in reduced_templates(t)]
        assert phi_tw(model, ROOT) is INFINITY
        for w in words_below(11):
            text = str(w)
            kind = ("zero" if not fits.fullmatch(text) else
                    "infinite" if any(r.fullmatch(text) for r in blown) else "finite")
            assert value_kind(phi_tw(model, w)) == kind, (model, w)


def test_the_table_refuses_a_negative_cap_at_entry():
    with pytest.raises(ValueError, match="negative word length bound -1"):
        semifinite_table(STEP_MODEL, -1)


def test_harmonicity_examples():
    denominator, levels = semifinite_table(STEP_MODEL, 5)

    def cover_numerators(w):
        return [levels[w.n + 1].get(c.bits, 0) for c in upper_covers(w)]

    # phi_tw(-+) = 2/9 = R / 3^2, and so is the sum at its covers, whose
    # numerators are over one more factor D = 3
    assert levels[2][W("-+").bits] == 2
    assert sum(cover_numerators(W("-+"))) == denominator * 2
    # via an infinite cover
    assert levels[4][W("++--").bits] is None and None in cover_numerators(W("++--"))
    # the root's one cover, the empty word, is infinite
    assert levels[0] == {0: None}
    # off the coideal: nothing is walked
    assert W("-++").bits not in levels[3]


def test_harmonicity_small_scan():
    # the point values, summed in [0, +oo] over the covers of every word
    # of the coideal below 7 symbols, found by a level scan
    for model in (STEP_MODEL, CAPPED_MODEL, BRACKETED_MODEL):
        t = model.template
        assert cover_sum([phi_tw(model, EMPTY)]) == phi_tw(model, ROOT)
        for length in range(7):
            for w in enumerate_level(length):
                if member(t, w):
                    total = cover_sum(phi_tw(model, c) for c in upper_covers(w))
                    assert total == phi_tw(model, w), (model, w)


# -- the weighted automaton ----------------------------------------------------

# a section skipped whole between two others, and a first section of
# scaled total 2 ahead of a two-symbol flange: the models on which a
# skipped section counted as 1 shows
THREE_SECTIONS = GrowthModel.parse("+* -1 +1 -* +1 -1 +* | w=2/7,3/7,2/7")
HEAVY_FIRST = GrowthModel.parse("+* -1 +1 -* | w=2/3,1/3")
ORACLE_MODELS = [*EXAMPLE_MODELS.values(), *(m for pair in DISTINCT_PAIRS for m in pair),
                 GrowthModel.parse("-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4"),
                 THREE_SECTIONS, HEAVY_FIRST]


def test_the_automaton_is_phi_tw_below_13_symbols():
    assert len(ORACLE_MODELS) == 26
    for model in ORACLE_MODELS:
        assert automaton_mismatches(model, 13) == [], model


def _count_skipped_as_one(monkeypatch):
    """Plant a fault: a section skipped whole before the first entered
    one or between two counts as a scaled total of 1.  Models compile
    afresh under it."""
    real = semifinite.automaton

    def compiled(model):
        a = real(model)
        return a._replace(skipped=tuple((1,) * (len(row) - 1) + row[-1:] for row in a.skipped))

    for name in (semifinite, verify):
        monkeypatch.setattr(name, "automaton", compiled)


def test_a_skipped_section_counted_as_one_fails_the_automaton_oracle(monkeypatch):
    _count_skipped_as_one(monkeypatch)
    wrong = {str(model): len(automaton_mismatches(model, 13)) for model in ORACLE_MODELS}
    # the other models skip no section, or only sections of scaled total 1
    # (HEAVY_FIRST is also one of the distinctness pairs)
    assert {text: count for text, count in wrong.items() if count} == {
        str(THREE_SECTIONS): 72, str(HEAVY_FIRST): 10}
    # the suite's three models skip no section of scaled total other than 1
    # ahead of another
    assert verify.run_suite("semifinite", level=10).ok


@settings(max_examples=100)
@given(alternating_templates().filter(lambda t: not is_finite_template(t)), st.data())
def test_the_automaton_is_phi_tw_on_random_models(t, data):
    raw = data.draw(st.lists(st.integers(1, 9), min_size=t.infinite_count,
                             max_size=t.infinite_count))
    model = GrowthModel(t, tuple(F(r, sum(raw)) for r in raw))
    assert automaton_mismatches(model, 10) == [], model


def test_a_huge_multiplicity_keeps_the_automaton_state_small():
    huge = GrowthModel.parse("+100000000 -* +* -1 +* | w=1/2,1/3,1/6")
    one = GrowthModel.parse("+1 -* +* -1 +* | w=1/2,1/3,1/6")
    a, b = automaton(huge), automaton(one)
    assert a.start == b.start and a._replace(placement=None, offset=None) == b._replace(
        placement=None, offset=None)
    assert (a.offset, b.offset) == (10 ** 8 - 1, 0)  # F - k: one section
    # the automaton steps the template's own placement states, numbered as
    # walks first reach them: below 13 symbols, the 17 states of +13
    assert a.placement is huge.template._placement
    assert automaton_mismatches(huge, 13) == []
    thirteen = parse_template("+13 -* +* -1 +*")
    list(walk(13, *placement(thirteen)))
    assert a.placement == thirteen._placement and len(a.placement.ids) == 17
    state = a.start
    for _ in range(12):
        state = automaton_step(a, state, 0)
    # twelve '+' are counted in a state the walk numbered, and the flange
    # leaves the section's vector and product alone
    assert len(a.placement.ids) == 17 and state[1:] == a.start[1:]
    assert automaton_numerator(a, state) is None  # still short of the flange


def test_a_compiled_model_pickles():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        model = GrowthModel.parse(str(THREE_SECTIONS))
        a = automaton(model)
        copy = pickle.loads(pickle.dumps(model, protocol))
        assert copy == model and copy._automaton == a, protocol  # the stored automaton is data
        # every cache comes along: the integer weights, the sections with
        # their transfer data, and the template's placement, one object
        # with the automaton's
        assert copy._scaled == model._scaled == (7, (2, 3, 2))
        assert copy._sections == model._sections
        assert [u._transfer for u in copy._sections] == [u._transfer for u in model._sections]
        assert copy.template._layout == model.template._layout is not None
        assert copy.template._placement is copy._automaton.placement
        walked = [(w, automaton_numerator(a, state))
                  for w, state in walk(9, a.start, partial(automaton_step, a))]
        b = automaton(copy)
        assert walked == [(w, automaton_numerator(b, state))
                          for w, state in walk(9, b.start, partial(automaton_step, b))]
        # the walk on the copy numbered the states the original's did, in order
        assert b.placement == a.placement and len(b.placement.ids) > 1, protocol


# -- deformation --------------------------------------------------------------

def limit_eps(model, cap):
    """eps = 2^b as check_limit_formula picks it at a level cap: b is the
    bit length of (D * L)^cap, L the total length at eps = 1, which every
    eps coefficient of a word below cap symbols, times D^(n+1), is under."""
    unit = build_w_eps(model, 1)
    return 1 << (int(unit.denominator * sum(unit.lengths)) ** cap).bit_length()


def base_digits(value, x):
    """The base-x digits of a non-negative integer, lowest first; () for 0."""
    digits = []
    while value:
        value, digit = divmod(value, x)
        digits.append(digit)
    return tuple(digits)


def test_build_w_eps_step():
    we = build_w_eps(STEP_MODEL, F(1, 100))
    w1, w2 = STEP_MODEL.weights
    assert we.signs == ("+", "-", "+", "-")
    assert we.lengths == (w1, F(1, 100), F(1, 100), w2)
    with pytest.raises(ValueError):
        build_w_eps(STEP_MODEL, 0)
    with pytest.raises(ValueError):
        build_w_eps(STEP_MODEL, 0.01)


def test_build_w_eps_figure_model():
    # one interval per flange cluster plus one per infinite cluster: 14
    model = GrowthModel.parse(
        "-1 +* -* +1 -1 +* -2 +* -1 +1 -2 +* -* +1 -* | "
        "w=1/7,1/7,1/7,1/7,1/7,1/7,1/7")
    we = build_w_eps(model, 2)
    assert len(we) == 14
    assert we.signs == ("-", "+", "-", "+", "-", "+", "-", "+",
                        "-", "+", "-", "+", "-", "-")
    assert we.lengths.count(2) == 7


def test_every_model_gets_an_eps_interval():
    for model in (STEP_MODEL, CAPPED_MODEL, BRACKETED_MODEL):
        assert 2 in build_w_eps(model, 2).lengths


def test_eps_expansion_step_bent_words():
    x = limit_eps(STEP_MODEL, 9)
    we = build_w_eps(STEP_MODEL, x)
    w1, w2 = STEP_MODEL.weights
    for a, b in ((1, 1), (2, 1), (1, 3)):
        w = W("+" * a + "-+" + "-" * b)
        digits, scale = base_digits(eval_F_numerator(w, we), x), we.denominator ** (w.n + 1)
        # two minimal splittings run through the pair of eps intervals
        assert digits[:2] == (0, 2 * w1 ** (a + 1) * w2 ** (b + 1) * scale)
        closed_form = w1 ** a * w2 ** b * (2 * EPS) * (w1 + EPS) * (w2 + EPS)
        assert digits == tuple(c * scale for c in closed_form.coefficients())
    assert eval_F_numerator(W("+-+-+"), we) == 0  # five blocks never fit
    assert eval_F(ROOT, we) == 1


def _t_eps_words(model, n):
    """The words of under n symbols in the coideal of the deformed template."""
    t_eps = template_of_intervals(build_w_eps(model, 1))
    return (w for w, _ in walk(n, *placement(t_eps)))


def test_eps_expansion_is_the_splitting_sum_over_eps_polynomials():
    # digits equal to the coefficients show that none reaches 2^b: a
    # carry would move a coefficient into the next digit
    for model in EXAMPLE_MODELS.values():
        x = limit_eps(model, 9)
        w_x, intervals = build_w_eps(model, x), eps_intervals(model)
        for w in _t_eps_words(model, 9):
            scale = w_x.denominator ** (w.n + 1)
            expected = EpsPoly.coerce(brute_eval(w, intervals))
            assert base_digits(eval_F_numerator(w, w_x), x) == tuple(
                c * scale for c in expected.coefficients()), (model, w)


def test_eps_expansion_interpolates_the_rational_evaluations():
    # eval_F(w, build_w_eps(model, e)) is a polynomial in e of degree at
    # most n + 1 for w of n symbols, so its values at n + 2 points fix it.
    # The sum runs on the digits: with C_k = D^(n+1) c_k and e = p/q,
    # D^(n+1) q^top * sum(c_k e^k) = sum(C_k p^k q^(top - k)).
    points = [F(k, 3) for k in range(1, 15)]
    for model in EXAMPLE_MODELS.values():
        x = limit_eps(model, 13)
        w_x = build_w_eps(model, x)
        at = {e: build_w_eps(model, e) for e in points}
        for w in _t_eps_words(model, 13):
            numerators = base_digits(eval_F_numerator(w, w_x), x)
            top = len(numerators) - 1
            assert 0 <= top <= w.n + 1, (model, w)
            scale = w_x.denominator ** (w.n + 1)
            for e in points[:w.n + 2]:
                p, q = e.numerator, e.denominator
                value = sum(c * p ** k * q ** (top - k) for k, c in enumerate(numerators))
                assert F(value, scale * q ** top) == eval_F(w, at[e]), (model, w, e)


def test_limit_formula_reads_its_digits_at_the_power_of_two_it_picks(monkeypatch):
    built = []
    real = semifinite.build_w_eps
    monkeypatch.setattr(semifinite, "build_w_eps",
                        lambda model, eps: built.append(eps) or real(model, eps))
    for model in EXAMPLE_MODELS.values():
        built.clear()
        check_limit_formula(model, 9)
        assert built == [1, limit_eps(model, 9)], model


def test_limit_formula_measured_constants():
    rep = check_limit_formula(STEP_MODEL, 9)
    assert rep.ok and rep.n == 1 and rep.const == 2
    rep = check_limit_formula(CAPPED_MODEL, 9)
    assert rep.ok and rep.n == 1 and rep.const == 1
    rep = check_limit_formula(BRACKETED_MODEL, 9)
    assert rep.ok and rep.n == 2
    with pytest.raises(ValueError):
        check_limit_formula(BRACKETED_MODEL, 8)  # below the marker level


def test_limit_formula_at_level_12():
    expected = {"step": (1, 2, 36, 294), "capped": (1, 1, 84, 126),
                "bracketed": (2, 1, 56, 64)}
    for name, model in EXAMPLE_MODELS.items():
        rep = check_limit_formula(model, 12)
        assert rep.ok and not rep.failures, name
        assert (rep.n, rep.const, rep.finite_points,
                rep.vanishing_points) == expected[name], name


# the three example models and two with more flange words
LIMIT_MODELS = {**EXAMPLE_MODELS,
                "two-flange": GrowthModel.parse("-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4"),
                "+2 -1 +* -2 +*": GrowthModel.parse("+2 -1 +* -2 +* | w=1/2,1/2")}


@pytest.mark.parametrize("name", list(LIMIT_MODELS))
def test_the_limit_walk_agrees_with_the_point_route(name):
    model = LIMIT_MODELS[name]
    marker = minimal_maxblock_word(model.template).n + 1
    for cap in range(marker, 13):
        assert check_limit_formula(model, cap) == limit_by_points(model, cap), cap


def test_limit_formula_rejects_levels_beyond_enumeration_at_entry():
    # words of LEVEL_CAP symbols sit on level LEVEL_CAP + 1, the last one scanned
    with pytest.raises(ValueError, match="enumeration cap"):
        check_limit_formula(STEP_MODEL, LEVEL_CAP + 2)


def test_limit_formula_vanishing_points_have_higher_valuation():
    w = W("+--+-")  # fits the deformed template, not the original one
    assert not member(STEP_MODEL.template, w)
    x = limit_eps(STEP_MODEL, 9)
    digits = base_digits(eval_F_numerator(w, build_w_eps(STEP_MODEL, x)), x)
    assert digits[:2] == (0, 0) and any(digits)


# -- ring identity ------------------------------------------------------------

def test_ring_identity_examples():
    assert ring_identity_failures(STEP_MODEL, (EMPTY,), (W("-+"),)) == []
    assert ring_identity_failures(STEP_MODEL, (W("+"),), (W("-+"),)) == []
    assert ring_identity_failures(STEP_MODEL, (ROOT,), (W("+-+-"),)) == []
    assert ring_identity_failures(CAPPED_MODEL, (W("-"),), (W("+--"),)) == []
    with pytest.raises(ValueError):
        ring_identity_failures(STEP_MODEL, (EMPTY,), (W("++--"),))


def test_ring_identity_refuses_a_degree_above_the_cap_before_any_work():
    # the table would walk the coideal to the longest product word
    started = time.perf_counter()
    with pytest.raises(ValueError, match="combined degree 18 above cap"):
        ring_identity_failures(STEP_MODEL, (W("+" * 8),), (EMPTY, W("+-" * 4)))
    assert time.perf_counter() - started < 1.0


def test_ring_identity_hand_worked_instance():
    # F_box * F_{-+} spreads over four words, two of which leave the
    # coideal; the survivors recombine to w1^2 w2 + w1 w2^2 = w1 w2.
    w1, w2 = STEP_MODEL.weights
    lhs = w1 ** 2 * w2 + w1 * w2 ** 2
    assert lhs == phi_tw(STEP_MODEL, W("-+"))
    assert ring_identity_failures(STEP_MODEL, (EMPTY,), (W("-+"),)) == []


def test_ring_identity_bracketed_generators():
    g1 = W("-+-+-+-+")
    assert ring_identity_failures(BRACKETED_MODEL, (EMPTY, W("+")), (g1,)) == []


# -- approximating sequences --------------------------------------------------

def test_approx_sequence_certified():
    w1, w2 = STEP_MODEL.weights
    target = W("++--")
    base = W("+-+-")
    seq = [FormalCombination(level(base), {base: F(n)}) for n in (1, 2, 3)]
    rep = check_approx_sequence(STEP_MODEL, target, seq, search_cap=9,
                                threshold=2 * w1 ** 2 * w2 ** 2)
    assert rep.ok
    assert rep.values == tuple(n * w1 ** 2 * w2 ** 2 for n in (1, 2, 3))
    assert rep.certified_levels == (6, 7, 8)


def test_approx_sequence_rejections():
    target = W("++--")
    stray = W("-+---")  # finite value but never dominated by the target
    seq = [FormalCombination(level(stray), {stray: F(1)})]
    rep = check_approx_sequence(STEP_MODEL, target, seq, search_cap=9)
    assert not rep.ok and rep.certified_levels == (None,)

    with pytest.raises(ValueError):
        check_approx_sequence(STEP_MODEL, W("-+"), seq, search_cap=8)
    inf_comb = [FormalCombination(5, {W("++--"): F(1)})]
    with pytest.raises(ValueError):
        check_approx_sequence(STEP_MODEL, target, inf_comb, search_cap=8)


def test_approx_sequence_threshold():
    target = W("++--")
    base = W("+-+-")
    seq = [FormalCombination(level(base), {base: F(n)}) for n in (1, 2)]
    rep = check_approx_sequence(STEP_MODEL, target, seq, search_cap=8,
                                threshold=F(10))
    assert rep.ok is False  # values fine but far below the requested bar
    # an empty sequence reaches no threshold
    rep = check_approx_sequence(STEP_MODEL, target, [], search_cap=9, threshold=F(1))
    assert rep.ok is False


# -- independent product-form cross-check --------------------------------------

def test_product_form_matches_coproduct_evaluator():
    # the section-wise product recomputed through the other evaluator
    from zigzag_harmonics import eval_F_coproduct, inject

    for model in (STEP_MODEL, CAPPED_MODEL, BRACKETED_MODEL):
        t = model.template
        tuples = section_interval_tuples(model)
        for length in range(10):
            for w in enumerate_level(length):
                if value_kind(phi_tw(model, w)) != "finite":
                    continue
                parts = inject(t, w)
                value = F(1)
                for part, u in zip(parts, tuples):
                    value *= eval_F_coproduct(part, u)
                assert phi_tw(model, w) == value, (model, w)
