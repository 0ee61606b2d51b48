"""Growth models: trichotomy, harmonicity, deformation, ring identity.

Core claims:
    - model validation enforces semifiniteness and weight shape
    - evaluations follow the worked step-model closed form and are
      zero / finite / infinite exactly off the coideal / on its finite
      part / on the blow-up locus (root included)
    - the harmonicity identity holds with extended arithmetic
    - model weights are exact rationals; floats and bools are refused
    - phi_tw is zero, finite or infinite exactly as the coideal and the
      reduced coideals, read as regular expressions, say: on the root
      and every word below 11 symbols, for four models
    - the eps deformation has one interval per flange cluster; the
      expansion read off one integer evaluation equals the splitting
      sum over formal eps polynomials, and interpolates the rational
      evaluations at n + 2 values of eps
    - valuation and ratio are constant above the marker word, to
      level 12; the step model measures n = 1 with ratio 2
    - the ring identity holds against the model's paintbox
    - the worked approximating sequence is certified inside the
      coideal's cone, with the expected values and sharp levels
"""

from fractions import Fraction

import pytest

from eps_oracle import EPS, EpsPoly, brute_eval, eps_intervals
from template_oracle import reduced_templates, template_regex
from word_oracle import enumerate_level
from zigzag_harmonics import (EMPTY, ROOT, BinaryWord, ExtValue,
                              FormalCombination, GrowthModel, build_w_eps,
                              check_approx_sequence, check_limit_formula,
                              eps_expansion, eval_F, level, member,
                              model_paintbox, parse_template, phi_tw,
                              ring_identity_failures, section_interval_tuples,
                              template_of_intervals, words_below)
from zigzag_harmonics.verify import (BRACKETED_MODEL, CAPPED_MODEL,
                                     EXAMPLE_MODELS, STEP_MODEL,
                                     semifinite_table)
from zigzag_harmonics.words import LEVEL_CAP

W = BinaryWord.from_str
F = Fraction


# -- values and polynomials ---------------------------------------------------

def test_ext_value_forms():
    assert str(ExtValue.zero()) == "0"
    assert str(ExtValue.finite(F(3, 7))) == "3/7"
    assert str(ExtValue.infinite()) == "inf"
    with pytest.raises(ValueError):
        ExtValue.finite(F(0))


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
    with pytest.raises(ValueError):
        GrowthModel.parse("+* -1 +* | w=1/2,1/2")  # finite template
    with pytest.raises(ValueError):
        GrowthModel.parse("+* -1 +1 -* | w=1/2")
    with pytest.raises(ValueError):
        GrowthModel.parse("+* -1 +1 -* | w=1/2,1/3")
    with pytest.raises(ValueError):
        GrowthModel.parse("+* -1 +1 -* | w=3/2,-1/2")
    m = GrowthModel.parse(" +* -1 +1 -*  |  w=1/3,2/3 ")
    assert str(m) == "+* -1 +1 -* | w=1/3,2/3"


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
            assert phi_tw(STEP_MODEL, v) == ExtValue.finite(
                w1 ** (n + 1) * w2 ** (m + 1))
    assert phi_tw(STEP_MODEL, W("++--")) == ExtValue.infinite()
    assert phi_tw(STEP_MODEL, W("-++")) == ExtValue.zero()
    assert phi_tw(STEP_MODEL, ROOT) == ExtValue.infinite()
    assert phi_tw(STEP_MODEL, EMPTY) == ExtValue.infinite()


def test_phi_tw_kind_matches_the_regex_oracle():
    # member, place and phi_tw run one greedy loop, so the semifinite
    # suite cannot check the zero branch; this oracle shares none of it
    models = [*EXAMPLE_MODELS.values(),
              GrowthModel.parse("-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4")]
    for model in models:
        t = model.template
        fits = template_regex(t)
        blown = [template_regex(r) for r in reduced_templates(t)]
        assert phi_tw(model, ROOT).is_infinite
        for w in words_below(11):
            text = str(w)
            kind = ("zero" if not fits.fullmatch(text) else
                    "infinite" if any(r.fullmatch(text) for r in blown) else "finite")
            assert phi_tw(model, w).kind == kind, (model, w)


def test_harmonicity_examples():
    values, sums = semifinite_table(STEP_MODEL, 5)
    assert sums[W("-+")] == values[W("-+")] == phi_tw(STEP_MODEL, W("-+"))
    # via an infinite cover
    assert sums[W("++--")] == values[W("++--")] == ExtValue.infinite()
    assert sums[ROOT] == values[ROOT] == ExtValue.infinite()
    # off the coideal: no value is kept and no sum is taken
    assert W("-++") not in values and W("-++") not in sums


def test_harmonicity_small_scan():
    for model in (STEP_MODEL, CAPPED_MODEL, BRACKETED_MODEL):
        t = model.template
        values, sums = semifinite_table(model, 7)
        assert sums[ROOT] == values[ROOT]
        for length in range(7):
            for w in enumerate_level(length):
                if member(t, w):
                    assert sums[w] == values[w], (model, w)
                else:
                    assert w not in sums, (model, w)


# -- deformation --------------------------------------------------------------

# above every eps coefficient (times D^(n+1)) of the example models to
# 12 symbols: bracketed, the largest, has D = 24 and 7 eps-intervals,
# and (24 * 8)^13 < 2^99
X = 2 ** 128


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
    we = build_w_eps(STEP_MODEL, X)
    w1, w2 = STEP_MODEL.weights
    for a, b in ((1, 1), (2, 1), (1, 3)):
        coeffs = eps_expansion(W("+" * a + "-+" + "-" * b), we)
        # two minimal splittings run through the pair of eps intervals
        assert coeffs[:2] == (0, 2 * w1 ** (a + 1) * w2 ** (b + 1))
        closed_form = w1 ** a * w2 ** b * (2 * EPS) * (w1 + EPS) * (w2 + EPS)
        assert coeffs == closed_form.coefficients()
    assert eps_expansion(W("+-+-+"), we) == ()  # five blocks never fit
    assert eps_expansion(ROOT, we) == (1,)


def _t_eps_words(model, n):
    """The words of under n symbols in the coideal of the deformed template."""
    t_eps = template_of_intervals(build_w_eps(model, 1))
    return words_below(n, lambda v: member(t_eps, v))


def test_eps_expansion_is_the_splitting_sum_over_eps_polynomials():
    for model in EXAMPLE_MODELS.values():
        w_x, intervals = build_w_eps(model, X), eps_intervals(model)
        for w in _t_eps_words(model, 9):
            expected = EpsPoly.coerce(brute_eval(w, intervals))
            assert eps_expansion(w, w_x) == expected.coefficients(), (model, w)


def test_eps_expansion_interpolates_the_rational_evaluations():
    # eval_F(w, build_w_eps(model, e)) is a polynomial in e of degree at
    # most n + 1 for w of n symbols, so its values at n + 2 points fix it.
    # The sum runs on integers: with D^(n+1) c_k = C_k and e = p/q,
    # D^(n+1) q^top * sum(c_k e^k) = sum(C_k p^k q^(top - k)).
    points = [F(k, 3) for k in range(1, 15)]
    for model in EXAMPLE_MODELS.values():
        w_x = build_w_eps(model, X)
        at = {e: build_w_eps(model, e) for e in points}
        for w in _t_eps_words(model, 13):
            coeffs = eps_expansion(w, w_x)
            top = len(coeffs) - 1
            assert 0 <= top <= w.n + 1, (model, w)
            scale = w_x.denominator ** (w.n + 1)
            scaled = [c * scale for c in coeffs]
            assert all(c.denominator == 1 for c in scaled), (model, w)
            numerators = [c.numerator for c in scaled]
            for e in points[:w.n + 2]:
                p, q = e.numerator, e.denominator
                value = sum(c * p ** k * q ** (top - k) for k, c in enumerate(numerators))
                assert F(value, scale * q ** top) == eval_F(w, at[e]), (model, w, e)


def test_eps_expansion_refuses_a_small_or_fractional_eps():
    # step: D = 3 and total length 3 at eps = 1, so a word on level 5
    # needs eps above 9^5
    w = W("+-+-")
    expected = eps_expansion(w, build_w_eps(STEP_MODEL, X))
    assert eps_expansion(w, build_w_eps(STEP_MODEL, 9 ** 5 + 1)) == expected
    for eps in (9 ** 5, F(2 ** 70 + 1, 2)):
        with pytest.raises(ValueError, match="no integer above"):
            eps_expansion(w, build_w_eps(STEP_MODEL, eps))


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


def test_limit_formula_rejects_levels_beyond_enumeration_at_entry():
    # words of LEVEL_CAP symbols sit on level LEVEL_CAP + 1, the last one scanned
    with pytest.raises(ValueError, match="enumeration cap"):
        check_limit_formula(STEP_MODEL, LEVEL_CAP + 2)


def test_limit_formula_vanishing_points_have_higher_valuation():
    w = W("+--+-")  # fits the deformed template, not the original one
    assert not member(STEP_MODEL.template, w)
    coeffs = eps_expansion(w, build_w_eps(STEP_MODEL, X))
    assert coeffs[:2] == (0, 0) and any(coeffs)


# -- ring identity ------------------------------------------------------------

def test_ring_identity_examples():
    assert ring_identity_failures(STEP_MODEL, (EMPTY,), (W("-+"),)) == []
    assert ring_identity_failures(STEP_MODEL, (W("+"),), (W("-+"),)) == []
    assert ring_identity_failures(STEP_MODEL, (ROOT,), (W("+-+-"),)) == []
    assert ring_identity_failures(CAPPED_MODEL, (W("-"),), (W("+--"),)) == []
    with pytest.raises(ValueError):
        ring_identity_failures(STEP_MODEL, (EMPTY,), (W("++--"),))


def test_ring_identity_hand_worked_instance():
    # F_box * F_{-+} spreads over four words, two of which leave the
    # coideal; the survivors recombine to w1^2 w2 + w1 w2^2 = w1 w2.
    w1, w2 = STEP_MODEL.weights
    lhs = w1 ** 2 * w2 + w1 * w2 ** 2
    assert lhs == phi_tw(STEP_MODEL, W("-+")).value
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
    assert not rep.ok  # values fine but far below the requested bar


# -- independent product-form cross-check --------------------------------------

def test_product_form_matches_coproduct_evaluator():
    # the section-wise product recomputed through the other evaluator
    from zigzag_harmonics import eval_F_coproduct, inject

    for model in (STEP_MODEL, CAPPED_MODEL, BRACKETED_MODEL):
        t = model.template
        tuples = section_interval_tuples(model)
        for length in range(10):
            for w in enumerate_level(length):
                if not member(t, w) or phi_tw(model, w).kind != "finite":
                    continue
                parts = inject(t, w)
                value = F(1)
                for part, u in zip(parts, tuples):
                    value *= eval_F_coproduct(part, u)
                assert phi_tw(model, w) == ExtValue.finite(value), (model, w)
