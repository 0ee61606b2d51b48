"""Negative controls of the suites that check on integer numerators.

Core claims:
    - finite-harmonicity reports a wrong walk numerator as a harmonicity
      and a mass failure, and a wrong non-zero as a support failure
    - kerov-oracle reports a wrong oracle numerator, a wrong transfer
      numerator against both other routes, a wrong walk numerator, and an
      oracle denominator that is not the compiled one; a fault in the
      per-word transfer step shows against the oracle and the level walk
      on the same words, one in the walk's column step against the walk
      alone, and one in the whole-level oracle's cut against the oracle
      alone; at level 7 it compares the root and every word of each of
      its 20 tuples
    - finite-harmonicity reports a fault in the column step, and a run of
      covers gathered from a wrong offset, as harmonicity failures
    - eps-limit reports a wrong leading coefficient at one finite point
      as a ratio failure, and a vanishing point of too low a valuation;
      its valuation and ratio are the closed forms read off the layout
      on the three example models, two more and the 578 models of the
      sweep, and one flange symbol too many in the automaton's offset,
      or one flange cluster too few in the layout, fails it; it makes
      no point evaluation
    - semifinite reads one table of automaton numerators per model,
      whose values and integer cover sums are those of the point API;
      it reports a wrong finite value in the table as a harmonicity
      failure and a wrong kind as a trichotomy one; a wrong zero in the
      coideal fails harmonicity at the word below it, a non-zero on the
      coideal's boundary fails the trichotomy, and at levels 0 and 1 the
      covers of cap symbols carry the whole check; its report counts the
      words walked per model, the coideal sizes at level 10
    - injection embeds 36, 84 and 11 points at level 10, and 78, 286 and
      378 at level 14
    - path-counts, coideal-identities, injection, approx-sequence and
      distinctness each report one planted fault: a wrong path count, a
      placement state wrongly on the blow-up locus (at each word that
      reaches it, and in the certificate), two decompositions or
      swapped coordinates at one word, a wrong value at a base word, and
      a pair of equal models
    - coideal-identities certifies both identities at every level over
      its 57 product states once they close, at its acceptance value,
      and claims nothing at level 8, where they are still growing
    - ring-identity reports a wrong automaton value at one product word
      at the one pair whose product holds it, makes no point evaluation,
      and pieri reports one extra shuffle count; ring-identity at degree
      12 checks all three models, and at degree 9 80, 80 and 0 pairs
    - eps-limit at level 9 reads 15, 20 and 1 finite and 55, 15 and 0
      vanishing points, and finite-harmonicity at level 10 walks supports
      of 55, 175, 10, 175, 10, 385, 175, 55, 385 and 10 words
    - semifinite_table builds no word object at level 10, and
      coideal-identities at level 11 fewer than 50
    - the ring identity fails on a mixture of two growth models with the
      same template, and holds for each of them alone
    - distinctness accepts no level below the one at which the point
      values separate its last pair

Each negative control swaps a name inside ``verify``, ``semifinite`` or
``qsym`` for a wrapper that spoils one value, or for a copy of the
function compiled with one line changed, or the capped template's stored
placement automaton for one that flags one state wrongly, so it shows
that the exact checks can fail.  A fault planted in the growth models' automaton is in
``test_semifinite.py``, beside the oracle that catches it.  A fault planted in the placement step itself is in
``test_cli.py``, beside the graph reference it also breaks.
"""

import copy
import inspect
import textwrap
from fractions import Fraction

import pytest

from model_oracle import cover_sum
from template_oracle import is_flange, sweep_models, template_regex
from word_oracle import enumerate_level
from zigzag_harmonics import (INFINITY, BinaryWord, Explorer, GrowthModel, compile_placement,
                              member, on_locus, paintbox, parse_template, phi_tw, placement,
                              product_F, qsym, semifinite, upper_covers, verify, walk, words,
                              words_below)
from zigzag_harmonics.verify import (CAPPED_MODEL, EXAMPLE_MODELS, STEP_MODEL, run_suite,
                                     semifinite_table)
from zigzag_harmonics.words import LEVEL_CAP
from zigzag_harmonics.words import level as vertex_level

W = BinaryWord.from_str


def spoiled_walk(monkeypatch, spoil):
    """Let ``spoil(levels)`` change the walk's numerators in place."""
    real = verify.eval_F_levels

    def walk(u, n):
        denominator, levels = real(u, n)
        spoil(levels)
        return denominator, levels

    monkeypatch.setattr(verify, "eval_F_levels", walk)


def test_a_wrong_walk_numerator_breaks_harmonicity_and_mass(monkeypatch):
    def spoil(levels):
        levels[3][W("-+-").bits] += 1

    spoiled_walk(monkeypatch, spoil)
    report = run_suite("finite-harmonicity", level=6)
    assert not report.ok
    assert "paintbox 0: not harmonic at -+-" in report.lines
    assert any(line.startswith("paintbox 0: mass ") and line.endswith(" at 3 symbols")
               for line in report.lines)


def test_a_non_zero_outside_the_coideal_breaks_support(monkeypatch):
    spoiled = []

    def spoil(levels):
        # the longest words checked for support; the last level holds covers only
        checked = levels[-2]
        bits = checked.index(0)
        checked[bits] = 1
        spoiled.append(BinaryWord(len(levels) - 2, bits))

    spoiled_walk(monkeypatch, spoil)
    report = run_suite("finite-harmonicity", level=8)
    assert not report.ok
    assert f"paintbox 0: support wrong at {spoiled[0]}" in report.lines


def test_a_wrong_oracle_value_fails_kerov_oracle(monkeypatch):
    real = verify.eval_F_coproduct_levels

    def oracle(u, n):
        denominator, levels = real(u, n)
        levels[2][W("+-").bits] += 1
        return denominator, levels

    monkeypatch.setattr(verify, "eval_F_coproduct_levels", oracle)
    report = run_suite("kerov-oracle", level=3)
    assert not report.ok
    assert sum(line.startswith("evaluator mismatch at +- against ")
               for line in report.lines) == 20
    assert not any(line.startswith("level walk mismatch ") for line in report.lines)


def test_a_wrong_transfer_numerator_fails_kerov_oracle(monkeypatch):
    # the transfer vector's numerator is compared with both other routes
    real = verify.eval_F_numerator

    def transfer(w, u):
        numerator = real(w, u)
        return numerator + 1 if w == W("+-") else numerator

    monkeypatch.setattr(verify, "eval_F_numerator", transfer)
    report = run_suite("kerov-oracle", level=3)
    assert not report.ok
    for route in ("evaluator", "level walk"):
        assert sum(line.startswith(f"{route} mismatch at +- against ")
                   for line in report.lines) == 20
    assert sum(" mismatch at " in line for line in report.lines) == 40


def test_a_wrong_oracle_denominator_fails_kerov_oracle(monkeypatch):
    real = verify.eval_F_coproduct_levels

    def oracle(u, n):
        denominator, levels = real(u, n)
        return 2 * denominator, levels

    monkeypatch.setattr(verify, "eval_F_coproduct_levels", oracle)
    report = run_suite("kerov-oracle", level=3)
    assert not report.ok
    assert sum(line.startswith("oracle denominator ") for line in report.lines) == 20
    assert report.lines[0] == "compared 0 evaluations over 20 interval tuples"


def mutant(function, old, new):
    """A copy of ``function`` compiled from its source with the one
    occurrence of ``old`` replaced by ``new``, in a copy of its globals."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"),
         namespace)
    return namespace[function.__name__]


def test_a_fault_in_the_oracle_cut_fails_kerov_oracle_against_the_oracle(monkeypatch):
    # '-' intervals cut as if they were rows: the stride of a cut starts
    # at 0 for both signs, in the whole-level oracle alone
    monkeypatch.setattr(verify, "eval_F_coproduct_levels", mutant(
        paintbox.eval_F_coproduct_levels,
        "start = 0 if sign == PLUS else step - 1", "start = 0"))
    report = run_suite("kerov-oracle", level=7)
    assert not report.ok
    assert _mismatches(report, "evaluator")
    assert not _mismatches(report, "level walk")


def test_kerov_oracle_compares_every_word_at_its_acceptance_level():
    # 20 tuples, each the 255 words of up to 7 symbols
    report = run_suite("kerov-oracle", level=7)
    assert report.ok
    assert report.lines == ["compared 5100 evaluations over 20 interval tuples"]


def _mismatches(report, route):
    """The (word, tuple) pairs of one route's mismatch lines."""
    prefix = f"{route} mismatch at "
    return [line[len(prefix):] for line in report.lines if line.startswith(prefix)]


def test_a_fault_in_the_transfer_step_fails_kerov_oracle(monkeypatch):
    # the last interval never keeps the box.  eval_F_numerator runs
    # paintbox.transfer, while the level walk is its own column kernel
    # over the compiled keeps, so both the oracle and the walk catch the
    # fault, on the same words
    real = paintbox.transfer

    def transfer(keeps, lengths, vec, bits, n):
        return real(tuple(keep[:-1] + (False,) for keep in keeps), lengths, vec, bits, n)

    monkeypatch.setattr(paintbox, "transfer", transfer)
    report = run_suite("kerov-oracle", level=7)
    assert not report.ok
    evaluator = _mismatches(report, "evaluator")
    assert len(evaluator) == 1120
    assert _mismatches(report, "level walk") == evaluator


def spoiled_column_step(monkeypatch):
    """The last interval never keeps the box, in the level walk's column
    step alone: the walk reads the spoiled keeps from a copy of the tuple."""
    real = verify.eval_F_levels

    def walk(u, n):
        keeps, lengths, denominator = u._transfer
        spoiled = copy.copy(u)
        object.__setattr__(spoiled, "_transfer", (
            tuple(keep[:-1] + (False,) for keep in keeps), lengths, denominator))
        return real(spoiled, n)

    monkeypatch.setattr(verify, "eval_F_levels", walk)


def test_a_fault_in_the_column_step_fails_kerov_oracle_against_the_walk(monkeypatch):
    spoiled_column_step(monkeypatch)
    report = run_suite("kerov-oracle", level=7)
    assert not report.ok
    assert len(_mismatches(report, "level walk")) == 1120
    assert not _mismatches(report, "evaluator")


def test_a_fault_in_the_column_step_fails_finite_harmonicity(monkeypatch):
    spoiled_column_step(monkeypatch)
    report = run_suite("finite-harmonicity", level=6)
    assert not report.ok
    assert any(" not harmonic at " in line for line in report.lines)


def test_a_cover_run_gathered_from_a_wrong_offset_fails_finite_harmonicity(monkeypatch):
    # the covers inserting before symbol 1 of the words ++... and -+...
    # are read one run too early, from row[0:2] instead of row[2:4]
    def cover_sums(row, n):
        sums = words.cover_sums(row, n)
        if n >= 2:
            sums[0:2] = [s - right + wrong for s, right, wrong in zip(sums, row[2:4], row[0:2])]
        return sums

    monkeypatch.setattr(verify, "cover_sums", cover_sums)
    report = run_suite("finite-harmonicity", level=6)
    assert not report.ok
    assert any(" not harmonic at ++" in line for line in report.lines)
    assert all(" not harmonic at " in line for line in report.lines[1:])


def test_a_wrong_walk_numerator_fails_kerov_oracle(monkeypatch):
    def spoil(levels):
        levels[2][W("+-").bits] += 1

    spoiled_walk(monkeypatch, spoil)
    report = run_suite("kerov-oracle", level=3)
    assert not report.ok
    assert sum(line.startswith("level walk mismatch at +- against ")
               for line in report.lines) == 20


def test_a_wrong_path_count_fails_path_counts(monkeypatch):
    # ++-+- is the bent word N = 1 above ++--, one chain away
    real = verify.dim

    def count(a, b):
        paths = real(a, b)
        return paths + 1 if (a, b) == (W("++--"), W("++-+-")) else paths

    monkeypatch.setattr(verify, "dim", count)
    report = run_suite("path-counts", level=3)
    assert not report.ok
    assert report.lines[1:] == ["dim(++--,++-+-) = 2, expected 1"]


def test_a_wrong_capped_blow_up_word_fails_coideal_identities():
    # +-- generates the capped coideal's finite part, off the blow-up locus.
    # The suite checks each product state once, so a capped placement state
    # planted on the locus fails at every word that reaches it, and the
    # certificate fails with it
    capped = CAPPED_MODEL.template
    real = compile_placement(parse_template(str(capped)))
    at_gen = next(at for w, at in walk(4, real.start, real.step) if w == W("+--"))
    assert not on_locus(at_gen)
    key = real.keys[at_gen]
    reaching = [w for w, at in walk(9, real.start, real.step) if real.keys[at] == key]
    assert [str(w) for w in reaching] == ["+" + "-" * k for k in range(2, 8)]
    planted = Explorer(real.keys[real.start], real.advance,
                       lambda codes: (1, real.note(codes)[1]) if codes == key
                       else real.note(codes))
    kept = capped._placement
    object.__setattr__(capped, "_placement", planted)
    try:
        # level 8 reaches the bracketed generators, so that check passes
        report = run_suite("coideal-identities", level=8)
    finally:
        object.__setattr__(capped, "_placement", kept)
    assert not report.ok
    assert report.lines[1:-1] == [f"capped blow-up locus differs from the section at {w}"
                                  for w in reaching]
    assert report.lines[-1].startswith("not certified: ")
    assert "break an identity" in report.lines[-1]


@pytest.mark.parametrize("level, line", [
    (11, "both identities certified at every level over 57 product states"),
    (8, "not certified: 57 product states by 9 symbols, and still growing")])
def test_coideal_identities_certifies_once_the_product_states_close(level, line):
    report = run_suite("coideal-identities", level=level)
    assert report.ok and report.lines == [
        f"both identities exhaustive to {level} symbols; bracketed ideal has 2 minimal elements",
        line]


def test_two_decompositions_at_one_word_fail_injection(monkeypatch):
    # -+- is a finite point of the step model
    real = verify.inject_all

    def decompositions(t, w):
        decs = real(t, w)
        return decs + decs if t is STEP_MODEL.template and w == W("-+-") else decs

    monkeypatch.setattr(verify, "inject_all", decompositions)
    report = run_suite("injection", level=6)
    assert not report.ok
    assert "step: 2 decompositions at -+-" in report.lines
    assert sum(" decompositions at " in line for line in report.lines) == 1


def test_swapped_coordinates_at_one_word_fail_injection(monkeypatch):
    # +-+- has section coordinates (+, -); swapped, every edge at it
    # moves both coordinates
    real = verify.inject_all

    def decompositions(t, w):
        decs = real(t, w)
        return [decs[0][::-1]] if t is STEP_MODEL.template and w == W("+-+-") else decs

    monkeypatch.setattr(verify, "inject_all", decompositions)
    report = run_suite("injection", level=6)
    assert not report.ok
    moved = [line for line in report.lines if line.endswith(" moves 2 coordinates")]
    assert sorted(moved) == sorted(
        f"step: edge {w}->{u} moves 2 coordinates"
        for w, u in (("+-+", "+-+-"), ("-+-", "+-+-"), ("+-+-", "++-+-"), ("+-+-", "+-+--")))


@pytest.mark.parametrize("level, counts", [(10, (36, 84, 11)), (14, (78, 286, 378))])
def test_injection_embeds_the_pinned_points(level, counts):
    report = run_suite("injection", level=level)
    assert report.ok and report.lines == [
        f"{name}: {count} points embedded, edges and ideal image checked"
        for name, count in zip(("step", "capped", "bracketed"), counts)]


def test_a_wrong_value_at_a_base_word_fails_approx_sequence(monkeypatch):
    # +-+- is the base word of the sequence under ++--
    real = semifinite.phi_tw

    def value(model, v):
        val = real(model, v)
        if model is STEP_MODEL and v == W("+-+-"):
            return 2 * val
        return val

    monkeypatch.setattr(semifinite, "phi_tw", value)
    report = run_suite("approx-sequence", level=4)
    assert not report.ok
    assert [line for line in report.lines if line.startswith("values under ")] == [
        "values under ++-- are " + str(tuple(2 * n * real(STEP_MODEL, W("+-+-"))
                                            for n in range(1, 5)))]


def test_a_pair_of_equal_models_fails_distinctness(monkeypatch):
    equal = (STEP_MODEL, GrowthModel.parse(str(STEP_MODEL)))
    monkeypatch.setattr(verify, "DISTINCT_PAIRS", [*verify.DISTINCT_PAIRS, equal])
    # level 9 separates every listed pair
    report = run_suite("distinctness", level=9)
    assert not report.ok
    assert report.lines[-1] == f"pair {len(verify.DISTINCT_PAIRS) - 1} not separated up to level 9"
    assert sum(" not separated " in line for line in report.lines) == 1


def test_the_lowest_distinctness_level_is_where_the_last_pair_separates():
    # each pair's first word, shortest first, at which the point values
    # differ; the suite accepts no level below the highest of them
    levels = [vertex_level(next(w for w in words_below(LEVEL_CAP + 1)
                                if phi_tw(m1, w) != phi_tw(m2, w)))
              for m1, m2 in verify.DISTINCT_PAIRS]
    assert max(levels) == verify.DISTINCT_LEVEL == 9


def spoiled_expansion(monkeypatch, word, spoil):
    """Let ``spoil(numerator, eps)`` replace the integer evaluation of the
    deformed interval tuple at one word, whose base-eps digits are the eps
    coefficients times D^(n+1).  The walk reads that integer as the sum of
    the transfer vector in the word's state, its fourth entry; only the
    state handed out for the word is spoiled, so its children step from
    the true vector and every other word keeps its own.  eps is the last
    length ``build_w_eps`` was asked for."""
    eps = []
    real_build, real_walk = semifinite.build_w_eps, semifinite.walk_levels

    def build(model, e):
        eps.append(e)
        return real_build(model, e)

    def spoiled(state):
        vec = list(state[3])
        value = sum(vec)
        vec[0] += spoil(value, eps[-1]) - value
        return (*state[:3], vec, *state[4:])

    def walk(n, start, step):
        for length, layer in real_walk(n, start, step):
            if length == word.n:
                layer = [(bits, spoiled(state) if bits == word.bits else state)
                         for bits, state in layer]
            yield length, layer

    monkeypatch.setattr(semifinite, "build_w_eps", build)
    monkeypatch.setattr(semifinite, "walk_levels", walk)


def test_a_wrong_leading_coefficient_breaks_the_ratio(monkeypatch):
    # ++-+- is a finite point of the step model above its marker word +-+-,
    # and not above the marker words of the other two models
    # doubles the eps^1 digit
    spoiled_expansion(monkeypatch, W("++-+-"), lambda value, eps: value + value // eps % eps * eps)
    report = run_suite("eps-limit", level=9)
    assert not report.ok
    assert "step: ++-+-: ratio 4 != 2" in report.lines
    assert sum(" ratio " in line for line in report.lines) == 1


def test_a_vanishing_point_of_low_valuation_breaks_the_limit(monkeypatch):
    # +--+- fits the step model's deformed template but not the model's own
    # the digits of eps^0 and eps^1 become 0 and 1
    spoiled_expansion(monkeypatch, W("+--+-"), lambda value, eps: value - value % eps ** 2 + eps)
    report = run_suite("eps-limit", level=9)
    assert not report.ok
    assert "step: +--+-: vanishing point with valuation 1 <= 1" in report.lines
    assert sum("vanishing point with" in line for line in report.lines) == 1


# the suite pins the three example models; these have more flange words
@pytest.mark.parametrize("text, level, forms", [
    ("-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4", 12, (5, 2)),
    ("+2 -1 +* -2 +* | w=1/2,1/2", 10, (4, 2)),
])
def test_the_eps_limit_matches_its_closed_forms(text, level, forms):
    model = GrowthModel.parse(text)
    report = semifinite.check_limit_formula(model, level)
    assert report.ok and report.finite_points
    assert (report.n, report.const) == verify.limit_closed_forms(model) == forms


def test_the_eps_limit_matches_its_closed_forms_over_the_sweep():
    # the forms counted again on the oracle's flange: F flange symbols
    # less the k sections, the maximal runs of clusters off the flange,
    # plus one; and 2 to the flange clusters less the flange words
    models = sweep_models()
    assert len(models) == 578
    for model in models:
        t = model.template
        on = [is_flange(t, i) for i in range(len(t))]
        starts = [i for i in range(len(t)) if not i or on[i] != on[i - 1]]
        words = sum(on[i] for i in starts)
        sections = len(starts) - words
        flange_symbols = sum(c.mult for c, f in zip(t.clusters, on) if f)
        forms = (flange_symbols - sections + 1, 2 ** (sum(on) - words))
        marker = 1 + sum(c.mult or 1 for c in t.clusters)
        report = semifinite.check_limit_formula(model, max(marker + 2, 10))
        assert report.ok, (str(model), report.failures)
        assert (report.n, report.const) == verify.limit_closed_forms(model) == forms, str(model)


def test_the_eps_limit_reports_both_closed_forms():
    report = run_suite("eps-limit", level=9)
    assert report.ok and [line.partition(" (")[0] for line in report.lines] == [
        "step: n=1 const=2, closed forms n=1 const=2",
        "capped: n=1 const=1, closed forms n=1 const=1",
        "bracketed: n=2 const=1, closed forms n=2 const=1"]
    # the words above each marker word that the limit reads
    assert [line.partition(" (")[2] for line in report.lines] == [
        "15 finite, 55 vanishing points)", "20 finite, 15 vanishing points)",
        "1 finite, 0 vanishing points)"]


def test_a_flange_symbol_too_many_fails_eps_limit(monkeypatch):
    # the automaton's offset F - k counts one flange symbol too many
    real = verify.automaton
    monkeypatch.setattr(verify, "automaton",
                        lambda model: real(model)._replace(offset=real(model).offset + 1))
    report = run_suite("eps-limit", level=9)
    assert not report.ok
    assert report.lines[3:] == ["step: valuation 1, closed form 2",
                                "capped: valuation 1, closed form 2",
                                "bracketed: valuation 2, closed form 3"]


def test_a_flange_cluster_too_few_fails_eps_limit(monkeypatch):
    # the layout the closed forms read loses the last flange cluster: the
    # step model's flange word -+ counts one cluster and no sign change
    real = verify._layout
    monkeypatch.setattr(verify, "_layout", lambda t: (real(t)[0], real(t)[1][:-1]))
    report = run_suite("eps-limit", level=9)
    assert not report.ok
    assert report.lines[3:] == ["step: ratio 2, closed form 1"]


def test_the_semifinite_table_is_the_point_api():
    # every word of up to 8 symbols, and the coideal words of 9 it reads
    for model in EXAMPLE_MODELS.values():
        t = model.template
        a = semifinite.automaton(model)
        denominator, levels = semifinite_table(model, 9)
        assert denominator == a.denominator

        def value(w):
            r = levels[w.n][w.bits]
            return INFINITY if r is None else Fraction(r, denominator ** (w.n - a.offset))

        for length in range(10):
            assert sorted(levels[length]) == sorted(w.bits for w in enumerate_level(length)
                                                    if member(t, w)), (model, length)
            for bits in levels[length]:
                w = BinaryWord(length, bits)
                assert value(w) == phi_tw(model, w), (model, w)
        # the integer cover sums, an infinite cover absorbing them, against
        # the sums in [0, +oo] of the point values
        for length in range(9):
            for bits in levels[length]:
                w = BinaryWord(length, bits)
                covers = [c for c in upper_covers(w) if c.bits in levels[length + 1]]
                numerators = [levels[length + 1][c.bits] for c in covers]
                total = cover_sum(phi_tw(model, c) for c in upper_covers(w))
                if None in numerators:
                    assert total is INFINITY, (model, w)
                else:
                    assert total == Fraction(
                        sum(numerators), denominator ** (length + 1 - a.offset)), (model, w)


def spoiled_table(monkeypatch, spoil):
    """Let ``spoil(levels)`` change the step model's automaton numerators in place."""
    real = verify.semifinite_table

    def table(model, cap):
        denominator, levels = real(model, cap)
        if model is STEP_MODEL:
            spoil(levels)
        return denominator, levels

    monkeypatch.setattr(verify, "semifinite_table", table)


def spoiled_phi_tw(monkeypatch, word, spoil):
    """Let ``spoil(value)`` replace the step model's value at one word."""
    real = verify.phi_tw

    def value(model, v):
        val = real(model, v)
        return spoil(val) if model is STEP_MODEL and v == word else val

    monkeypatch.setattr(verify, "phi_tw", value)


def test_a_wrong_finite_value_breaks_semifinite_harmonicity(monkeypatch):
    # -+- is a finite point of the step model; the closed form reads phi_tw
    def spoil(levels):
        levels[3][W("-+-").bits] *= 2

    spoiled_table(monkeypatch, spoil)
    spoiled_phi_tw(monkeypatch, W("-+-"), lambda val: 2 * val)
    report = run_suite("semifinite", level=6)
    assert not report.ok
    assert "step: not harmonic at -+-" in report.lines
    assert "step closed form fails at -+-" in report.lines
    assert "step closed form fails at -+- in the walk" in report.lines
    assert not any(" expected " in line for line in report.lines)


def test_a_harmonic_wrong_value_fails_the_walked_closed_form(monkeypatch):
    # doubling every finite numerator keeps the kinds and the cover sums;
    # only the closed form ties the walked values to a formula
    def spoil(levels):
        for level in levels:
            for bits, value in level.items():
                level[bits] = value and 2 * value

    spoiled_table(monkeypatch, spoil)
    report = run_suite("semifinite", level=6)
    assert report.lines[1:] == [f"step closed form fails at {'+' * n}-+{'-' * m} in the walk"
                                for n in range(5) for m in range(5) if n + m <= 4]


def test_a_wrong_kind_breaks_the_semifinite_trichotomy(monkeypatch):
    def spoil(levels):
        levels[3][W("-+-").bits] = None

    spoiled_table(monkeypatch, spoil)
    report = run_suite("semifinite", level=6)
    assert not report.ok
    assert "step: -+- is infinite, expected finite" in report.lines
    assert sum(" expected " in line for line in report.lines) == 1


def test_a_wrong_zero_in_the_coideal_breaks_harmonicity_below_it(monkeypatch):
    # -+- is a finite point of the step model; left out of the table, it
    # is unchecked, and the cover sum at -+ misses its value
    def spoil(levels):
        del levels[3][W("-+-").bits]

    spoiled_table(monkeypatch, spoil)
    report = run_suite("semifinite", level=6)
    assert not report.ok
    assert "step: not harmonic at -+" in report.lines


def test_a_non_zero_on_the_boundary_breaks_the_semifinite_trichotomy(monkeypatch):
    # -++ lies off the step model's coideal, one symbol above -+
    def spoil(levels):
        levels[3][W("-++").bits] = 1

    spoiled_table(monkeypatch, spoil)
    report = run_suite("semifinite", level=6)
    assert not report.ok
    assert "step: -++ is finite, expected zero" in report.lines


def test_semifinite_at_levels_0_and_1_reads_the_covers_of_cap_symbols(monkeypatch):
    assert run_suite("semifinite", level=0).ok
    assert run_suite("semifinite", level=1).ok
    # at level 0 the root is the one checked vertex, and the empty word
    # its one cover
    spoiled_table(monkeypatch, lambda levels: levels[0].clear())
    assert run_suite("semifinite", level=0).lines[1:] == ["step: not harmonic at @"]


def test_semifinite_reports_the_coideal_sizes_it_walked():
    # the words below 10 symbols that each template's regular expression
    # matches, counted without the walk
    sizes = [sum(1 for n in range(10) for w in enumerate_level(n)
                 if template_regex(model.template).fullmatch(str(w)))
             for model in EXAMPLE_MODELS.values()]
    assert sizes == [91, 259, 875]
    report = run_suite("semifinite", level=10)
    assert report.ok
    assert report.lines == ["three models, trichotomy and harmonicity to level 10 "
                            "(step 91, capped 259, bracketed 875 words walked); "
                            "step closed form n,m <= 4"]


def test_a_wrong_value_at_one_product_word_fails_ring_identity_at_its_pair(monkeypatch):
    # at degree 6 the step model's one right factor is -+, and among the
    # products F_a * F_{-+} only a = + reaches ++-+ (value 2/81); the
    # identity reads the automaton's table, so the fault is planted there
    real = semifinite.semifinite_table

    def table(model, cap):
        denominator, levels = real(model, cap)
        if model is STEP_MODEL:
            levels[4][W("++-+").bits] *= 2
        return denominator, levels

    monkeypatch.setattr(semifinite, "semifinite_table", table)
    report = run_suite("ring-identity", degree=6)
    assert not report.ok
    assert [line for line in report.lines if " fails at " in line] == [
        "step: ring identity fails at (+, -+)"]


def test_ring_identity_makes_no_point_evaluation(monkeypatch):
    # every value of the identity, right factors included, comes from the
    # automaton's table
    calls = []
    real = semifinite.phi_tw

    def value(model, v):
        calls.append((model, v))
        return real(model, v)

    monkeypatch.setattr(semifinite, "phi_tw", value)
    monkeypatch.setattr(verify, "phi_tw", value)
    assert run_suite("ring-identity", degree=12).ok
    assert calls == []


def test_eps_limit_makes_no_point_evaluation(monkeypatch):
    # each word above the marker word is valued from its parent's state:
    # neither a model value nor an evaluation of the deformed tuple is
    # made one word at a time
    calls = []
    real_value, real_numerator = semifinite.phi_tw, semifinite.eval_F_numerator

    def value(model, v):
        calls.append((model, v))
        return real_value(model, v)

    def numerator(v, u):
        calls.append((v, u))
        return real_numerator(v, u)

    monkeypatch.setattr(semifinite, "phi_tw", value)
    monkeypatch.setattr(verify, "phi_tw", value)
    monkeypatch.setattr(semifinite, "eval_F_numerator", numerator)
    assert run_suite("eps-limit", level=12).ok
    assert calls == []


def test_one_extra_shuffle_count_fails_pieri(monkeypatch):
    real = qsym.shuffle_counts

    def counts(a, b):
        n, found = real(a, b)
        if b == W("+-"):
            found = dict(found)
            found[W("+-+").bits] = found.get(W("+-+").bits, 0) + 1
        return n, found

    monkeypatch.setattr(qsym, "shuffle_counts", counts)
    report = run_suite("pieri", level=4)
    assert not report.ok
    assert report.lines[1:] == ["one-box product wrong at +-"]


def test_ring_identity_at_degree_12_reaches_the_bracketed_model():
    # the first degree at which the bracketed model has finite right factors
    report = run_suite("ring-identity", degree=12)
    assert report.ok
    assert report.lines == ["step: 224 pairs", "capped: 448 pairs", "bracketed: 16 pairs"]


def test_ring_identity_checks_the_pinned_pairs_at_its_acceptance_degree():
    report = run_suite("ring-identity", degree=9)
    assert report.ok
    assert report.lines == ["step: 80 pairs", "capped: 80 pairs",
                            "bracketed: 0 pairs (no finite vertices this low)"]


def test_finite_harmonicity_walks_the_pinned_supports(monkeypatch):
    # the words below 10 symbols in each paintbox's support, as the walk
    # lists them; the suite checks them against the positive numerators
    sizes = []
    real = verify.walk_levels

    def walk_levels(n, start, step):
        sizes.append(0)
        for length, layer in real(n, start, step):
            sizes[-1] += len(layer)
            yield length, layer

    monkeypatch.setattr(verify, "walk_levels", walk_levels)
    assert run_suite("finite-harmonicity", level=10).ok
    assert sizes == [55, 175, 10, 175, 10, 385, 175, 55, 385, 10]


def test_the_walked_suites_build_no_word_per_walked_word(monkeypatch):
    built = []
    real = BinaryWord.__init__

    def counted(w, n, bits):
        real(w, n, bits)
        built.append(w)

    monkeypatch.setattr(BinaryWord, "__init__", counted)
    for model in EXAMPLE_MODELS.values():
        semifinite_table(model, 10)
    assert built == []
    # 21 words: the minimal elements, the generators' lower covers, the
    # expected meet and the capped generator; the walk reaches 2,621
    assert run_suite("coideal-identities", level=11).ok
    assert len(built) < 50


def test_the_ring_identity_fails_on_a_mixture_of_two_models():
    # phi = (phi_1 + phi_2) / 2 is harmonic but not indecomposable: the
    # ratio phi(F_a F_b) / phi(b) moves with b, while each model alone
    # gives the one value phi_paintbox(a)
    models = (GrowthModel.parse("+* -1 +1 -* | w=1/3,2/3"),
              GrowthModel.parse("+* -1 +1 -* | w=1/2,1/2"))
    rights = [w for w, state in walk(8, *placement(models[0].template)) if not on_locus(state)]
    assert len(rights) == 21

    def value(model, v):
        val = phi_tw(model, v)
        assert val is not INFINITY, (model, v)
        return val

    moving = []
    for a in words_below(3):
        alone = [set(), set()]
        mixed = set()
        for b in rights:
            product = product_F(a, b).coeffs
            lhs = [sum(c * value(m, v) for v, c in product.items()) for m in models]
            rhs = [value(m, b) for m in models]
            for ratios, l, r in zip(alone, lhs, rhs):
                ratios.add(l / r)
            mixed.add(sum(lhs) / sum(rhs))
        assert all(len(ratios) == 1 for ratios in alone), a
        if len(mixed) > 1:
            assert len(mixed) == len(rights), a
            moving.append(str(a))
    assert moving == ["+", "-", "++", "+-", "--"]
