"""One-shot verification suites over the whole library.

Each suite re-checks one family of identities at desk scale, exactly
(rational arithmetic, tolerance zero), and reports per-case lines plus
a verdict.  The three worked growth models used throughout:

* step:      +* -1 +1 -*               an infinite row and an infinite
             column joined by a two-symbol bend;
* capped:    +1 -* +* -1 +*            a one-box cap in front of a
             single section with a separating cluster;
* bracketed: -1 +* -* +1 -* +* -* +1   flange words at both ends, a
             separating cluster inside.

The registry is the only place that knows a suite's interface.  Each
suite is declared once with :func:`_suite`: its name, the one flag it
reads (``level``, or ``degree`` for ring-identity), that flag's default
and accepted range, and, for the seeded suites, their default seed.
The ranges come from :data:`~zigzag_harmonics.words.LEVEL_CAP` and
:data:`~zigzag_harmonics.qsym.DEGREE_CAP`.  Before any work a suite
rejects with a ``ValueError`` a value outside its range, a flag it does
not read, and a seed it does not take; the CLI exits 2 on those.  The
suite body only checks: it takes ``(value, seed)`` and returns
``(lines, failures)``, and the registry times it and builds the
:class:`SuiteReport`.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import factorial
from operator import mul
from typing import Callable, Optional

from .paintbox import (IntervalTuple, Paintbox, eval_F, eval_F_coproduct,
                       eval_F_coproduct_denominator, eval_F_coproduct_numerator,
                       eval_F_levels, eval_F_numerator, template_of_paintbox)
from .qsym import DEGREE_CAP, pieri_check
from .semifinite import (Automaton, ExtValue, GrowthModel, ModelState, automaton,
                         automaton_numerator, automaton_step, check_approx_sequence,
                         check_limit_formula, phi_tw, ring_identity_failures,
                         semifinite_table)
from .templates import (flange_and_sections, inject_all, member, member_J,
                        minimal_maxblock_word, on_locus, parse_template, place,
                        placement)
from .words import (LEVEL_CAP, ROOT, BinaryWord, FormalCombination, Vertex,
                    cover_sums, dim, lower_covers, subword_step, upper_cover_bits,
                    upper_covers, walk, words_below)
from .words import level as vertex_level

W = BinaryWord.from_str

STEP_MODEL = GrowthModel.parse("+* -1 +1 -* | w=1/3,2/3")
CAPPED_MODEL = GrowthModel.parse("+1 -* +* -1 +* | w=1/2,1/3,1/6")
BRACKETED_MODEL = GrowthModel.parse("-1 +* -* +1 -* +* -* +1 | w=1/3,1/4,1/6,1/8,1/8")

EXAMPLE_MODELS = {
    "step": STEP_MODEL,
    "capped": CAPPED_MODEL,
    "bracketed": BRACKETED_MODEL,
}


@dataclass
class SuiteReport:
    suite: str
    ok: bool
    lines: list[str]
    elapsed: float

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict} {self.suite} ({self.elapsed:.2f}s)"


Checks = tuple[list[str], list[str]]

SUITES: dict[str, Callable[..., SuiteReport]] = {}


def _suite(name: str, default: int, lowest: int, highest: int, *,
           flag: str = "level", default_seed: Optional[int] = None):
    """Register a suite body under ``name`` and return the suite it becomes.

    The suite reads only ``flag``, within ``lowest..highest``, and takes
    a seed only when ``default_seed`` is set.
    """
    def register(body: Callable[[int, Optional[int]], Checks]):
        @functools.wraps(body)
        def suite(level: Optional[int] = None, degree: Optional[int] = None,
                  seed: Optional[int] = None) -> SuiteReport:
            given = {"level": level, "degree": degree}
            for other, value in given.items():
                if other != flag and value is not None:
                    raise ValueError(f"{name} reads --{flag}, not --{other}")
            if seed is not None and default_seed is None:
                raise ValueError(f"{name} takes no --seed")
            value = default if given[flag] is None else given[flag]
            if value > highest:
                raise ValueError(f"{name} --{flag} {value} above cap {highest}")
            if value < lowest:
                raise ValueError(f"{name} --{flag} {value} below {lowest}")
            started = time.perf_counter()
            lines, failures = body(value, default_seed if seed is None else seed)
            return SuiteReport(name, not failures, lines + failures,
                               time.perf_counter() - started)

        SUITES[name] = suite
        return suite

    return register


# ---------------------------------------------------------------------------
# Suite 1: one-box products list the upward covers
# ---------------------------------------------------------------------------

@_suite("pieri", 7, 0, DEGREE_CAP - 2)
def suite_pieri(max_symbols: int, _seed: Optional[int]) -> Checks:
    failures, count = [], 0
    for w in words_below(max_symbols + 1):
        count += 1
        if not pieri_check(w):
            failures.append(f"one-box product wrong at {w}")
    return [f"checked {count} words up to {max_symbols} symbols"], failures


# ---------------------------------------------------------------------------
# Suite 2: closed-form path counts into the bent two-block words
# ---------------------------------------------------------------------------

@_suite("path-counts", 6, 0, LEVEL_CAP + 1)
def suite_path_counts(cap: int, _seed: Optional[int]) -> Checks:
    failures, count = [], 0
    for n in range(2, 5):
        for m in range(2, 5):
            source = W("+" * n + "-" * m)
            for big_n in range(cap + 1):
                for n1 in range(big_n + 1):
                    m1 = big_n - n1
                    target = W("+" * (n1 + n - 1) + "-+" + "-" * (m1 + m - 1))
                    expected = big_n * factorial(big_n) // (factorial(n1) * factorial(m1))
                    count += 1
                    got = dim(source, target)
                    if got != expected:
                        failures.append(
                            f"dim({source},{target}) = {got}, expected {expected}")
    return [f"checked {count} path counts, N <= {cap}"], failures


# ---------------------------------------------------------------------------
# Suite 3: the two evaluators agree
# ---------------------------------------------------------------------------

#: the most intervals a random interval tuple or paintbox has
MAX_RANDOM_INTERVALS = 4


def _random_interval_tuple(rng: random.Random) -> IntervalTuple:
    m = rng.randint(1, MAX_RANDOM_INTERVALS)
    intervals = tuple(
        (rng.choice("+-"), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(m))
    return IntervalTuple(intervals)


@_suite("kerov-oracle", 7, 0, LEVEL_CAP, default_seed=20240)
def suite_kerov_oracle(max_symbols: int, seed: Optional[int]) -> Checks:
    # Each word's three numerators over one D, the transfer vector's, the
    # oracle's and the level walk's, are compared as integers; only the
    # root's values are fractions.  The walk's column kernel shares only
    # the compiled keeps and lengths with the per-word transfer step, so
    # it checks the point route independently of the oracle
    rng = random.Random(seed)
    tuples = [_random_interval_tuple(rng) for _ in range(20)]
    failures, count = [], 0
    words = list(words_below(max_symbols + 1))
    for u in tuples:
        # the oracle's set-up and subproblems do not depend on the word
        memo: dict = {}
        count += 1
        if eval_F(ROOT, u) != eval_F_coproduct(ROOT, u, memo):
            failures.append(f"evaluator mismatch at {ROOT} against {u}")
        denominator = eval_F_coproduct_denominator(u, memo)
        if denominator != u.denominator:
            failures.append(f"oracle denominator {denominator} against {u}")
            continue
        numerators = eval_F_levels(u, max_symbols + 1)[1]
        for w in words:
            count += 1
            numerator = eval_F_numerator(w, u)
            if numerator != eval_F_coproduct_numerator(w, u, memo):
                failures.append(f"evaluator mismatch at {w} against {u}")
            if numerator != numerators[w.n][w.bits]:
                failures.append(f"level walk mismatch at {w} against {u}")
    return [f"compared {count} evaluations over {len(tuples)} interval tuples"], failures


# ---------------------------------------------------------------------------
# Suite 4: paintbox harmonicity and support
# ---------------------------------------------------------------------------

def random_paintbox(rng: random.Random) -> Paintbox:
    m = rng.randint(1, MAX_RANDOM_INTERVALS)
    raw = [rng.randint(1, 9) for _ in range(m)]
    total = sum(raw)
    signs = [rng.choice("+-") for _ in range(m)]
    return Paintbox(tuple((s, Fraction(r, total)) for s, r in zip(signs, raw)))


@_suite("finite-harmonicity", 10, 0, LEVEL_CAP, default_seed=20241)
def suite_finite_harmonicity(cap: int, seed: Optional[int]) -> Checks:
    # On the numerators N(v) = phi_w(v) * D^(k+1) of the words v of k
    # symbols: harmonic is N(v) * D == sum of N over the covers, and
    # unit mass is sum of dim(@, v) * N(v) == D^(k+1).
    rng = random.Random(seed)
    boxes = [random_paintbox(rng) for _ in range(10)]
    # dim(@, w) of every word, worked out once for every paintbox by
    # pushing path counts up upper_cover_bits one word at a time; each
    # paintbox's cover sums are gathered a whole length at a time by
    # cover_sums, so the two checks reach the covers by separate code
    paths = [[1]] if cap else []  # one path from @ to the empty word
    for k in range(cap - 1):
        above = [0] * (2 << k)
        for bits, count in enumerate(paths[k]):
            for c in upper_cover_bits(k, bits):
                above[c] += count
        paths.append(above)
    failures = []
    for idx, pb in enumerate(boxes):
        support = [set() for _ in range(cap)]  # packed bits per length
        for w, _ in walk(cap, *placement(template_of_paintbox(pb))):
            support[w.n].add(w.bits)
        denominator, numerators = eval_F_levels(pb, cap + 1)
        if denominator != numerators[0][0]:  # N(@) = 1, its one cover the empty word
            failures.append(f"paintbox {idx}: not harmonic at {ROOT}")
        mass = []
        for k in range(cap):
            values = numerators[k]
            scaled = [value * denominator for value in values]
            sums = cover_sums(numerators[k + 1], k)
            if scaled != sums:
                failures.extend(f"paintbox {idx}: not harmonic at {BinaryWord(k, bits)}"
                                for bits, (a, b) in enumerate(zip(scaled, sums)) if a != b)
            positive = set(compress(range(1 << k), map((0).__lt__, values)))  # bits of N > 0
            if positive != support[k]:
                failures.extend(f"paintbox {idx}: support wrong at {BinaryWord(k, bits)}"
                                for bits in sorted(positive ^ support[k]))
            mass.append(sum(map(mul, paths[k], values)))
        failures.extend(
            f"paintbox {idx}: mass {Fraction(total, denominator ** (k + 1))} at {k} symbols"
            for k, total in enumerate(mass) if total != denominator ** (k + 1))
    return [f"10 paintboxes, harmonicity, support, and unit mass up to level {cap}"], failures


# ---------------------------------------------------------------------------
# Suite 5: coideal identities of the capped and bracketed templates
# ---------------------------------------------------------------------------

#: the two generators of the bracketed ideal; coideal-identities finds them
#: as its minimal elements, so it walks at least their length
BRACKETED_GENERATORS = (W("-+-+-+-+"), W("-++-++-+"))


@_suite("coideal-identities", 11, max(map(len, BRACKETED_GENERATORS)), LEVEL_CAP)
def suite_coideal_identities(max_symbols: int, _seed: Optional[int]) -> Checks:
    failures = []

    capped = CAPPED_MODEL.template
    section = parse_template("-* +* -1 +*")
    gen = W("+--")
    bracketed = BRACKETED_MODEL.template
    g1, g2 = BRACKETED_GENERATORS
    minimal: list[BinaryWord] = []
    # every check below holds trivially outside the union of the three
    # coideals; the section's own is in it so that leaving capped shows.
    # One walk carries each word's placements in the three templates (None
    # off a coideal) and how much of gen, g1 and g2 it holds as a subword
    (capped_start, capped_step), (section_start, section_step), (b_start, b_step) = (
        placement(capped), placement(section), placement(bracketed))

    def step(state: tuple, bit: int) -> Optional[tuple]:
        at_capped, at_section, at_b, held, held1, held2 = state
        at_capped = at_capped and capped_step(at_capped, bit)
        at_section = at_section and section_step(at_section, bit)
        at_b = at_b and b_step(at_b, bit)
        if not (at_capped or at_section or at_b):
            return None
        return (at_capped, at_section, at_b, subword_step(gen, held, bit),
                subword_step(g1, held1, bit), subword_step(g2, held2, bit))

    start = (capped_start, section_start, b_start, 0, 0, 0)
    for w, (at_capped, at_section, at_b, held, held1, held2) in walk(
            max_symbols + 1, start, step):
        in_capped, in_section = at_capped is not None, at_section is not None
        # the capped blow-up locus is the bare section's coideal
        if (in_capped and on_locus(at_capped)) != in_section:
            failures.append(f"capped blow-up locus differs from the section at {w}")
        above_gen = in_capped and held == gen.n
        if in_capped != (in_section or above_gen):
            failures.append(f"capped split fails at {w}")
        if in_section and not in_capped:
            failures.append(f"section coideal leaves the capped coideal at {w}")
        if in_section and above_gen:
            failures.append(f"capped split overlaps at {w}")

        finite_b = at_b is not None and not on_locus(at_b)
        if finite_b != (at_b is not None and (held1 == g1.n or held2 == g2.n)):
            failures.append(f"bracketed two-generator identity fails at {w}")
        if finite_b and len(w) == len(g1):
            minimal.append(w)
    if sorted(map(str, minimal)) != sorted([str(g1), str(g2)]):
        failures.append(f"bracketed minimal elements are {minimal}, expected two generators")

    meet = lower_covers(g1) & lower_covers(g2)
    expected_meet = {W("-++-+-+"), W("-+-++-+")}
    if meet != expected_meet:
        failures.append(f"common lower covers are {sorted(map(str, meet))}")
    for w in meet:
        if not (member(bracketed, w) and member_J(bracketed, w)):
            failures.append(f"common lower cover {w} escapes the blow-up locus")

    return [f"both identities exhaustive to {max_symbols} symbols; "
            f"bracketed ideal has {len(minimal)} minimal elements"], failures


# ---------------------------------------------------------------------------
# Suite 6: the injection into the product of sections
# ---------------------------------------------------------------------------

@_suite("injection", 10, 0, LEVEL_CAP + 1)
def suite_injection(cap: int, _seed: Optional[int]) -> Checks:
    failures: list[str] = []
    lines: list[str] = []
    for name, model in EXAMPLE_MODELS.items():
        t = model.template
        sections = flange_and_sections(t).sections
        image: dict[tuple[BinaryWord, ...], BinaryWord] = {}
        coords: dict[BinaryWord, tuple[BinaryWord, ...]] = {}
        for w, state in walk(cap, *placement(t)):
            if not on_locus(state):
                decs = inject_all(t, w)
                if len(decs) != 1:
                    failures.append(f"{name}: {len(decs)} decompositions at {w}")
                    continue
                coords[w] = decs[0]
                if decs[0] in image:
                    failures.append(f"{name}: image collision at {decs[0]}")
                image[decs[0]] = w
        for w, tup in coords.items():
            covers, pieces = upper_covers(w), [upper_covers(x) for x in tup]
            for u in covers:
                if u not in coords:
                    continue
                diff = [i for i in range(len(tup)) if coords[u][i] != tup[i]]
                if len(diff) != 1:
                    failures.append(f"{name}: edge {w}->{u} moves {len(diff)} coordinates")
                    continue
                i = diff[0]
                if coords[u][i] not in pieces[i]:
                    failures.append(f"{name}: edge {w}->{u} is not a coordinate cover")
            if vertex_level(w) >= cap:
                continue  # the bumped preimage would fall outside the enumeration
            for i, section in enumerate(sections):
                for c in pieces[i]:
                    if not member(section, c):
                        continue
                    bumped = tup[:i] + (c,) + tup[i + 1:]
                    pre = image.get(bumped)
                    if pre is None:
                        failures.append(f"{name}: image misses cover {bumped} of {tup}")
                    elif pre not in covers:
                        failures.append(f"{name}: product edge at {tup} has no preimage edge")
        lines.append(f"{name}: {len(coords)} points embedded, edges and ideal image checked")
    return lines, failures


# ---------------------------------------------------------------------------
# Suite 7: semifinite trichotomy, harmonicity, closed form
# ---------------------------------------------------------------------------

@_suite("semifinite", 10, 0, LEVEL_CAP + 1)
def suite_semifinite(cap: int, _seed: Optional[int]) -> Checks:
    # The automaton's kind, read off its placement tables, is compared
    # with place's greedy pass, independent code.  A word wrongly valued
    # zero shows only in a cover sum below it; the tests check zeros by
    # regex.  A cover's denominator has one more factor D, so harmonicity
    # is D * R(v) == sum of R over the covers, an infinite one absorbing it.
    failures, counts, tables = [], [], {}
    for name, model in EXAMPLE_MODELS.items():
        t = model.template
        denominator, levels = tables[name] = semifinite_table(model, cap)
        if levels[0].get(0, 0) is not None:  # the root is infinite, as its one cover must be
            failures.append(f"{name}: not harmonic at {ROOT}")
        count = 0
        for k in range(cap):
            above = levels[k + 1]
            for bits, value in levels[k].items():
                count += 1
                w = BinaryWord(k, bits)
                fits, cuts = place(t, w)
                kind = "infinite" if value is None else "finite" if value else "zero"
                expected_kind = "zero" if not fits else ("infinite" if cuts is None else "finite")
                if kind != expected_kind:
                    failures.append(f"{name}: {w} is {kind}, expected {expected_kind}")
                total: Optional[int] = 0
                for c in upper_cover_bits(k, bits):
                    covered = above.get(c, 0)
                    if covered is None:
                        total = None
                        break
                    total += covered
                if total != (None if value is None else value * denominator):
                    failures.append(f"{name}: not harmonic at {w}")
        counts.append(f"{name} {count}")
    # the closed form checks both routes: phi_tw, and the walked table,
    # whose numerators the checks above tie only to each other
    w1, w2 = STEP_MODEL.weights
    denominator, levels = tables["step"]
    offset = automaton(STEP_MODEL).offset
    for n in range(0, 5):
        for m in range(0, 5):
            v = W("+" * n + "-+" + "-" * m)
            expected = w1 ** (n + 1) * w2 ** (m + 1)
            if phi_tw(STEP_MODEL, v) != ExtValue.finite(expected):
                failures.append(f"step closed form fails at {v}")
            if (v.n <= cap and levels[v.n].get(v.bits, 0)
                    != expected * denominator ** (v.n - offset)):
                failures.append(f"step closed form fails at {v} in the walk")
    return [f"three models, trichotomy and harmonicity to level {cap} "
            f"({', '.join(counts)} words walked); step closed form n,m <= 4"], failures


# ---------------------------------------------------------------------------
# Suite 8: the approximating sequence under the two-block words
# ---------------------------------------------------------------------------

@_suite("approx-sequence", 6, 1, LEVEL_CAP + 1)
def suite_approx_sequence(max_n: int, _seed: Optional[int]) -> Checks:
    failures = []
    w1, w2 = STEP_MODEL.weights
    for n in (2, 3):
        for m in (2, 3):
            target = W("+" * n + "-" * m)
            base = W("+" * (n - 1) + "-+" + "-" * (m - 1))
            seq = [FormalCombination(vertex_level(base), {base: Fraction(big_n)})
                   for big_n in range(1, max_n + 1)]
            report = check_approx_sequence(
                STEP_MODEL, target, seq,
                search_cap=vertex_level(target) + max_n,
                threshold=(max_n - 1) * w1 ** n * w2 ** m)
            if not report.ok:
                failures.append(f"sequence under {target} not certified")
            expected_values = tuple(big_n * w1 ** n * w2 ** m
                                    for big_n in range(1, max_n + 1))
            if report.values != expected_values:
                failures.append(f"values under {target} are {report.values}")
            expected_levels = tuple(vertex_level(target) + big_n
                                    for big_n in range(1, max_n + 1))
            if report.certified_levels != expected_levels:
                failures.append(
                    f"certificates under {target} at {report.certified_levels}")
    return [f"step model, n,m in 2..3, multiples up to {max_n}"], failures


# ---------------------------------------------------------------------------
# Suite 9: the eps-limit (valuation and ratio constancy)
# ---------------------------------------------------------------------------

#: check_limit_formula starts at the marker word of each example model
MARKER_LEVEL = max(vertex_level(minimal_maxblock_word(model.template))
                   for model in EXAMPLE_MODELS.values())


@_suite("eps-limit", 9, MARKER_LEVEL, LEVEL_CAP + 1)
def suite_eps_limit(cap: int, _seed: Optional[int]) -> Checks:
    failures, lines = [], []
    for name, model in EXAMPLE_MODELS.items():
        report = check_limit_formula(model, cap)
        lines.append(f"{name}: n={report.n} const={report.const} "
                     f"({report.finite_points} finite, "
                     f"{report.vanishing_points} vanishing points)")
        if not report.ok:
            failures.extend(f"{name}: {f}" for f in report.failures)
        if name == "step":
            # Measured against the splitting oracle: two minimal splittings
            # run through the pair of eps-intervals, hence ratio 2.
            if report.n != 1:
                failures.append(f"step: valuation {report.n}, expected 1")
            if report.const != 2:
                failures.append(f"step: ratio {report.const}, expected 2")
    return lines, failures


# ---------------------------------------------------------------------------
# Suite 10: ring identity against the model paintbox
# ---------------------------------------------------------------------------

@_suite("ring-identity", 9, 3, DEGREE_CAP, flag="degree")
def suite_ring_identity(degree: int, _seed: Optional[int]) -> Checks:
    left_boxes = 3
    failures, lines = [], []
    lefts: list[Vertex] = [ROOT, *words_below(left_boxes)]
    for name, model in EXAMPLE_MODELS.items():
        t = model.template
        rights = [w for w, state in walk(degree - left_boxes, *placement(t))
                  if not on_locus(state)]
        failures.extend(f"{name}: ring identity fails at ({a}, {b})"
                        for a, b in ring_identity_failures(model, lefts, rights))
        lines.append(f"{name}: {len(lefts) * len(rights)} pairs"
                     + (" (no finite vertices this low)" if not rights else ""))
    return lines, failures


# ---------------------------------------------------------------------------
# Suite 11: distinct models are separated by a low vertex
# ---------------------------------------------------------------------------

DISTINCT_PAIRS: list[tuple[GrowthModel, GrowthModel]] = [
    (GrowthModel.parse("+* -1 +1 -* | w=1/3,2/3"),
     GrowthModel.parse("+* -1 +1 -* | w=1/2,1/2")),
    (GrowthModel.parse("+* -1 +1 -* | w=1/3,2/3"),
     GrowthModel.parse("+* -1 +1 -* | w=2/3,1/3")),
    (GrowthModel.parse("+* -1 +1 -* | w=1/4,3/4"),
     GrowthModel.parse("+* -1 +1 -* | w=1/5,4/5")),
    (STEP_MODEL, CAPPED_MODEL),
    (STEP_MODEL, BRACKETED_MODEL),
    (CAPPED_MODEL, BRACKETED_MODEL),
    (GrowthModel.parse("+1 -* +* -1 +* | w=1/2,1/3,1/6"),
     GrowthModel.parse("+1 -* +* -1 +* | w=1/6,1/3,1/2")),
    (GrowthModel.parse("+1 -* +* -1 +* | w=1/2,1/3,1/6"),
     GrowthModel.parse("+1 -* +* -1 +* | w=1/3,1/3,1/3")),
    (GrowthModel.parse("-1 +* -* +1 -* +* -* +1 | w=1/3,1/4,1/6,1/8,1/8"),
     GrowthModel.parse("-1 +* -* +1 -* +* -* +1 | w=1/8,1/8,1/6,1/4,1/3")),
    (GrowthModel.parse("+* -1 +1 -* | w=1/6,5/6"),
     GrowthModel.parse("+1 -* +* -1 +* | w=1/6,2/3,1/6")),
]


#: the lowest level at which the walk separates every pair of DISTINCT_PAIRS:
#: pair 8 first differs at -++-++-+, a word of level 9.  Declared, since
#: import does no walk; a Tier-1 test recomputes it from the point values
DISTINCT_LEVEL = 9


@_suite("distinctness", 10, DISTINCT_LEVEL, LEVEL_CAP + 1)
def suite_distinctness(cap: int, _seed: Optional[int]) -> Checks:
    failures, lines = [], []
    for idx, (m1, m2) in enumerate(DISTINCT_PAIRS):
        # both models vanish outside the union of their coideals; the walk
        # carries each model's automaton state, None off its coideal
        a1, a2 = automaton(m1), automaton(m2)

        def in_either(state: tuple, bit: int) -> Optional[tuple]:
            at1, at2 = state
            at1, at2 = at1 and automaton_step(a1, at1, bit), at2 and automaton_step(a2, at2, bit)
            return (at1, at2) if at1 or at2 else None

        witness = next((w for w, (at1, at2) in walk(cap, (a1.start, a2.start), in_either)
                        if _values_differ(a1, at1, a2, at2, w.n)), None)
        if witness is None:
            failures.append(f"pair {idx} not separated up to level {cap}")
        else:
            lines.append(f"pair {idx} separated at {witness} (level {vertex_level(witness)})")
    return lines, failures


def _values_differ(a1: Automaton, at1: Optional[ModelState], a2: Automaton,
                   at2: Optional[ModelState], n: int) -> bool:
    """Whether two models differ at a word of n symbols with these automaton
    states, not both None (zero off a coideal); finite values
    R1 / D1^e1 and R2 / D2^e2 compare as R1 * D2^e2 against R2 * D1^e1."""
    if at1 is None or at2 is None:
        return True
    r1, r2 = automaton_numerator(a1, at1), automaton_numerator(a2, at2)
    if r1 is None or r2 is None:
        return r1 is not r2
    return r1 * a2.denominator ** (n - a2.offset) != r2 * a1.denominator ** (n - a1.offset)


def run_suite(name: str, level: Optional[int] = None, degree: Optional[int] = None,
              seed: Optional[int] = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](level=level, degree=degree, seed=seed)
