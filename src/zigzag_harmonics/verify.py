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

Suites accept ``level``/``degree``/``seed`` overrides but default to
the documented caps.  An override whose words or products would pass
:data:`~zigzag_harmonics.words.LEVEL_CAP` or
:data:`~zigzag_harmonics.qsym.DEGREE_CAP` is rejected with a
``ValueError`` before the suite does any work.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

from .paintbox import (IntervalTuple, Paintbox, eval_F, eval_F_coproduct, phi_w,
                       template_of_paintbox)
from .qsym import DEGREE_CAP, pieri_check
from .semifinite import (ExtValue, GrowthModel, check_approx_sequence,
                         check_harmonic_at, check_limit_formula,
                         check_ring_identity, phi_tw)
from .templates import (inject_all, member, member_J, parse_template,
                        reduced_templates)
from .words import (LEVEL_CAP, ROOT, BinaryWord, FormalCombination, Vertex, dim,
                    enumerate_level, is_subword, lower_covers, upper_covers)
from .words import level as vertex_level

W = BinaryWord.from_str

STEP_TEMPLATE = parse_template("+* -1 +1 -*")
CAPPED_TEMPLATE = parse_template("+1 -* +* -1 +*")
BRACKETED_TEMPLATE = parse_template("-1 +* -* +1 -* +* -* +1")

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


def _report(suite: str, started: float, failures: list[str],
            lines: list[str]) -> SuiteReport:
    ok = not failures
    return SuiteReport(suite, ok, lines + failures, time.perf_counter() - started)


def _within_cap(what: str, value: int, cap: int) -> None:
    """Reject an override at entry rather than after the work below it."""
    if value > cap:
        raise ValueError(f"{what} {value} above cap {cap}")


# ---------------------------------------------------------------------------
# Suite 1: one-box products list the upward covers
# ---------------------------------------------------------------------------

def suite_pieri(level: Optional[int] = None, degree: Optional[int] = None,
                seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    max_symbols = 7 if level is None else level
    _within_cap("combined degree", max_symbols + 2, DEGREE_CAP)
    failures, count = [], 0
    for length in range(max_symbols + 1):
        for w in enumerate_level(length):
            count += 1
            if not pieri_check(w):
                failures.append(f"one-box product wrong at {w}")
    lines = [f"checked {count} words up to {max_symbols} symbols"]
    return _report("pieri", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 2: closed-form path counts into the bent two-block words
# ---------------------------------------------------------------------------

def suite_path_counts(level: Optional[int] = None, degree: Optional[int] = None,
                      seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    cap = 6 if level is None else level
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
    lines = [f"checked {count} path counts, N <= {cap}"]
    return _report("path-counts", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 3: the two evaluators agree
# ---------------------------------------------------------------------------

def _random_interval_tuple(rng: random.Random, max_intervals: int = 4) -> IntervalTuple:
    m = rng.randint(1, max_intervals)
    intervals = tuple(
        (rng.choice("+-"), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(m))
    return IntervalTuple(intervals)


def suite_kerov_oracle(level: Optional[int] = None, degree: Optional[int] = None,
                       seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    max_symbols = 7 if level is None else level
    _within_cap("word length", max_symbols, LEVEL_CAP)
    rng = random.Random(20240 if seed is None else seed)
    tuples = [_random_interval_tuple(rng) for _ in range(20)]
    failures, count = [], 0
    vertices: list[Vertex] = [ROOT]
    for length in range(max_symbols + 1):
        vertices.extend(enumerate_level(length))
    for u in tuples:
        for v in vertices:
            count += 1
            if eval_F(v, u) != eval_F_coproduct(v, u):
                failures.append(f"evaluator mismatch at {v} against {u}")
    lines = [f"compared {count} evaluations over {len(tuples)} interval tuples"]
    return _report("kerov-oracle", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 4: paintbox harmonicity and support
# ---------------------------------------------------------------------------

def random_paintbox(rng: random.Random, max_intervals: int = 4) -> Paintbox:
    m = rng.randint(1, max_intervals)
    raw = [rng.randint(1, 9) for _ in range(m)]
    total = sum(raw)
    signs = [rng.choice("+-") for _ in range(m)]
    return Paintbox(tuple((s, Fraction(r, total)) for s, r in zip(signs, raw)))


def suite_finite_harmonicity(level: Optional[int] = None, degree: Optional[int] = None,
                             seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    cap = 10 if level is None else level
    _within_cap("word length", cap, LEVEL_CAP)
    rng = random.Random(20241 if seed is None else seed)
    boxes = [random_paintbox(rng) for _ in range(10)]
    failures = []
    for idx, pb in enumerate(boxes):
        t_w = template_of_paintbox(pb)
        values: dict[Vertex, Fraction] = {ROOT: phi_w(ROOT, pb)}
        for length in range(cap + 1):
            for w in enumerate_level(length):
                values[w] = phi_w(w, pb)
        for v, val in values.items():
            if vertex_level(v) > cap:
                continue
            total = sum((values[c] for c in upper_covers(v)), Fraction(0))
            if val != total:
                failures.append(f"paintbox {idx}: not harmonic at {v}")
        for v, val in values.items():
            if v is ROOT or vertex_level(v) > cap:
                continue
            if (val > 0) != member(t_w, v):
                failures.append(f"paintbox {idx}: support wrong at {v}")
        for length in range(cap):
            total = sum((dim(ROOT, w) * values[w] for w in enumerate_level(length)),
                        Fraction(0))
            if total != 1:
                failures.append(f"paintbox {idx}: mass {total} at {length} symbols")
    lines = [f"10 paintboxes, harmonicity, support, and unit mass up to level {cap}"]
    return _report("finite-harmonicity", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 5: coideal identities of the capped and bracketed templates
# ---------------------------------------------------------------------------

def suite_coideal_identities(level: Optional[int] = None, degree: Optional[int] = None,
                             seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    max_symbols = 11 if level is None else level
    _within_cap("word length", max_symbols, LEVEL_CAP)
    failures = []

    capped = CAPPED_TEMPLATE
    section = parse_template("-* +* -1 +*")
    gen = W("+--")
    if reduced_templates(capped) != (section,):
        failures.append("capped template: reduction is not the bare section")
    bracketed = BRACKETED_TEMPLATE
    g1, g2 = W("-+-+-+-+"), W("-++-++-+")
    minimal: list[BinaryWord] = []
    for length in range(max_symbols + 1):
        for w in enumerate_level(length):
            in_capped, in_section = member(capped, w), member(section, w)
            above_gen = in_capped and is_subword(gen, w)
            if in_capped != (in_section or above_gen):
                failures.append(f"capped split fails at {w}")
            if in_section and not in_capped:
                failures.append(f"section coideal leaves the capped coideal at {w}")
            if in_section and above_gen:
                failures.append(f"capped split overlaps at {w}")

            in_b = member(bracketed, w)
            in_j = in_b and member_J(bracketed, w)
            above = in_b and (is_subword(g1, w) or is_subword(g2, w))
            if (in_b and not in_j) != above:
                failures.append(f"bracketed two-generator identity fails at {w}")
            if in_b and not in_j and len(w) == len(g1):
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

    lines = [f"both identities exhaustive to {max_symbols} symbols; "
             f"bracketed ideal has {len(minimal)} minimal elements"]
    return _report("coideal-identities", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 6: the injection into the product of sections
# ---------------------------------------------------------------------------

def suite_injection(level: Optional[int] = None, degree: Optional[int] = None,
                    seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    cap = 10 if level is None else level
    _within_cap("word length", cap - 1, LEVEL_CAP)
    failures: list[str] = []
    lines: list[str] = []
    for name, model in EXAMPLE_MODELS.items():
        t = model.template
        from .templates import flange_and_sections

        sections = flange_and_sections(t).sections
        image: dict[tuple[BinaryWord, ...], BinaryWord] = {}
        coords: dict[BinaryWord, tuple[BinaryWord, ...]] = {}
        for length in range(cap):
            for w in enumerate_level(length):
                if member(t, w) and not member_J(t, w):
                    decs = inject_all(t, w)
                    if len(decs) != 1:
                        failures.append(f"{name}: {len(decs)} decompositions at {w}")
                        continue
                    coords[w] = decs[0]
                    if decs[0] in image:
                        failures.append(f"{name}: image collision at {decs[0]}")
                    image[decs[0]] = w
        for w, tup in coords.items():
            ups = [u for u in upper_covers(w) if u in coords]
            for u in ups:
                diff = [i for i in range(len(tup)) if coords[u][i] != tup[i]]
                if len(diff) != 1:
                    failures.append(f"{name}: edge {w}->{u} moves {len(diff)} coordinates")
                    continue
                i = diff[0]
                if coords[u][i] not in upper_covers(tup[i]):
                    failures.append(f"{name}: edge {w}->{u} is not a coordinate cover")
        for w, tup in coords.items():
            if vertex_level(w) >= cap:
                continue  # the bumped preimage would fall outside the enumeration
            for i, section in enumerate(sections):
                for c in upper_covers(tup[i]):
                    if not member(section, c):
                        continue
                    bumped = tup[:i] + (c,) + tup[i + 1:]
                    pre = image.get(bumped)
                    if pre is None:
                        failures.append(f"{name}: image misses cover {bumped} of {tup}")
                    elif pre not in upper_covers(w):
                        failures.append(f"{name}: product edge at {tup} has no preimage edge")
        lines.append(f"{name}: {len(coords)} points embedded, edges and ideal image checked")
    return _report("injection", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 7: semifinite trichotomy, harmonicity, closed form
# ---------------------------------------------------------------------------

def suite_semifinite(level: Optional[int] = None, degree: Optional[int] = None,
                     seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    cap = 10 if level is None else level
    _within_cap("word length", cap - 1, LEVEL_CAP)
    failures = []
    for name, model in EXAMPLE_MODELS.items():
        t = model.template
        count = 0
        vertices: list[Vertex] = [ROOT]
        for length in range(cap):
            vertices.extend(enumerate_level(length))
        for v in vertices:
            val = phi_tw(model, v)
            if v is ROOT:
                inside, blown = True, True
            else:
                inside = member(t, v)
                blown = inside and member_J(t, v)
            expected_kind = "zero" if not inside else ("infinite" if blown else "finite")
            if val.kind != expected_kind:
                failures.append(f"{name}: {v} is {val.kind}, expected {expected_kind}")
            if inside:
                count += 1
                if not check_harmonic_at(model, v):
                    failures.append(f"{name}: not harmonic at {v}")
    w1, w2 = STEP_MODEL.weights
    for n in range(0, 5):
        for m in range(0, 5):
            v = W("+" * n + "-+" + "-" * m)
            expected = ExtValue.finite(w1 ** (n + 1) * w2 ** (m + 1))
            if phi_tw(STEP_MODEL, v) != expected:
                failures.append(f"step closed form fails at {v}")
    lines = [f"three models, trichotomy and harmonicity to level {cap}; "
             "step closed form n,m <= 4"]
    return _report("semifinite", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 8: the approximating sequence under the two-block words
# ---------------------------------------------------------------------------

def suite_approx_sequence(level: Optional[int] = None, degree: Optional[int] = None,
                          seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    max_n = 6 if level is None else level
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
    lines = [f"step model, n,m in 2..3, multiples up to {max_n}"]
    return _report("approx-sequence", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 9: the eps-limit (valuation and ratio constancy)
# ---------------------------------------------------------------------------

def suite_eps_limit(level: Optional[int] = None, degree: Optional[int] = None,
                    seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    cap = 9 if level is None else level
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
    return _report("eps-limit", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 10: ring identity against the model paintbox
# ---------------------------------------------------------------------------

def suite_ring_identity(level: Optional[int] = None, degree: Optional[int] = None,
                        seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    left_boxes = 3
    right_boxes = 6 if degree is None else degree - left_boxes
    _within_cap("combined degree", left_boxes + right_boxes, DEGREE_CAP)
    failures, lines = [], []
    lefts: list[Vertex] = [ROOT]
    for length in range(left_boxes):
        lefts.extend(enumerate_level(length))
    for name, model in EXAMPLE_MODELS.items():
        t = model.template
        rights = [w for length in range(right_boxes)
                  for w in enumerate_level(length)
                  if member(t, w) and not member_J(t, w)]
        pairs = 0
        for b in rights:
            for a in lefts:
                pairs += 1
                if not check_ring_identity(model, a, b):
                    failures.append(f"{name}: ring identity fails at ({a}, {b})")
        lines.append(f"{name}: {pairs} pairs"
                     + (" (no finite vertices this low)" if not rights else ""))
    return _report("ring-identity", started, failures, lines)


# ---------------------------------------------------------------------------
# Suite 11: distinct models are separated by a low vertex
# ---------------------------------------------------------------------------

def _model(text: str) -> GrowthModel:
    return GrowthModel.parse(text)


DISTINCT_PAIRS: list[tuple[GrowthModel, GrowthModel]] = [
    (_model("+* -1 +1 -* | w=1/3,2/3"), _model("+* -1 +1 -* | w=1/2,1/2")),
    (_model("+* -1 +1 -* | w=1/3,2/3"), _model("+* -1 +1 -* | w=2/3,1/3")),
    (_model("+* -1 +1 -* | w=1/4,3/4"), _model("+* -1 +1 -* | w=1/5,4/5")),
    (STEP_MODEL, CAPPED_MODEL),
    (STEP_MODEL, BRACKETED_MODEL),
    (CAPPED_MODEL, BRACKETED_MODEL),
    (_model("+1 -* +* -1 +* | w=1/2,1/3,1/6"), _model("+1 -* +* -1 +* | w=1/6,1/3,1/2")),
    (_model("+1 -* +* -1 +* | w=1/2,1/3,1/6"), _model("+1 -* +* -1 +* | w=1/3,1/3,1/3")),
    (_model("-1 +* -* +1 -* +* -* +1 | w=1/3,1/4,1/6,1/8,1/8"),
     _model("-1 +* -* +1 -* +* -* +1 | w=1/8,1/8,1/6,1/4,1/3")),
    (_model("+* -1 +1 -* | w=1/6,5/6"), _model("+1 -* +* -1 +* | w=1/6,2/3,1/6")),
]


def suite_distinctness(level: Optional[int] = None, degree: Optional[int] = None,
                       seed: Optional[int] = None) -> SuiteReport:
    started = time.perf_counter()
    cap = 10 if level is None else level
    _within_cap("word length", cap - 1, LEVEL_CAP)
    failures, lines = [], []
    for idx, (m1, m2) in enumerate(DISTINCT_PAIRS):
        witness = None
        for length in range(cap):
            for w in enumerate_level(length):
                if phi_tw(m1, w) != phi_tw(m2, w):
                    witness = w
                    break
            if witness is not None:
                break
        if witness is None:
            failures.append(f"pair {idx} not separated up to level {cap}")
        else:
            lines.append(f"pair {idx} separated at {witness} (level {vertex_level(witness)})")
    return _report("distinctness", started, failures, lines)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[..., SuiteReport]] = {
    "pieri": suite_pieri,
    "path-counts": suite_path_counts,
    "kerov-oracle": suite_kerov_oracle,
    "finite-harmonicity": suite_finite_harmonicity,
    "coideal-identities": suite_coideal_identities,
    "injection": suite_injection,
    "semifinite": suite_semifinite,
    "approx-sequence": suite_approx_sequence,
    "eps-limit": suite_eps_limit,
    "ring-identity": suite_ring_identity,
    "distinctness": suite_distinctness,
}

#: alias kept because the identity is usually asked for by this name
SUITES["harmonicity"] = suite_finite_harmonicity


def run_suite(name: str, level: Optional[int] = None, degree: Optional[int] = None,
              seed: Optional[int] = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](level=level, degree=degree, seed=seed)
