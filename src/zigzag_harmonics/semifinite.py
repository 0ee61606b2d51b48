"""Semifinite growth models and their harmonic evaluations.

A growth model is a semifinite template together with positive weights
on its infinite clusters summing to one.  Its evaluation at a vertex is
zero off the template's coideal, infinite on the union of reduced
coideals, and elsewhere the product over sections of the section
coordinate evaluated against that section's weighted intervals.  The
root always evaluates to infinity: the empty diagram fits every
reduced template, so no normalization at the root is possible.
A model keeps its weights as integers, scaled by their common
denominator D, and each section's interval tuple keeps its own integer
lengths (:func:`section_interval_tuples`).  :func:`phi_tw` multiplies
the section numerators and divides once; it values one vertex.  A walk
values each word from its parent's state, through the model compiled
once into a weighted automaton (:func:`automaton`) over the model's D,
and the ring identity compares that walk's integers and never divides.

The deformation machinery replaces each flange cluster by an interval of
length eps; evaluations are then polynomials in eps with non-negative
rational coefficients, and the limiting statements become exact
statements about valuations and leading coefficients, both read off one
integer evaluation at a large power of two.  eps is never a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm, prod
from typing import NamedTuple, Optional, Sequence, Union

from .paintbox import (IntervalTuple, Paintbox, eval_F_numerator, parse_rational,
                       template_of_intervals, transfer)
from .qsym import DEGREE_CAP, shuffle_counts
from .templates import (Template, _layout, compile_placement, is_finite_template, member,
                        member_J, minimal_maxblock_word, on_locus, parse_template, place,
                        placement)
from .words import (LEVEL_CAP, ROOT, BinaryWord, Explorer, FormalCombination, Frozen,
                    Vertex, _set, dominates_search, level, subword_step, walk_levels)


# ---------------------------------------------------------------------------
# Values in [0, +oo]
# ---------------------------------------------------------------------------

class _Infinity:
    """+oo, the value of a model at the root and on the blow-up locus; zero
    and the positive values are ``Fraction``s."""

    def __reduce__(self) -> str:
        return "INFINITY"  # unpickles to the one instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __str__(self) -> str:
        return "inf"


INFINITY = _Infinity()

_Value = Union[Fraction, _Infinity]


# ---------------------------------------------------------------------------
# Growth models
# ---------------------------------------------------------------------------

class GrowthModel(Frozen):
    """Semifinite template plus growth weights on its infinite clusters."""

    __slots__ = ("template", "weights", "_scaled", "_sections", "_automaton")
    template: Template
    weights: tuple[Fraction, ...]
    # the common denominator D of the weights, and the weights scaled by D
    _scaled: tuple[int, tuple[int, ...]]
    # filled by section_interval_tuples on first use
    _sections: Optional[tuple[IntervalTuple, ...]]
    # filled by automaton on first use
    _automaton: Optional["Automaton"]

    def __init__(self, template: Template, weights: tuple[Fraction, ...]) -> None:
        if is_finite_template(template):
            raise ValueError(f"template {template} is finite")
        if len(weights) != template.infinite_count:
            raise ValueError(
                f"need {template.infinite_count} weights, got {len(weights)}")
        if not all((type(w) is int or type(w) is Fraction) and w.numerator > 0 for w in weights):
            raise ValueError("weights must be positive ints or Fractions")
        denominator = lcm(*(w.denominator for w in weights))
        scaled = tuple(w.numerator * (denominator // w.denominator) for w in weights)
        if sum(scaled) != denominator:
            raise ValueError("weights must sum to 1")
        _set(self, "template", template)
        _set(self, "weights", weights)
        _set(self, "_scaled", (denominator, scaled))
        _set(self, "_sections", None)
        _set(self, "_automaton", None)

    @staticmethod
    def parse(text: str) -> "GrowthModel":
        """Grammar: template tokens, '|', 'w=' and comma-separated rationals."""
        head, sep, tail = text.partition("|")
        tail = tail.strip()
        if not sep or not tail.startswith("w="):
            raise ValueError("expected '<template> | w=<comma separated weights>'")
        weights = tuple(parse_rational(tok) for tok in tail[2:].split(","))
        return GrowthModel(parse_template(head.strip()), weights)

    def __str__(self) -> str:
        return f"{self.template} | w={','.join(str(w) for w in self.weights)}"


def section_interval_tuples(model: GrowthModel) -> tuple[IntervalTuple, ...]:
    """Weighted intervals per section, weights following the infinite clusters.

    Read off the template's section spans on first use and stored on
    the model.
    """
    if model._sections is None:
        clusters = model.template.clusters
        weights = iter(model.weights)
        _set(model, "_sections", tuple(
            IntervalTuple(tuple((c.sign, next(weights))
                                for c in clusters[lo:hi] if c.is_infinite))
            for lo, hi in _layout(model.template)[0]))
    return model._sections


def model_paintbox(model: GrowthModel) -> Paintbox:
    """The weights as a finitary paintbox, oriented by the infinite clusters."""
    intervals = tuple((c.sign, w) for c, w in
                      zip((c for c in model.template if c.is_infinite), model.weights))
    return Paintbox(intervals)


def phi_tw(model: GrowthModel, v: Vertex) -> _Value:
    """The semifinite harmonic evaluation at a vertex.

    ``Fraction(0)`` off the coideal, :data:`INFINITY` on every vertex
    fitting a reduced template (the root included), and otherwise the
    positive product of section coordinates against the section interval
    tuples.  One :func:`~zigzag_harmonics.templates.place` call decides
    the three cases and gives the coordinates of
    :func:`~zigzag_harmonics.templates.inject`.  Each section is valued
    on integer numerators, and the value is one ``Fraction`` of their
    products; a zero numerator there raises ``ValueError``.
    """
    if v is ROOT:
        return INFINITY
    fits, cuts = place(model.template, v)
    if not fits:
        return Fraction(0)
    if cuts is None:
        return INFINITY
    numerator = denominator = 1
    for (start, stop), intervals in zip(cuts, section_interval_tuples(model)):
        numerator *= eval_F_numerator(v.sub(start, stop), intervals)
        denominator *= intervals.denominator ** (stop - start + 1)
    if not numerator:
        raise ValueError("finite values must be positive, got 0")
    return Fraction(numerator, denominator)


# ---------------------------------------------------------------------------
# The weighted automaton
# ---------------------------------------------------------------------------

#: a word's placement state in the template (an id of its placement
#: automaton), the index of the open section, that section's transfer
#: vector and the product of the closed sections' numerators
ModelState = tuple[int, int, Sequence[int], int]


class Automaton(NamedTuple):
    """A growth model compiled into one weighted automaton, as plain data.

    Off the blow-up locus every flange cluster is full, so a word of n
    symbols has n - F symbols in its k section coordinates, F the flange
    multiplicities, and phi_tw is R / D^(n - F + k) with D the common
    denominator of the weights and R, read off the state by
    :func:`automaton_numerator`, the product of the section numerators.

    The sections are numbered 1 to k.  Section 0 stands before the
    first: no symbol enters it, and its one interval of length 1 closes
    to 1, so that every section skipped whole, before the first entered
    one, between two or after the last, is read off ``skipped``.
    """

    start: ModelState
    # the template's placement automaton, shared with its walks: a state
    # is one table read from its parent, and its label is the cluster
    # that took the last symbol
    placement: Explorer
    # per cluster: its section, 0 on the flange
    sections: tuple[int, ...]
    # per section, the intervals each symbol bit keeps and the lengths
    # scaled by D, as paintbox.transfer takes them
    keeps: tuple[tuple[tuple[bool, ...], tuple[bool, ...]], ...]
    lengths: tuple[tuple[int, ...], ...]
    # skipped[s][e]: the scaled totals of the sections strictly between s
    # and e multiplied, e = k + 1 standing past the last section
    skipped: tuple[tuple[int, ...], ...]
    denominator: int
    offset: int  # F - k


def automaton(model: GrowthModel) -> Automaton:
    """The model's weighted automaton, compiled on first use and stored on it.

    Its step, :func:`automaton_step`, reads the template's placement
    automaton and follows the cluster that takes each symbol, the label
    of the state it reaches.  A flange cluster
    leaves the transfer vector alone.  A later section closes the open
    one to its sum, multiplies in the total of each section skipped
    whole, and opens with its own lengths; a section's symbol updates
    the vector by one :func:`~zigzag_harmonics.paintbox.transfer` step.
    """
    if model._automaton is None:
        t = model.template
        spans, flange = _layout(t)
        sections = section_interval_tuples(model)
        denominator, scaled = model._scaled
        weights = iter(scaled)
        lengths = ((1,), *(tuple(next(weights) for _ in u.intervals) for u in sections))
        keeps = (((), ()), *(u._transfer[0] for u in sections))
        totals = [sum(scaled) for scaled in lengths]
        skipped = tuple(tuple(prod(totals[s + 1:e]) for e in range(len(totals) + 1))
                        for s in range(len(totals)))
        section_of = [0] * len(t)
        for s, (lo, hi) in enumerate(spans, 1):
            section_of[lo:hi] = [s] * (hi - lo)
        p = compile_placement(t)
        _set(model, "_automaton", Automaton(
            (p.start, 0, lengths[0], 1), p, tuple(section_of), keeps, lengths, skipped, denominator,
            sum(t.clusters[i].mult for i in flange) - len(spans)))
    return model._automaton


def automaton_step(a: Automaton, state: ModelState, bit: int) -> Optional[ModelState]:
    """A word's state from its parent's and its last symbol; None off the coideal."""
    at, section, vec, closed = state
    p = a.placement
    at = p.step(at, bit)
    if at is None:
        return None
    to = a.sections[p.labels[at]]
    if not to:
        return at, section, vec, closed
    if to != section:
        closed *= sum(vec) * a.skipped[section][to]
        section, vec = to, a.lengths[to]
    return at, section, transfer(a.keeps[section], a.lengths[section], vec, bit, 1), closed


def automaton_numerator(a: Automaton, state: ModelState) -> Optional[int]:
    """R, with phi_tw = R / D^(n - F + k) at a word of n symbols in the
    coideal; None on the blow-up locus."""
    at, section, vec, closed = state
    return None if on_locus(at) else closed * sum(vec) * a.skipped[section][-1]


def semifinite_table(model: GrowthModel, cap: int
                     ) -> tuple[int, list[dict[int, Optional[int]]]]:
    """The common denominator D and, per word length up to cap symbols,
    the automaton numerator R of each word in the model's coideal by
    packed bits, None on the blow-up locus (:class:`Automaton`).

    One walk of the automaton values each word below cap symbols once.
    The words of cap symbols, read only as covers, come from one more
    step on each state of cap - 1 symbols, so no walk passes the cap; at
    cap 0 the empty word, the root's one cover, is the start state.
    """
    a = automaton(model)
    step = partial(automaton_step, a)
    walked = walk_levels(cap, a.start, step)  # checks cap before any work
    levels: list[dict[int, Optional[int]]] = [{} for _ in range(cap + 1)]
    top = levels[cap]
    if not cap:
        top[0] = automaton_numerator(a, a.start)
    for length, layer in walked:
        levels[length] = {bits: automaton_numerator(a, state) for bits, state in layer}
        if length == cap - 1:
            for bits, state in layer:
                for bit in (0, 1):
                    child = step(state, bit)
                    if child is not None:
                        top[bits | bit << length] = automaton_numerator(a, child)
    return a.denominator, levels


# ---------------------------------------------------------------------------
# The eps deformation
# ---------------------------------------------------------------------------

def build_w_eps(model: GrowthModel, eps: Union[int, Fraction]) -> IntervalTuple:
    """Flange clusters become eps-intervals between the weighted sections.

    One pass over the clusters, in template order: a flange cluster
    gives an interval of length eps and an infinite cluster one of its
    weight, each oriented by the cluster's sign; a separating cluster
    gives none.  Clusters alternate in sign, so each flange cluster is
    one block of its flange word.  A semifinite template has a
    non-empty flange, so at least one eps-interval always appears.
    """
    t = model.template
    flange = _layout(t)[1]
    weights = iter(model.weights)
    return IntervalTuple(tuple((c.sign, eps if i in flange else next(weights))
                               for i, c in enumerate(t.clusters)
                               if c.is_infinite or i in flange))


class LimitReport(NamedTuple):
    ok: bool
    n: Optional[int]
    const: Optional[Fraction]
    finite_points: int
    vanishing_points: int
    failures: tuple[str, ...]


def check_limit_formula(model: GrowthModel, level_cap: int) -> LimitReport:
    """Valuation and leading-coefficient constancy above the marker word.

    Walks the coideal of the deformed template up to the level cap and
    keeps the words above the template's minimal max-block word; that
    set is closed upward, not under prefixes, so the walk carries how
    much of the marker word each word holds as a subword and filters on
    it instead of pruning.  Where the model evaluates finitely the
    eps-valuation must be one number n and the ratio leading
    coefficient / value one constant; where the model evaluates to zero
    (the word fits the deformed template but not the original one) the
    valuation must exceed n, so that the rescaled limit vanishes too.
    n and the constant are measured outputs.

    Both numbers are read off one integer per word.  For a word of n
    symbols the eps coefficients times D^(n+1) are integers at most
    (D * L)^(n+1), L the total length at eps = 1, and n + 1 is at most
    the level cap; so at eps = 2^b, b the bit length of (D * L)^cap,
    they are the base-2^b digits of the numerator that
    :func:`~zigzag_harmonics.paintbox.eval_F_numerator` returns
    (Kronecker substitution).  The valuation is its count of trailing
    zero bits over b, and the leading coefficient its lowest non-zero
    digit over D^(n+1).
    """
    if level_cap - 1 > LEVEL_CAP:
        raise ValueError(f"level cap {level_cap} above the enumeration cap {LEVEL_CAP + 1}")
    t = model.template
    # the marker word's level, worked out before the word is built: a
    # large multiplicity makes it long
    marker_level = 1 + sum(c.mult or 1 for c in t.clusters)
    if marker_level > level_cap:
        raise ValueError(f"level cap {level_cap} below the marker level {marker_level}")
    nu = minimal_maxblock_word(t)
    unit = build_w_eps(model, 1)
    b = (int(unit.denominator * sum(unit.lengths)) ** level_cap).bit_length()
    w_eps = build_w_eps(model, 1 << b)
    mask = (1 << b) - 1
    start, t_step = placement(template_of_intervals(w_eps))

    def step(state: tuple, bit: int) -> Optional[tuple]:
        at, held = state
        at = t_step(at, bit)
        return None if at is None else (at, subword_step(nu, held, bit))

    n_seen: Optional[int] = None
    const_seen: Optional[Fraction] = None
    finite_points = 0
    vanishing: list[tuple[BinaryWord, int]] = []
    failures: list[str] = []
    # a word object only for the words above the marker word
    above = (BinaryWord(length, bits) for length, layer in walk_levels(level_cap, (start, 0), step)
             for bits, (_, held) in layer if held == nu.n)
    for w in above:
        numerator = eval_F_numerator(w, w_eps)
        n_here = ((numerator & -numerator).bit_length() - 1) // b if numerator else None
        val = phi_tw(model, w)
        if val is INFINITY:
            failures.append(f"{w}: infinite value above the marker word")
            continue
        if not val:
            vanishing.append((w, n_here))
            continue
        finite_points += 1
        if n_here is None:
            failures.append(f"{w}: zero expansion at a positive point")
            continue
        leading = (numerator >> n_here * b) & mask
        const_here = Fraction(leading * val.denominator,
                              w_eps.denominator ** (w.n + 1) * val.numerator)
        if n_seen is None:
            n_seen, const_seen = n_here, const_here
        else:
            if n_here != n_seen:
                failures.append(f"{w}: valuation {n_here} != {n_seen}")
            if const_here != const_seen:
                failures.append(f"{w}: ratio {const_here} != {const_seen}")
    for w, v in vanishing:
        if n_seen is not None and (v is None or v <= n_seen):
            failures.append(f"{w}: vanishing point with valuation {v} <= {n_seen}")
    ok = not failures and finite_points > 0
    return LimitReport(ok, n_seen, const_seen, finite_points, len(vanishing),
                       tuple(failures))


# ---------------------------------------------------------------------------
# Ring identity and approximating sequences
# ---------------------------------------------------------------------------

def ring_identity_failures(model: GrowthModel, lefts: Sequence[Vertex],
                           rights: Sequence[Vertex]) -> list[tuple[Vertex, BinaryWord]]:
    """The pairs (a, b), a from lefts and b from rights, where the ring identity fails.

    The identity is phi(F_a F_b) = phi_paintbox(a) * phi(b), for b of
    finite value; any other b raises ``ValueError``, as does a combined
    degree above ``DEGREE_CAP``, before any work.  It is checked in
    integers.  The automaton gives phi(v) = R(v) / D^(n - F + k) at a
    word of n symbols (:class:`Automaton`), and the model's paintbox
    gives phi_paintbox(a) = N(a) / D^(|a| + 1) over the same D, the
    common denominator of the weights; every word of F_a F_b has
    |a| + |b| + 1 symbols, so both sides carry the same power of D and
    the identity reads sum of count * R(v) == N(a) * R(b), with N = 1
    at the root.  One :func:`semifinite_table` up to the longest
    product word gives every R.

    Every word carrying a positive structure constant sits above b,
    hence outside the blow-up locus; an infinite term would contradict
    that geometry and raises ``RuntimeError`` instead of propagating.
    """
    degree = max(map(level, lefts), default=0) + max(map(level, rights), default=0)
    if degree > DEGREE_CAP:
        raise ValueError(f"combined degree {degree} above cap {DEGREE_CAP}")
    box = model_paintbox(model)
    left_numerators = [(a, 1 if a is ROOT else eval_F_numerator(a, box)) for a in lefts]
    levels = semifinite_table(model, max(degree - 1, 0))[1]
    failures: list[tuple[Vertex, BinaryWord]] = []
    for b in rights:
        numerator_b = None if b is ROOT else levels[b.n].get(b.bits, 0)
        if not numerator_b:  # None on the blow-up locus, 0 off the coideal
            raise ValueError(f"'{b}' is not a finite-value vertex of {model.template}")
        for a, numerator_a in left_numerators:
            lvl, counts = shuffle_counts(a, b)
            row = levels[lvl - 1]  # the words of the product
            total = 0
            for bits, count in counts.items():
                numerator = row.get(bits, 0)
                if numerator is None:
                    raise RuntimeError(f"structure constant {count} at blow-up vertex "
                                       f"'{BinaryWord(lvl - 1, bits)}'")
                total += count * numerator
            if total != numerator_a * numerator_b:
                failures.append((a, b))
    return failures


class ApproxReport(NamedTuple):
    ok: bool
    certified_levels: tuple[Optional[int], ...]
    values: tuple[Fraction, ...]


def check_approx_sequence(model: GrowthModel, target: BinaryWord,
                          seq: Sequence[FormalCombination], *,
                          search_cap: int,
                          threshold: Optional[Fraction] = None) -> ApproxReport:
    """Certify an approximating sequence below an infinite-value word.

    Each combination must live where the model is finite, be dominated
    by the target in the cone of the template's coideal (single-level
    certificate searched up to the cap), and the finite values must
    strictly increase; unboundedness is asserted as the last value
    exceeding the requested threshold.  A missing certificate means
    "not certified at this cap", not a disproof of dominance.
    """
    t = model.template
    if not member_J(t, target):
        raise ValueError(f"target '{target}' is not an infinite-value word of {t}")
    within = lambda w: member(t, w)
    levels: list[Optional[int]] = []
    values: list[Fraction] = []
    for comb in seq:
        total = Fraction(0)
        for v, c in comb.coeffs.items():
            val = phi_tw(model, v)
            if val is INFINITY or not val:
                raise ValueError(f"combination touches non-finite vertex '{v}'")
            total += c * val
        levels.append(dominates_search(target, comb, search_cap, within=within))
        values.append(total)
    increasing = all(x < y for x, y in zip(values, values[1:]))
    ok = (all(lvl is not None for lvl in levels) and increasing
          and (threshold is None or (values and values[-1] > threshold)))
    return ApproxReport(ok, tuple(levels), tuple(values))
