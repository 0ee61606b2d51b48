"""Point values of growth models, kept as the oracles of the walked ones.

``automaton_mismatches`` walks a model's automaton
(``semifinite.automaton``) and compares the kind and value it reads off
each state with ``phi_tw``, the point route: one ``templates.place``
pass and ``paintbox.eval_F_numerator`` on each section coordinate.  The
two share neither the greedy pass nor the transfer vector's bookkeeping
across sections.

``cover_sum`` adds values in [0, +oo] as ``ExtValue``s: the oracle of
the integer cover sums that the semifinite suite compares with
D * R(v).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable

from zigzag_harmonics import semifinite
from zigzag_harmonics.semifinite import (ExtValue, GrowthModel, automaton_numerator,
                                         automaton_step, phi_tw)
from zigzag_harmonics.words import BinaryWord, walk


def automaton_value(a: semifinite.Automaton, state, n: int) -> ExtValue:
    """The value the automaton reads off a state of a word of n symbols."""
    r = automaton_numerator(a, state)
    if r is None:
        return ExtValue.infinite()
    return ExtValue.finite(Fraction(r, a.denominator ** (n - a.offset)))


def automaton_mismatches(model: GrowthModel, n: int) -> list[BinaryWord]:
    """The words below n symbols at which the automaton is not ``phi_tw``.

    Every walked word is compared, and every word the walk prunes one
    symbol past a walked one must be zero.  ``phi_tw`` is zero exactly
    off a coideal, which holds the prefixes of its words, so the words
    past those are zero too, and the comparison covers every word.  The
    automaton is looked up on the module at call time, so a test can
    plant a fault in it.
    """
    a = semifinite.automaton(model)
    step = partial(automaton_step, a)
    wrong = []
    for w, state in walk(n, a.start, step):
        if automaton_value(a, state, w.n) != phi_tw(model, w):
            wrong.append(w)
        if w.n + 1 < n:
            for bit in (0, 1):
                child = BinaryWord(w.n + 1, w.bits | bit << w.n)
                if step(state, bit) is None and not phi_tw(model, child).is_zero:
                    wrong.append(child)
    return wrong


def cover_sum(values: Iterable[ExtValue]) -> ExtValue:
    """Sum in [0, +oo] of the values at the covers of a vertex.

    Any infinite term absorbs the sum; zero terms add nothing, so the
    covers off the coideal may be left out or summed alike.
    """
    total = Fraction(0)
    for val in values:
        if val.is_infinite:
            return ExtValue.infinite()
        if val.is_finite:
            total += val.value
    return ExtValue.finite(total) if total else ExtValue.zero()
