"""Point values of growth models, kept as the oracles of the walked ones.

``automaton_mismatches`` walks a model's automaton
(``semifinite.automaton``) and compares the kind and value it reads off
each state with ``phi_tw``, the point route: one ``templates.place``
pass and ``paintbox.eval_F_numerator`` on each section coordinate.  The
two share neither the greedy pass nor the transfer vector's bookkeeping
across sections.

``value_kind`` names the kind of a value.  ``cover_sum`` adds values in [0, +oo], each a ``Fraction`` or
``INFINITY``: the oracle of the integer cover sums that the semifinite
suite compares with D * R(v).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable

from zigzag_harmonics import semifinite
from zigzag_harmonics.semifinite import (INFINITY, GrowthModel, automaton_numerator,
                                         automaton_step, phi_tw)
from zigzag_harmonics.words import BinaryWord, walk


def value_kind(val) -> str:
    """zero, finite or infinite: which of the three a value is."""
    return "infinite" if val is INFINITY else "finite" if val else "zero"


def automaton_value(a: semifinite.Automaton, state, n: int):
    """The value the automaton reads off a state of a word of n symbols."""
    r = automaton_numerator(a, state)
    return INFINITY if r is None else Fraction(r, a.denominator ** (n - a.offset))


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
                if step(state, bit) is None and phi_tw(model, child) != 0:
                    wrong.append(child)
    return wrong


def cover_sum(values: Iterable):
    """Sum in [0, +oo] of the values at the covers of a vertex.

    Any infinite term absorbs the sum; zero terms add nothing, so the
    covers off the coideal may be left out or summed alike.
    """
    values = list(values)
    return INFINITY if INFINITY in values else sum(values, Fraction(0))
