"""The formal route to the eps expansion, kept as a test oracle.

``semifinite.check_limit_formula`` reads the valuation and leading
coefficient of an evaluation in eps off one integer evaluation at eps =
2^b, whose base-2^b digits are all the coefficients times D^(n+1); the
tests split those digits.  This module gets the coefficients the long
way: ``EpsPoly`` is a polynomial in a formal eps with rational
coefficients, and ``brute_eval`` enumerates every splitting of a word
over a sequence of (sign, length) intervals, using the lengths as given,
so eps polynomials work as lengths too.  The two share nothing with the
transfer vector of ``paintbox.eval_F`` beyond the word encoding.  Both
are slow, and meant for short words only.

``limit_by_points`` is the eps-limit measured one point at a time, the
route ``check_limit_formula`` took before its walk carried each word's
state: a fresh ``eval_F_numerator`` on the deformed tuple and a
``phi_tw`` call for every word above the marker word, with no pruning.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from zigzag_harmonics import INFINITY, build_w_eps, phi_tw
from zigzag_harmonics.paintbox import eval_F_numerator, template_of_intervals
from zigzag_harmonics.semifinite import LimitReport
from zigzag_harmonics.templates import minimal_maxblock_word, placement
from zigzag_harmonics.words import subword_step, walk


class EpsPoly:
    """Finitely supported map from eps-exponent to rational coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, Fraction]] = None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = v if isinstance(v, Fraction) else Fraction(v)
                if v:
                    self.coeffs[k] = v

    @staticmethod
    def const(value: Union[int, Fraction]) -> "EpsPoly":
        return EpsPoly({0: Fraction(value)})

    @staticmethod
    def coerce(value: Union[int, Fraction, "EpsPoly"]) -> "EpsPoly":
        return value if isinstance(value, EpsPoly) else EpsPoly.const(value)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> Optional[int]:
        return min(self.coeffs) if self.coeffs else None

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[min(self.coeffs)]

    def coefficients(self) -> tuple[Fraction, ...]:
        """Lowest degree first, as the base-2^b digits give them; empty for zero."""
        if not self.coeffs:
            return ()
        return tuple(self.coeffs.get(k, Fraction(0)) for k in range(max(self.coeffs) + 1))

    def __add__(self, other):
        other = EpsPoly.coerce(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return EpsPoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, EpsPoly):
            return EpsPoly({k: v * other for k, v in self.coeffs.items()})
        out: dict[int, Fraction] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = ka + kb
                out[k] = out.get(k, Fraction(0)) + va * vb
        return EpsPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        out = EpsPoly.const(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = EpsPoly.const(other)
        return isinstance(other, EpsPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "EpsPoly(0)"
        terms = " + ".join(f"{v}*eps^{k}" for k, v in sorted(self.coeffs.items()))
        return f"EpsPoly({terms})"


EPS = EpsPoly({1: Fraction(1)})


def eps_intervals(model) -> tuple:
    """The deformed intervals of a growth model with EPS as the eps length.

    The weights sum to one, so an eps-interval built at length 2 is the
    only interval of that length.
    """
    return tuple((sign, EPS if length == 2 else length)
                 for sign, length in build_w_eps(model, 2).intervals)


def brute_eval(word, intervals):
    """Sum over every splitting of the word, enumerated one by one.

    A depth-first search gives interval i a piece of k >= 0 boxes after
    the boxes already placed and carries the product of the lengths to
    the piece sizes; a splitting counts once every interval has its
    piece and all n + 1 boxes are placed, so it stops as soon as they
    are.  Lengths are used as given,
    so eps polynomials work too.
    """
    boxes = len(word) + 1
    total = Fraction(0)

    def place(i, placed, value):
        nonlocal total
        if placed == boxes:  # the remaining pieces are all empty
            total += value
            return
        sign, length = intervals[i]
        if i == len(intervals) - 1:  # the last piece takes every box left
            if all(word.symbol(j) == sign for j in range(placed, boxes - 1)):
                total += value * length ** (boxes - placed)
            return
        place(i + 1, placed, value)  # an empty piece
        # the symbol before the piece's first box is the joining corner and
        # may have either sign; the symbols between its boxes carry its sign
        for k in range(1, boxes - placed + 1):
            if k > 1 and word.symbol(placed + k - 2) != sign:
                break
            value = value * length
            place(i + 1, placed + k, value)

    place(0, 0, Fraction(1))
    return total


def limit_by_points(model, cap) -> LimitReport:
    """``check_limit_formula(model, cap)``, each word above the marker word
    valued on its own: the same walk of the deformed template's coideal
    with the progress into the marker word, the same eps = 2^b and the
    same report, lines in the same order."""
    nu = minimal_maxblock_word(model.template)
    unit = build_w_eps(model, 1)
    b = (int(unit.denominator * sum(unit.lengths)) ** cap).bit_length()
    w_eps = build_w_eps(model, 1 << b)
    start, t_step = placement(template_of_intervals(w_eps))

    def step(state, bit):
        at, held = state
        at = t_step(at, bit)
        return None if at is None else (at, subword_step(nu, held, bit))

    n_seen = const_seen = None
    finite_points = 0
    vanishing, failures = [], []
    for w, (_, held) in walk(cap, (start, 0), step):
        if held != nu.n:
            continue
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
        leading = (numerator >> n_here * b) & ((1 << b) - 1)
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
    return LimitReport(not failures and finite_points > 0, n_seen, const_seen,
                       finite_points, len(vanishing), tuple(failures))
