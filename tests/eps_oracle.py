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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from zigzag_harmonics import build_w_eps


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
