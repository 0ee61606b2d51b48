"""The polynomial route to fundamental-basis products, kept as a test oracle.

The fundamental function of a word with n - 1 symbols expands, in any
N >= n variables, as the sum of monomials x_{i_1} ... x_{i_n} over
weakly increasing index chains that increase strictly exactly where
the word has a '-' (a '-' between boxes j and j+1 starts a new row,
hence a descent).  ``polynomial_product`` multiplies these polynomials
and re-expands through the unitriangular change of basis to monomial
coefficients, coarsest compositions first.  N = combined degree
variables are faithful at that degree; the tests double N and compare.

This route shares nothing with the shuffle count in ``qsym.product_F``
beyond the word encoding, which is what makes it an oracle: the
one-box product reproducing the upward covers is a theorem here, not
an input.  It is slow (seconds per degree-10 pair) and meant for small
degrees only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from word_oracle import word_of_composition
from zigzag_harmonics.words import (MINUS, ROOT, BinaryWord, FormalCombination,
                                    Vertex, level)

MonomialPoly = dict[tuple[int, ...], int]


def _descents(w: BinaryWord) -> frozenset[int]:
    """1-indexed positions of '-' symbols (row starts)."""
    return frozenset(j + 1 for j in range(len(w)) if w.symbol(j) == MINUS)


def _composition_of_descents(des: frozenset[int], n: int) -> tuple[int, ...]:
    cuts = sorted(des)
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def monomial_expansion(v: Vertex, nvars: int) -> MonomialPoly:
    """Expansion in x_1 .. x_nvars as a sparse exponent-vector dict.

    Chains are grouped by run: choosing cut positions (a superset of
    the descents) fixes run sizes, and an increasing choice of
    variables fixes the monomial, so every coefficient is 1.
    """
    if v is ROOT:
        return {(0,) * nvars: 1}
    w: BinaryWord = v
    n = len(w) + 1
    if nvars < n:
        raise ValueError(f"need at least {n} variables, got {nvars}")
    des = _descents(w)
    weak = [j for j in range(1, n) if j not in des]
    out: MonomialPoly = {}
    for extra_count in range(len(weak) + 1):
        for extra in combinations(weak, extra_count):
            cuts = sorted(des.union(extra))
            bounds = [0, *cuts, n]
            runs = [b - a for a, b in zip(bounds, bounds[1:])]
            for vars_ in combinations(range(nvars), len(runs)):
                key = [0] * nvars
                for var, run in zip(vars_, runs):
                    key[var] = run
                out[tuple(key)] = 1
    return out


def poly_mul(p: MonomialPoly, q: MonomialPoly) -> MonomialPoly:
    if len(p) > len(q):
        p, q = q, p
    out: MonomialPoly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _f_coefficients(poly: MonomialPoly, n: int, nvars: int) -> dict[tuple[int, ...], int]:
    """Invert the F-to-monomial matrix by leading-term subtraction.

    The monomial coefficient of a composition collects every F-term it
    refines, so walking compositions by increasing part count and
    subtracting what coarser compositions already explain isolates each
    F-coefficient.
    """
    all_descents = [frozenset(s) for k in range(n)
                    for s in combinations(range(1, n), k)]
    all_descents.sort(key=len)
    coeff: dict[frozenset[int], int] = {}
    for des in all_descents:
        comp = _composition_of_descents(des, n)
        key = tuple(comp) + (0,) * (nvars - len(comp))
        acc = poly.get(key, 0)
        for other, c in coeff.items():
            if other < des:
                acc -= c
        if acc < 0:
            raise RuntimeError(
                f"negative structure constant {acc} at {comp}; expansion is corrupt")
        if acc:
            coeff[des] = acc
    return {_composition_of_descents(des, n): c for des, c in coeff.items()}


def polynomial_product(a: Vertex, b: Vertex, nvars: int = 0) -> FormalCombination:
    """F_a * F_b by multiplying monomial expansions in nvars variables.

    nvars defaults to the combined degree, which is already faithful;
    a larger count must give the same answer.
    """
    if a is ROOT or b is ROOT:
        other = b if a is ROOT else a
        return FormalCombination(level(other), {other: Fraction(1)})
    n = level(a) + level(b)
    nvars = nvars or n
    if nvars < n:
        raise ValueError(f"{nvars} variables are too few for degree {n}")
    poly = poly_mul(monomial_expansion(a, nvars), monomial_expansion(b, nvars))
    coeffs = _f_coefficients(poly, n, nvars)
    return FormalCombination(
        n, {word_of_composition(comp): Fraction(c) for comp, c in coeffs.items()})


def reexpand(comb: FormalCombination, nvars: int) -> MonomialPoly:
    """Monomial polynomial of an F-combination."""
    out: MonomialPoly = {}
    for v, c in comb.coeffs.items():
        for key, value in monomial_expansion(v, nvars).items():
            acc = out.get(key, 0) + int(c) * value
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out
