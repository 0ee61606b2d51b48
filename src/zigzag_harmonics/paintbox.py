"""Evaluating zigzags against tuples of oriented intervals.

A tuple u of m adjacent oriented intervals evaluates a zigzag to the
sum, over all splittings of the zigzag into m consecutive pieces, of
the product of interval lengths raised to the piece sizes.  Piece i
must be a row if interval i points '+' and a column if it points '-';
pieces may be empty.  On the word this reads: symbols interior to a
piece carry the piece's sign, and between two consecutive non-empty
pieces exactly one symbol is consumed as the joining corner and may
have either sign.

Read box by box, that sum is a product of m x m transfer matrices,
e . M_{w_1} ... M_{w_n} . 1, whose state is the interval holding the
last box placed: a symbol s keeps the next box in interval j only when
s is j's sign, or moves it into j from any earlier interval, and both
moves multiply by l_j.  :func:`transfer` is that step on a vector,
with prefix sums, O(m) per symbol, the kernel of one word at a time:
:func:`eval_F_numerator` runs it along a word, and the growth models'
automaton along each section.  :func:`eval_F_levels` is the same rule
on whole levels, its own kernel over the same compiled keeps: one
column per interval across every word of a length, so that a length
costs O(m) list operations and no call per word.  Each interval tuple
is compiled once, when it is built: its lengths, positive ``int`` or
``Fraction`` values and nothing else (never a float), are checked and
become integer numerators over one common denominator D, a paintbox's
summing to D, so the whole product stays in integers, and
:func:`eval_F` divides it by D^(n+1) once at the end.
Callers that multiply or sum many values, such as the semifinite
evaluation, keep the numerators and divide once themselves, as
:func:`eval_F_levels` does for whole levels.

A paintbox is such a tuple with total length one.  Two adjacent
intervals of equal orientation are allowed and mean open components
touching at a point; the touching point is what inserts a separating
one-symbol cluster into the associated template.  Evaluation against a
paintbox is a harmonic function whose support is exactly the coideal
of that template.

An independent evaluator, the iterated two-piece splitting on
compositions, is kept as the oracle of the transfer vector.  It cuts
off the piece of the first interval and goes on with the rest, and
builds only the cuts whose left piece that interval can take: a row
for '+', so a cut inside or at the end of the first part, and a column
for '-', so a cut after a leading one-box part or one box into the
part after them.  It also runs on integers, but scales the lengths by
a common denominator it computes from the lengths itself, not from the
compiled form, so it shares nothing with :func:`eval_F`.
:func:`eval_F_coproduct_levels` runs it on whole levels, one table per
interval from the last, each cut one strided slice of the next
interval's table; the per-word :func:`eval_F_coproduct` recurses on
the composition, with a memo that lives for one call, and is its
oracle, as :func:`transfer` is that of :func:`eval_F_levels`.  The
kerov-oracle suite compares three lists of integer numerators per
length over one D, the transfer vector's, one call per word, the
oracle's and the level walk's, after checking once per tuple that the
oracle's D is the compiled one.  The level walk is a column kernel that
shares only the compiled keeps and lengths with :func:`transfer`, so
it is an independent check of the point route: a fault in the per-word
step shows against both the oracle and the walk, and one in the column
step against the walk alone.  Their agreement pins down the
corner-symbol convention above.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Sequence, Union

from .templates import Cluster, Template
from .words import (MINUS, PLUS, ROOT, BinaryWord, Frozen, Vertex, _set,
                    check_word_bound, composition_of_word)


def parse_rational(token: str) -> Fraction:
    """An integer, 'a/b' or a plain decimal; exponent notation is refused
    before ``Fraction`` would build 10^e, and a zero denominator is
    refused by name.  'a' or 'a/b' of ASCII digits is read with ``int``,
    any other token by ``Fraction(token)``: the same values and refusals."""
    if "e" in token or "E" in token:
        raise ValueError(f"exponent notation in {token!r} is not accepted")
    p, slash, q = token.partition("/")
    fast = token.isascii() and p.isdigit() and (q.isdigit() or not slash)
    try:
        return Fraction(int(p), int(q) if slash else 1) if fast else Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


class IntervalTuple(Frozen):
    """Ordered oriented intervals of positive rational (int or Fraction) length."""

    __slots__ = ("intervals", "_transfer")
    intervals: tuple[tuple[str, Fraction], ...]
    # (keeps per symbol bit, scaled lengths, common denominator D), see eval_F
    _transfer: tuple

    def __init__(self, intervals: tuple[tuple[str, Fraction], ...]) -> None:
        if not intervals:
            raise ValueError("need at least one interval")
        for sign, length in intervals:
            if sign not in (PLUS, MINUS):
                raise ValueError(f"bad orientation {sign!r}")
            if (type(length) is not int and type(length) is not Fraction) or length.numerator <= 0:
                raise ValueError(f"length {length!r} is not a positive int or Fraction")
        denominator = lcm(*(l.denominator for _, l in intervals))
        lengths = tuple(l.numerator * (denominator // l.denominator) for _, l in intervals)
        keeps = tuple(tuple(s == sign for s, _ in intervals) for sign in (PLUS, MINUS))
        _set(self, "intervals", intervals)
        _set(self, "_transfer", (keeps, lengths, denominator))

    @classmethod
    def parse(cls, text: str) -> "IntervalTuple":
        """Comma-separated signed rationals, e.g. '+1/3,-1/6,+1/2'; a
        ``Paintbox.parse`` gives a paintbox."""
        intervals = []
        for token in text.split(","):
            token = token.strip()
            if not token or token[0] not in (PLUS, MINUS):
                raise ValueError(f"bad interval token {token!r}")
            intervals.append((token[0], parse_rational(token[1:])))
        return cls(tuple(intervals))

    def __len__(self) -> int:
        return len(self.intervals)

    def __str__(self) -> str:
        return ",".join(f"{s}{l}" for s, l in self.intervals)

    @property
    def signs(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.intervals)

    @property
    def lengths(self) -> tuple[Fraction, ...]:
        return tuple(l for _, l in self.intervals)

    @property
    def denominator(self) -> int:
        return self._transfer[2]


class Paintbox(IntervalTuple):
    """IntervalTuple with exact rational lengths of total one."""

    __slots__ = ()

    def __init__(self, intervals: tuple[tuple[str, Fraction], ...]) -> None:
        super().__init__(intervals)
        total = sum(self._transfer[1])
        if total != self.denominator:
            raise ValueError(f"paintbox lengths must sum to 1, "
                             f"got {Fraction(total, self.denominator)}")


# ---------------------------------------------------------------------------
# The two evaluators
# ---------------------------------------------------------------------------

def eval_F(v: Union[Vertex, BinaryWord], u: IntervalTuple) -> Fraction:
    """Sum over splittings as a transfer vector run along the word.

    The value is :func:`eval_F_numerator` over D^(n+1), for a word of
    n symbols and D the common denominator of the lengths; the empty
    diagram evaluates to 1.
    """
    if v is ROOT:
        return Fraction(1)
    return Fraction(eval_F_numerator(v, u), u.denominator ** (v.n + 1))


def transfer(keeps: tuple[tuple[bool, ...], tuple[bool, ...]], lengths: tuple[int, ...],
             vec: Sequence[int], bits: int, n: int) -> list[int]:
    """The transfer vector after the n symbols packed in ``bits``, lowest bit first.

    ``keeps[bit][j]`` says whether that symbol keeps the box in
    interval j, and ``lengths`` are the scaled lengths.  Entry j of the
    vector sums the splittings of the boxes placed so far whose last box
    lies in interval j.  Symbol s between two boxes maps it to
    l_j * (sum of entries before j, plus entry j when s keeps interval
    j), one pass of prefix sums.  ``vec`` is not changed.
    """
    vec = list(vec)
    intervals = range(len(vec))
    for _ in range(n):
        keep = keeps[bits & 1]
        bits >>= 1
        before = 0  # sum of the entries before j, read before they change
        for j in intervals:
            x = vec[j]
            vec[j] = lengths[j] * (before + x) if keep[j] else lengths[j] * before
            before += x
    return vec


def eval_F_numerator(w: BinaryWord, u: IntervalTuple) -> int:
    """``eval_F(w, u) * D**(n+1)`` for a word of n symbols, in integers.

    The first box starts the transfer vector at the scaled lengths,
    :func:`transfer` runs it along the word, and the sum of its entries
    is the numerator.
    """
    keeps, lengths, _ = u._transfer
    return sum(transfer(keeps, lengths, lengths, w.bits, w.n))


def eval_F_levels(u: IntervalTuple, n: int) -> tuple[int, list[list[int]]]:
    """The common denominator D and the numerators of every word below n symbols.

    Entry ``levels[k][w.bits]`` is ``eval_F(w, u) * D**(k+1)`` for the
    word w of k symbols: the list of each word length is indexed by
    packed bits, not by position in the scan.  The word lengths come
    shortest first, as :func:`~zigzag_harmonics.words.words_below`
    gives them.

    The transfer vectors of a whole length are held as one column per
    interval, entry ``bits`` of column j being entry j of that word's
    vector, and the columns' running sums over the intervals as prefix
    sums, so the last prefix sum is the length's numerators.  Appending
    symbol s to a word of k symbols sets bit k, so the '+' extensions
    of a length fill the first half of the next length and the '-'
    extensions the second half: column j of the next length is l_j
    times the prefix sum up to j, inclusive when s keeps j and exclusive
    otherwise, for each half.  That is :func:`transfer`'s step, read off
    the same compiled keeps, on whole columns: O(m) list operations per
    length and no call per word, with two lengths of columns held at a
    time.  The cap is :func:`~zigzag_harmonics.words.check_word_bound`'s,
    checked before any work.
    """
    check_word_bound(n)
    (plus, minus), lengths, denominator = u._transfer
    levels: list[list[int]] = []
    columns = [[length] for length in lengths]
    for k in range(n):
        if k:
            # prefix[j + keep] is the prefix sum up to j, inclusive when the symbol keeps j
            columns = [[length * x for x in prefix[j + plus[j]]]
                       + [length * x for x in prefix[j + minus[j]]]
                       for j, length in enumerate(lengths)]
        prefix = [[0] * (1 << k)]
        for column in columns:
            prefix.append(list(map(add, prefix[-1], column)))
        levels.append(prefix[-1])
    return denominator, levels


def _psi(comp: tuple[int, ...], sign: str) -> bool:
    """Row/column membership of a possibly empty composition."""
    if not comp:
        return True
    if sign == PLUS:
        return len(comp) == 1
    return all(p == 1 for p in comp)


def _coproduct_setup(u: IntervalTuple) -> tuple[int, tuple[int, ...], tuple[str, ...]]:
    """The oracle's common denominator D, scaled lengths and signs.

    Worked out from ``u.lengths``, not from the compiled form.
    """
    lengths = u.lengths
    denominator = lcm(*(l.denominator for l in lengths))
    scaled = tuple(l.numerator * (denominator // l.denominator) for l in lengths)
    return denominator, scaled, u.signs


def eval_F_coproduct_levels(u: IntervalTuple, n: int) -> tuple[int, list[list[int]]]:
    """The oracle's D and its numerators of every word below n symbols.

    ``levels[k][w.bits]`` is ``eval_F_coproduct(w, u) * D**(k+1)`` for
    the word w of k symbols, laid out as in :func:`eval_F_levels` but worked
    out from :func:`_coproduct_setup` and the coproduct cut alone, one
    interval at a time from the last.  Past the last interval only the
    root has a value, 1, so the table there is 0 on every word.
    Interval i's table is interval i + 1's (the empty left piece) plus,
    for each cut c = 1..k whose first c - 1 symbols have interval i's
    sign, l_i^c times interval i + 1's entry of the suffix ``bits >> c``:
    the symbol at c - 1 is the corner, of either sign, so the cut is the
    strided slice ``row[start::1 << (c - 1)]``, taken as one half-slice
    per corner bit.  The cut c = k + 1 takes the whole word, a row (bits
    0) or a column (all bits set), and leaves the root: l_i^(k+1).  The
    cap is that of :func:`eval_F_levels`, checked before any work.
    """
    check_word_bound(n)
    denominator, lengths, signs = _coproduct_setup(u)
    levels = [[0] * (1 << k) for k in range(n)]  # no interval left: only the root is 1
    for length, sign in zip(lengths[::-1], signs[::-1]):
        below, levels = levels, [list(row) for row in levels]
        for k, row in enumerate(levels):
            for c in range(1, k + 1):
                step = 1 << (c - 1)
                start = 0 if sign == PLUS else step - 1
                scale = length ** c
                scaled = [scale * x for x in below[k - c]]
                for corner in (start, start + step):
                    row[corner::2 * step] = map(add, row[corner::2 * step], scaled)
            row[0 if sign == PLUS else (1 << k) - 1] += length ** (k + 1)
    return denominator, levels


def eval_F_coproduct(v: Union[Vertex, BinaryWord], u: IntervalTuple) -> Fraction:
    """Same value through iterated two-piece splittings of the composition.

    Splits the diagram with the coproduct cut (inside a row or at a row
    boundary), scales each tensor factor by its interval length, and
    applies the row/column evaluations.  Shares no code with the
    transfer vector; serves as its oracle.

    Only the cuts whose left piece the interval can take are built: for
    a '+' interval a row, so the cut falls inside or at the end of the
    first part, and for a '-' interval a column, so the cut falls
    after one of the leading one-box parts or after the first box of
    the part that follows them.  The empty left piece fits both.  Every
    other cut contributes zero to the sum.

    The sum runs in integers over the lengths scaled by
    :func:`_coproduct_setup`'s D, with the subproblems (composition
    suffix, interval index) memoized for this call only, and is divided
    by D^(number of boxes) once.
    """
    if v is ROOT:
        return Fraction(1)
    denominator, lengths, signs = _coproduct_setup(u)
    last = len(lengths) - 1
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def go(rest: tuple[int, ...], i: int) -> int:
        if i == last:
            return lengths[i] ** sum(rest) if _psi(rest, signs[i]) else 0
        key = (rest, i)
        if key in memo:
            return memo[key]
        length = lengths[i]
        total = go(rest, i + 1)  # the empty left piece
        if rest and signs[i] == PLUS:
            first, tail = rest[0], rest[1:]
            for c in range(1, first):
                total += length ** c * go((first - c,) + tail, i + 1)
            total += length ** first * go(tail, i + 1)
        elif rest:
            for r, part in enumerate(rest):
                if part > 1:
                    total += length ** (r + 1) * go((part - 1,) + rest[r + 1:], i + 1)
                    break
                total += length ** (r + 1) * go(rest[r + 1:], i + 1)
        memo[key] = total
        return total

    return Fraction(go(composition_of_word(v), 0), denominator ** (v.n + 1))


# ---------------------------------------------------------------------------
# Paintboxes, their templates, and the harmonic function
# ---------------------------------------------------------------------------

def template_of_intervals(u: IntervalTuple) -> Template:
    """Each interval becomes an infinite cluster of its orientation;
    a one-symbol cluster of the opposite sign separates touching
    same-orientation neighbours."""
    clusters: list[Cluster] = []
    for sign in u.signs:
        if clusters and clusters[-1].sign == sign:
            clusters.append(Cluster(MINUS if sign == PLUS else PLUS, 1))
        clusters.append(Cluster(sign, None))
    return Template(tuple(clusters))


def template_of_paintbox(w: Paintbox) -> Template:
    return template_of_intervals(w)


def phi_w(v: Vertex, w: Paintbox) -> Fraction:
    """Harmonic function of a paintbox; normalized to 1 at the root."""
    return eval_F(v, w)
