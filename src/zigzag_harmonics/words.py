"""Binary words, zigzag diagrams, and the graded graph they span.

A zigzag (ribbon) with n boxes is encoded by a binary word of n - 1
symbols over {+, -}: reading left to right, '+' appends a box to the
right of the last one and '-' appends a box below it.  The empty word
encodes the single box.  Words of length n sit on level n + 1 of the
graph; level 0 holds the single extra vertex ROOT.  An edge goes up
from a word to every word obtained by inserting one symbol, so going
down means deleting one symbol (subword order).

Words are stored packed: ``bits`` holds one bit per symbol, 0 for '+'
and 1 for '-', least significant bit first.  Appending a symbol sets one
bit, and words are cheap to hash and compare in the path-count memo.
Everything here is immutable and safe to use from several threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import add
from typing import Any, Callable, Iterator, Optional, Sequence, Union

PLUS = "+"
MINUS = "-"

#: words_below refuses word lengths above this
LEVEL_CAP = 20

# symbols to binary digits, for BinaryWord.from_str
_DIGITS = str.maketrans(PLUS + MINUS, "01")


@dataclass(frozen=True, slots=True)
class BinaryWord:
    """Immutable word over {+, -}; bit i of ``bits`` is symbol i (1 = '-')."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"invalid packed word ({self.n}, {self.bits})")

    @staticmethod
    def from_str(text: str) -> "BinaryWord":
        # stripping the symbols from both ends leaves the first bad one
        bad = text.strip(PLUS + MINUS)
        if bad:
            raise ValueError(f"bad word symbol {bad[0]!r} in {text!r}")
        # one conversion, linear in the length; setting bits one by one is quadratic
        return BinaryWord(len(text), int(text[::-1].translate(_DIGITS) or "0", 2))

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        # a leading 1 keeps the zeros of high '+' symbols; reversed, the
        # slice drops it with the '0b' prefix
        return bin(self.bits | 1 << self.n)[:2:-1].replace("0", PLUS).replace("1", MINUS)

    def __repr__(self) -> str:
        return f"BinaryWord({str(self)!r})"

    def __iter__(self) -> Iterator[str]:
        # one conversion, linear in n; shifting bits per symbol is quadratic
        return iter(str(self))

    def symbol(self, i: int) -> str:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return MINUS if (self.bits >> i) & 1 else PLUS

    def sub(self, start: int, stop: int) -> "BinaryWord":
        if not 0 <= start <= stop <= self.n:
            raise IndexError((start, stop))
        return BinaryWord(stop - start, (self.bits >> start) & ((1 << (stop - start)) - 1))

    def delete(self, pos: int) -> "BinaryWord":
        low = self.bits & ((1 << pos) - 1)
        high = self.bits >> (pos + 1)
        return BinaryWord(self.n - 1, low | (high << pos))

    def blocks(self) -> tuple[tuple[str, int], ...]:
        """Maximal runs of equal symbols, as (sign, length) pairs."""
        return tuple((s, sum(1 for _ in run)) for s, run in groupby(str(self)))


EMPTY = BinaryWord(0, 0)


class _Root:
    """The level-0 vertex below the one-box zigzag."""

    _instance: Optional["_Root"] = None

    def __new__(cls) -> "_Root":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ROOT"

    def __str__(self) -> str:
        return "@"


ROOT = _Root()

Vertex = Union[BinaryWord, _Root]


def parse_vertex(text: str) -> Vertex:
    """Inverse of str(): '@' is ROOT, everything else a word."""
    return ROOT if text == "@" else BinaryWord.from_str(text)


def level(v: Vertex) -> int:
    return 0 if v is ROOT else len(v) + 1


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def composition_of_word(w: BinaryWord) -> tuple[int, ...]:
    """Row lengths: each '-' starts a row, each '+' adds a box to one.

    With the '-' at positions p_1 < ... < p_r the parts are p_1 + 1,
    p_2 - p_1, ..., n - p_r: one more than the length of each run of 0
    digits between the 1 digits of ``w.bits``, lowest bit first.  A bit
    set at position n keeps the 0 digits of the word's last '+' symbols.
    The split is linear at every length; clearing one bit at a time
    would be quadratic past a machine word.
    """
    return tuple([len(run) + 1 for run in bin(w.bits | 1 << w.n)[:2:-1].split("1")])


# ---------------------------------------------------------------------------
# Covers and subword order
# ---------------------------------------------------------------------------

def upper_cover_bits(n: int, bits: int) -> list[int]:
    """Packed bits of the n + 2 distinct one-symbol insertions into a word.

    The word has n symbols and packed bits ``bits``; every cover has
    n + 1.  They are the opposite of each symbol inserted just before
    it, and either symbol appended.  Any other insertion lands inside a
    run of its own symbol and repeats the insertion at that run's end.
    """
    covers = [bits, bits | 1 << n]
    for pos in range(n):
        low = bits & ((1 << pos) - 1)
        high = bits >> pos  # symbol pos and those after it
        covers.append(low | (high << 1 | (~high & 1)) << pos)
    return covers


def cover_sums(row: Sequence[int], n: int) -> list[int]:
    """For each word of n symbols, by packed bits, the sum of ``row`` over
    its n + 2 upper covers; ``row`` holds one value per word of n + 1
    symbols, by packed bits.

    The covers are those of :func:`upper_cover_bits`, gathered a whole
    level at a time with slices.  The two appends are the two halves of
    ``row``.  Inserting the opposite of symbol pos before it keeps the
    low pos bits, so the covers of the words whose symbols from pos on
    read h are one run of 2^pos entries, starting at 2^pos * (2h + 1)
    for even h and at 2^pos * 2h for odd h: the runs of h and h + 1,
    for even h, are one slice of 2^(pos+1) entries.
    """
    half = 1 << n
    sums = list(map(add, row[:half], row[half:]))
    for pos in range(n):
        run = 1 << pos
        gathered: list[int] = []
        for start in range(run, half << 1, run << 2):
            gathered += row[start:start + (run << 1)]
        sums = list(map(add, sums, gathered))
    return sums


def upper_covers(v: Vertex) -> set[BinaryWord]:
    """All distinct one-symbol insertions; ROOT is covered by the one-box word.

    A word of n symbols has exactly n + 2 of them, listed by
    :func:`upper_cover_bits`.
    """
    if v is ROOT:
        return {EMPTY}
    n = v.n + 1
    return {BinaryWord(n, bits) for bits in upper_cover_bits(v.n, v.bits)}


def lower_covers(v: Vertex) -> set[BinaryWord]:
    """All distinct one-symbol deletions; the empty word (and ROOT) yield none."""
    if v is ROOT or len(v) == 0:
        return set()
    return {v.delete(pos) for pos in range(len(v))}


def is_subword(a: BinaryWord, b: BinaryWord) -> bool:
    """True iff a is a subsequence of b."""
    if not a.n:
        return True  # dim(@, w) asks this of every word below w
    if a.n > b.n:
        return False
    rest = iter(str(b))  # each test consumes b up to the symbol it finds
    return all(s in rest for s in str(a))


# ---------------------------------------------------------------------------
# Path counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dim_words(a: BinaryWord, b: BinaryWord) -> int:
    if b.n < a.n:
        return 0
    if b.n == a.n:
        return 1 if a == b else 0
    if not is_subword(a, b):
        return 0
    return sum(_dim_words(a, c) for c in lower_covers(b) if is_subword(a, c))


def dim(a: Vertex, b: Vertex) -> int:
    """Number of saturated chains a = v_0 < v_1 < ... < v_k = b; 0 if b is not above a.

    Counts are exact Python integers; they grow factorially with the
    level gap, so nothing here may be truncated to machine width.
    """
    if a is ROOT:
        return 1 if b is ROOT else _dim_words(EMPTY, b)
    if b is ROOT:
        return 0
    return _dim_words(a, b)


# ---------------------------------------------------------------------------
# Formal combinations and the cone certificate
# ---------------------------------------------------------------------------

class FormalCombination:
    """Non-negative rational combination of vertices sharing one level.

    Coefficients are ``int`` or ``Fraction`` and are kept as they are
    (integer structure constants stay integers, and compare equal to
    the same ``Fraction``); any other type, a float or a ``bool``
    included, raises ``ValueError``.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, lvl: int, coeffs: dict[Vertex, Union[int, Fraction]]):
        clean: dict[Vertex, Union[int, Fraction]] = {}
        for v, c in coeffs.items():
            if type(c) is not int and type(c) is not Fraction:
                raise ValueError(f"coefficient {c!r} at {v} is no int or Fraction")
            if c < 0:
                raise ValueError(f"negative coefficient {c} at {v}")
            if level(v) != lvl:
                raise ValueError(f"vertex {v} is not on level {lvl}")
            if c:
                clean[v] = c
        self.level = lvl
        self.coeffs = clean

    def coefficient(self, v: Vertex) -> Union[int, Fraction]:
        return self.coeffs.get(v, Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FormalCombination)
                and self.level == other.level and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items(), key=lambda t: str(t[0])))
        return f"<level {self.level}: {inner or '0'}>"


Filter = Optional[Callable[[BinaryWord], bool]]


def dominates_search(a: Vertex, comb: FormalCombination, max_level: int,
                     within: Filter = None) -> Optional[int]:
    """First level up to max_level at which the certificate holds, else None.

    The certificate is monotone: once the level-L difference is a
    non-negative combination it stays one at every higher level.

    The certificate at a level compares the path counts into each of
    its vertices from a and from comb, coefficient by coefficient.
    Both sides are pushed up one level at a time.  The layers hold
    integer path counts, both sides scaled by the common denominator of
    the coefficients, keyed by packed bits (the root by 0), and
    ``within`` is asked once per word in one search.
    """
    start = max(comb.level, level(a))
    if max_level < start:
        return None
    scale = lcm(*(c.denominator for c in comb.coeffs.values()))
    kept: dict[int, bool] = {}  # within, by packed bits under a leading 1

    def push(lvl: int, layer: dict[int, int]) -> dict[int, int]:
        """Path counts one level above the words of level lvl."""
        up: dict[int, int] = {}
        for bits, count in layer.items():
            for cover in (0,) if lvl == 0 else upper_cover_bits(lvl - 1, bits):
                key = cover | 1 << lvl
                inside = kept.get(key)
                if inside is None:
                    inside = kept[key] = within is None or within(BinaryWord(lvl, cover))
                if inside:
                    up[cover] = up.get(cover, 0) + count
        return up

    def lift(lvl: int, layer: dict[int, int]) -> dict[int, int]:
        for below in range(lvl, start):
            layer = push(below, layer)
        return layer

    lhs = lift(level(a), {0 if a is ROOT else a.bits: scale})
    rhs = lift(comb.level, {0 if v is ROOT else v.bits: int(c * scale)
                            for v, c in comb.coeffs.items()})
    for lvl in range(start, max_level + 1):
        if lvl > start:
            lhs, rhs = push(lvl - 1, lhs), push(lvl - 1, rhs)
        if all(lhs.get(u, 0) >= c for u, c in rhs.items()):
            return lvl
    return None


# ---------------------------------------------------------------------------
# Prefix walk
# ---------------------------------------------------------------------------

def walk(n: int, start: Any, step: Callable[[Any, int], Any]
         ) -> Iterator[tuple[BinaryWord, Any]]:
    """Every word of fewer than n symbols with its state, shortest first, lazily.

    ``start`` is the empty word's state, and ``step(state, bit)`` builds
    a word's state from its parent's and its last symbol (bit 1 for
    '-'); ``None`` prunes the word, so the kept words must be
    prefix-closed, as every template coideal is.  Each length appends
    '+', then '-', to each word of the last, in lexicographic order ('+'
    < '-'), so the walk visits the kept words and their one-symbol
    boundary, each once.  The cap is checked here, before any word is
    made, and a search that stops early builds no further length.
    """
    if n < 0:
        raise ValueError(f"negative word length bound {n}")
    if n - 1 > LEVEL_CAP:
        raise ValueError(f"word length {n - 1} above cap {LEVEL_CAP}")
    return _walk(n, start, step)


def _walk(n: int, start: Any, step: Callable[[Any, int], Any]
          ) -> Iterator[tuple[BinaryWord, Any]]:
    layer = [] if start is None else [(EMPTY, start)]
    for length in range(n):
        if length:
            minus = 1 << (length - 1)
            layer = [(BinaryWord(length, w.bits | symbol), child)
                     for w, state in layer for symbol, bit in ((0, 0), (minus, 1))
                     if (child := step(state, bit)) is not None]
        yield from layer


def words_below(n: int) -> Iterator[BinaryWord]:
    """Every word of fewer than n symbols, shortest first, lazily: :func:`walk`
    with no state."""
    return (w for w, _ in walk(n, True, lambda keep, bit: keep))


def subword_step(a: BinaryWord, held: int, bit: int) -> int:
    """How much of a, matched as early as possible, a word holds as a
    subsequence once it gains symbol ``bit``, from ``held`` before; a is
    a subword of w exactly when stepping along w ends at ``a.n``."""
    return held + 1 if held < a.n and (a.bits >> held) & 1 == bit else held
