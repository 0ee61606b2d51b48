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
Everything here but an :class:`Explorer`'s numbering, which only grows,
is immutable, and all of it is safe to use from several threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import add, attrgetter
from typing import Any, Callable, Iterator, Optional, Sequence, Union

PLUS = "+"
MINUS = "-"

#: the longest word a walk or a whole-level table builds; check_word_bound
#: refuses bounds past it
LEVEL_CAP = 20

# symbols to binary digits, for BinaryWord.from_str
_DIGITS = str.maketrans(PLUS + MINUS, "01")


# sets a slot of a Frozen value, whose own __setattr__ refuses
_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes.  A subclass lists its fields
    and then its caches in ``__slots__``; a cache's name starts with '_'.
    Its ``__init__`` checks the fields and sets every slot with
    ``object.__setattr__``, the only way to set one: assignment raises
    ``AttributeError``.  Instances are equal when they are of the same
    class with equal fields, hash as the tuple of their fields and
    print as ``Name(field=value, ...)``; a pickle keeps the caches."""

    __slots__ = ()
    _slots: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._slots = tuple(s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ()))
        cls._fields = tuple(s for s in cls._slots if s[0] != "_")
        get = attrgetter(*cls._fields)
        # attrgetter gives the bare value for one field, a tuple for more
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, s) for s in self._slots)

    def __setstate__(self, state: tuple) -> None:
        for s, value in zip(self._slots, state):
            _set(self, s, value)


class BinaryWord(Frozen):
    """Immutable word over {+, -}; bit i of ``bits`` is symbol i (1 = '-')."""

    __slots__ = ("n", "bits")
    n: int
    bits: int

    def __init__(self, n: int, bits: int) -> None:
        if n < 0 or bits < 0 or bits >> n:
            raise ValueError(f"invalid packed word ({n}, {bits})")
        _set(self, "n", n)
        _set(self, "bits", bits)

    # the path-count memo's key: spelled out, twice as fast as the generic pair
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

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
        return key_str(self.bits | 1 << self.n)

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
        if not 0 <= pos < self.n:
            raise IndexError(pos)
        low = self.bits & ((1 << pos) - 1)
        high = self.bits >> (pos + 1)
        return BinaryWord(self.n - 1, low | (high << pos))

    def blocks(self) -> tuple[tuple[str, int], ...]:
        """Maximal runs of equal symbols, as (sign, length) pairs."""
        return tuple((s, sum(1 for _ in run)) for s, run in groupby(str(self)))


EMPTY = BinaryWord(0, 0)


def key_str(key: int) -> str:
    """The symbols of the word whose packed bits sit under a leading 1 in
    ``key``, ``bits | 1 << n`` for a word of n symbols: the leading 1 keeps
    the zeros of high '+' symbols, and the reversed slice drops it with
    the '0b' prefix.  Walks that keep words by key name them with it."""
    return bin(key)[:2:-1].replace("0", PLUS).replace("1", MINUS)


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
    Inserting at pos shifts symbol pos and those after it up one place,
    which adds ``bits >> pos << pos`` to the bits, and sets bit pos
    where ``bits`` has a 0.
    """
    flipped = ~bits
    covers = [bits, bits | 1 << n]
    covers += [bits + (bits >> pos << pos) + (flipped & 1 << pos) for pos in range(n)]
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
                raise ValueError(f"coefficient {c!r} at '{v}' is no int or Fraction")
            if c < 0:
                raise ValueError(f"negative coefficient {c} at '{v}'")
            if level(v) != lvl:
                raise ValueError(f"vertex '{v}' is not on level {lvl}")
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

def check_word_bound(n: int) -> None:
    """Refuse a bound n on word lengths (every word below n symbols) past LEVEL_CAP."""
    if n < 0:
        raise ValueError(f"negative word length bound {n}")
    if n - 1 > LEVEL_CAP:
        raise ValueError(f"word length {n - 1} above cap {LEVEL_CAP}")


def walk_levels(n: int, start: Any, step: Callable[[Any, int], Any]
                ) -> Iterator[tuple[int, list[tuple[int, Any]]]]:
    """Every word of fewer than n symbols with its state, one length at a
    time, shortest first, lazily: ``(length, [(bits, state), ...])``, each
    word by its packed bits.

    ``start`` is the empty word's state, and ``step(state, bit)`` builds
    a word's state from its parent's and its last symbol (bit 1 for
    '-'); ``None`` prunes the word, so the kept words must be
    prefix-closed, as every template coideal is.  Each length appends
    '+', then '-', to each word of the last, in lexicographic order ('+'
    < '-'), so the walk visits the kept words and their one-symbol
    boundary, each once.  The walk ends at the first length that keeps
    no word.  The cap is checked here, before any work, and a search
    that stops early builds no further length.
    """
    check_word_bound(n)
    return _walk_levels(n, start, step)


def _walk_levels(n: int, start: Any, step: Callable[[Any, int], Any]
                 ) -> Iterator[tuple[int, list[tuple[int, Any]]]]:
    layer = [] if start is None else [(0, start)]
    for length in range(n):
        if length:
            minus = 1 << (length - 1)
            layer = [(bits | symbol, child)
                     for bits, state in layer for symbol, bit in ((0, 0), (minus, 1))
                     if (child := step(state, bit)) is not None]
        if not layer:
            return
        yield length, layer


def walk(n: int, start: Any, step: Callable[[Any, int], Any]
         ) -> Iterator[tuple[BinaryWord, Any]]:
    """:func:`walk_levels` one word at a time, each as a :class:`BinaryWord`
    with its state; the cap is checked at the call."""
    return ((BinaryWord(length, bits), state)
            for length, layer in walk_levels(n, start, step) for bits, state in layer)


def words_below(n: int) -> Iterator[BinaryWord]:
    """Every word of fewer than n symbols, shortest first, lazily: :func:`walk`
    with no state."""
    return (w for w, _ in walk(n, True, lambda keep, bit: keep))


def subword_step(a: BinaryWord, held: int, bit: int) -> int:
    """How much of a, matched as early as possible, a word holds as a
    subsequence once it gains symbol ``bit``, from ``held`` before; a is
    a subword of w exactly when stepping along w ends at ``a.n``."""
    return held + 1 if held < a.n and (a.bits >> held) & 1 == bit else held


# ---------------------------------------------------------------------------
# Numbered states
# ---------------------------------------------------------------------------

#: held while an explorer numbers a state, so that threads walking one
#: explorer agree on its ids; reading a known step takes no lock.  An
#: explorer's ``advance`` may step another explorer, hence reentrant
_NUMBERING = threading.RLock()


class Explorer:
    """The states a one-symbol step reaches from a start, numbered as they
    are first reached, and the step between them as one table.

    ``advance(key, bit)`` gives a state's key, any hashable value, from
    its parent's and its last symbol, or None to prune; ``note(key)``
    gives the state's flag, 0 or 1, and its label.  The n-th state
    reached gets the id 2n + flag, so no id is 0 (``at and step(at,
    bit)`` reads a falsy ``at`` as pruned) and an id's low bit is its
    flag; ``keys[id]`` and ``labels[id]`` hold its key and label, and
    ``ids`` maps each key to its id.  ``table[2 * id + bit]`` holds the
    child's id, None where ``advance`` prunes, and ``...`` until a step
    first asks for it: :meth:`step` is one table read, ``advance`` runs
    once per transition, and a walk of n symbols numbers only the states
    of its words.  The explorer is data when ``advance`` and ``note`` are
    (a module function or a ``partial`` of one), so it pickles at every
    protocol, and two explorers that numbered the same states compare
    equal.
    """

    __slots__ = ("start", "table", "keys", "labels", "ids", "advance", "note")
    # pickled slot by slot as the frozen classes are, which protocols 0 and 1 need
    _slots = __slots__
    __getstate__, __setstate__ = Frozen.__getstate__, Frozen.__setstate__

    def __init__(self, start: Any, advance: Callable[[Any, int], Any],
                 note: Callable[[Any], tuple[int, Any]]) -> None:
        self.advance, self.note = advance, note
        self.table: list = [None] * 4  # ids 0 and 1 are no state
        self.keys: list = [None, None]
        self.labels: list = [None, None]
        self.ids: dict = {}
        self.start = self._number(start)

    def _number(self, key: Any) -> int:
        flag, label = self.note(key)
        at = len(self.keys) | flag
        # two slots per state, of which its id uses one, and a table row
        # per slot; the id is handed out only once both are in place
        self.keys += (key, key)
        self.labels += (label, label)
        self.table += (...,) * 4
        self.ids[key] = at
        return at

    def step(self, at: int, bit: int) -> Optional[int]:
        """The id of the state one symbol ``bit`` past state ``at``; None if pruned."""
        child = self.table[2 * at + bit]
        if child is ...:
            child = self._advance(at, bit)
        return child

    def _advance(self, at: int, bit: int) -> Optional[int]:
        with _NUMBERING:
            child = self.table[2 * at + bit]
            if child is ...:  # no other thread got here first
                key = self.advance(self.keys[at], bit)
                child = None if key is None else self.ids.get(key) or self._number(key)
                self.table[2 * at + bit] = child
            return child

    def explore(self, n: int) -> bool:
        """Step every state that a word of fewer than n symbols reaches, so
        that every state of a word of at most n symbols is numbered; True
        iff the states of the shorter words are closed under the step, and
        so are all the states that words of any length reach.  n is capped
        like a walk's, at ``LEVEL_CAP + 1``."""
        check_word_bound(n)
        seen = {self.start}
        layer = [self.start]
        for _ in range(n):
            ahead = []
            for at in layer:
                for bit in (0, 1):
                    child = self.step(at, bit)
                    if child is not None and child not in seen:
                        seen.add(child)
                        ahead.append(child)
            if not ahead:
                return True
            layer = ahead
        return False

    def distances(self, flag: int) -> dict[int, int]:
        """Per numbered state, the fewest symbols that lead from it to a
        state with this flag over the steps known so far; a state from
        which none is known is left out.  One breadth-first pass back from
        the flagged states, the fixed point of d(s) = 1 + min d(child)."""
        with _NUMBERING:
            states, table = list(self.ids.values()), self.table[:]
        parents: dict[int, list[int]] = {at: [] for at in states}
        for at in states:
            for child in table[2 * at:2 * at + 2]:
                if type(child) is int:
                    parents[child].append(at)
        far = {at: 0 for at in states if at & 1 == flag}
        layer = list(far)
        while layer:
            ahead = []
            for child in layer:
                for at in parents[child]:
                    if at not in far:
                        far[at] = far[child] + 1
                        ahead.append(at)
            layer = ahead
        return far

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Explorer)
                and (self.keys, self.table) == (other.keys, other.table))

    __hash__ = None  # type: ignore[assignment]
