"""Templates: alternating signed clusters with multiplicities.

A template is an ordered list of clusters, each a sign with a positive
multiplicity that may be infinite; signs alternate and at least one
cluster is infinite.  A word fits a template when it splits into
consecutive, possibly empty chunks, chunk i carrying cluster i's sign
and at most its multiplicity.  The set of fitting words is downward
closed and saturated: it is the coideal the template stands for.

Finite clusters split into two kinds.  A separating cluster is a
one-symbol cluster strictly inside the template whose two neighbours
are both infinite; every other finite cluster belongs to the flange.
Maximal runs of flange clusters give the flange words a_0 .. a_k and
cut the template into sections t_1 .. t_k, each of which is a template
whose only finite clusters are separating ("finite" templates).
Removing one symbol from a flange cluster and merging any same-sign
neighbours that this exposes yields a reduced template; the union of
the reduced coideals is the blow-up locus, where the semifinite
evaluations of :mod:`zigzag_harmonics.semifinite` are infinite.

A reduced template fits exactly the words that fit t with that flange
cluster's multiplicity lowered by one (merged neighbours change no
coideal), so :func:`place` decides the locus without building one.
One greedy forward loop, :func:`_greedy`, decides membership; run by
:func:`place` it also gives where each cluster's chunk starts, so
:func:`member`, :func:`member_J`, :func:`inject` and the semifinite
evaluation all run the same code.  :func:`placement` compiles it into
a one-symbol step, so a walk places each word from its parent's state,
with the reduced templates' states alongside.  The mirror-image pass
from the end gives the least position from which the later clusters
fit; a flange cluster can be left one symbol short exactly when that
position lies less than its multiplicity past the start of its chunk.
Off the locus every flange chunk is full, so the greedy chunks, joined
per section, are the section coordinates; the search over every
splitting is left to :func:`inject_all`, the uniqueness oracle.

Grammar: whitespace-separated tokens, each a sign followed by a
positive integer or '*' for an infinite multiplicity, e.g.
``"+* -1 +1 -*"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .words import MINUS, PLUS, BinaryWord


@dataclass(frozen=True, slots=True)
class Cluster:
    sign: str
    mult: Optional[int]  # None means infinite

    def __post_init__(self) -> None:
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"bad cluster sign {self.sign!r}")
        if self.mult is not None and self.mult < 1:
            raise ValueError(f"finite multiplicity must be >= 1, got {self.mult}")

    @property
    def is_infinite(self) -> bool:
        return self.mult is None

    def __str__(self) -> str:
        return f"{self.sign}{'*' if self.mult is None else self.mult}"


@dataclass(frozen=True, slots=True)
class Template:
    clusters: tuple[Cluster, ...]
    # (sign bit, multiplicity or None) per cluster, read by _greedy
    _runs: tuple[tuple[int, Optional[int]], ...] = field(
        init=False, repr=False, compare=False)
    # per section, its first and one past its last cluster index, and the
    # flange cluster indices; filled by _layout on first use
    _layout: Optional[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False)
    # the placement tables of t and of each reduced template; filled by
    # placement on first use
    _placement: Optional[tuple["Table", ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("template needs at least one cluster")
        for a, b in zip(self.clusters, self.clusters[1:]):
            if a.sign == b.sign:
                raise ValueError(f"clusters must alternate, got {a} {b}")
        if not any(c.is_infinite for c in self.clusters):
            raise ValueError("template needs at least one infinite cluster")
        object.__setattr__(self, "_runs", tuple(
            (1 if c.sign == MINUS else 0, c.mult) for c in self.clusters))

    @staticmethod
    def parse(text: str) -> "Template":
        clusters = []
        for token in text.split():
            sign, mult_text = token[0], token[1:]
            if sign not in (PLUS, MINUS) or not mult_text:
                raise ValueError(f"bad cluster token {token!r}")
            if mult_text == "*":
                clusters.append(Cluster(sign, None))
            else:
                try:
                    mult = int(mult_text)
                except ValueError:
                    raise ValueError(f"bad cluster token {token!r}") from None
                clusters.append(Cluster(sign, mult))
        return Template(tuple(clusters))

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters)

    @property
    def infinite_count(self) -> int:
        return sum(1 for c in self.clusters if c.is_infinite)


def parse_template(text: str) -> Template:
    return Template.parse(text)


# ---------------------------------------------------------------------------
# Cluster classification
# ---------------------------------------------------------------------------

def _layout(t: Template) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The cluster index ranges of the sections (maximal runs of infinite
    and separating clusters) and the indices of the flange clusters, in
    one pass.  Computed on first use and stored on t; everything that
    needs the flange or the sections reads it from here."""
    if t._layout is None:
        cs = t.clusters
        spans: list[tuple[int, int]] = []
        flange: list[int] = []
        for i, c in enumerate(cs):
            # separating: one symbol strictly inside, between two infinite clusters
            if c.is_infinite or (c.mult == 1 and 0 < i < len(cs) - 1
                                 and cs[i - 1].is_infinite and cs[i + 1].is_infinite):
                if spans and spans[-1][1] == i:
                    spans[-1] = (spans[-1][0], i + 1)
                else:
                    spans.append((i, i + 1))
            else:
                flange.append(i)
        object.__setattr__(t, "_layout", (tuple(spans), tuple(flange)))
    return t._layout


def is_finite_template(t: Template) -> bool:
    """True iff every finite cluster is separating."""
    return not _layout(t)[1]


# ---------------------------------------------------------------------------
# Membership and placement
# ---------------------------------------------------------------------------

def _greedy(t: Template, w: BinaryWord, starts: Optional[list[int]] = None) -> int:
    """How far into w t's clusters reach, each in turn taking the longest
    run of its sign that its multiplicity allows, read off ``w.bits``;
    the loop stops once all of w is taken.  When ``starts`` is a list,
    the start of each chunk taken is appended to it.

    The greedy reach is exact because the coideal is closed under
    deletion: if some splitting fits, every suffix of the remainder it
    leaves after a cluster fits the remaining clusters, so taking more
    symbols never hurts.  (By induction, the greedy position after each
    cluster is at least that of any fitting splitting.)  A constant
    number of integer operations per cluster, whatever the length of w.
    """
    bits, n = w.bits, w.n
    pos = 0
    for bit, mult in t._runs:
        if starts is not None:
            starts.append(pos)
        rest = bits >> pos
        if bit:
            run = (~rest & (rest + 1)).bit_length() - 1   # trailing ones
        else:
            run = (rest & -rest).bit_length() - 1 if rest else n - pos
        if mult is not None and run > mult:
            run = mult
        pos += run
        if pos == n:
            break
    return pos


def member(t: Template, w: BinaryWord) -> bool:
    """True iff w splits into chunks fitting t's clusters in order: the
    greedy pass takes all of it."""
    return _greedy(t, w) == w.n


def place(t: Template, w: BinaryWord) -> tuple[bool, Optional[list[tuple[int, int]]]]:
    """Where w sits in t's coideal: ``(fits, cuts)``.

    ``fits`` is :func:`member`'s answer.  ``cuts`` is None off the
    coideal and on the blow-up locus; elsewhere it holds, per section,
    the start and stop in w of that section's coordinate.

    The forward pass is :func:`_greedy`, the loop behind :func:`member`,
    noting where each chunk starts; the clusters after the one that
    takes w's last symbol start at its end.  The mirror-image pass then
    runs from the end down to the first flange cluster: before it reads
    cluster i, ``pos`` is the least position from which the rest of w
    fits clusters i + 1, i + 2, ...  Flange cluster i can be left one
    symbol short, so w fits a reduced template, exactly when ``pos``
    lies less than the cluster's multiplicity past the greedy start of
    its chunk: ``pos`` is at most where that chunk ends, so every symbol
    between the two carries the cluster's sign.  Off the locus every
    flange chunk is full, and the greedy chunks, joined per section,
    are the section coordinates.
    """
    bits, n = w.bits, w.n
    starts: list[int] = []  # starts[i]: where cluster i's greedy chunk starts
    pos = _greedy(t, w, starts)
    if pos != n:
        return False, None
    runs = t._runs
    starts += [n] * (len(runs) + 1 - len(starts))
    spans, flange = _layout(t)
    if flange:
        for i in range(len(runs) - 1, flange[0] - 1, -1):
            bit, mult = runs[i]
            if mult is not None and pos - starts[i] < mult and i in flange:
                return True, None
            # the symbols of the other sign before pos: the run of
            # cluster i's sign that ends at pos starts after the last one
            other = (~bits if bit else bits) & ((1 << pos) - 1)
            pos = other.bit_length() if mult is None else max(other.bit_length(), pos - mult)
    return True, [(starts[lo], starts[hi]) for lo, hi in spans]


def member_J(t: Template, w: BinaryWord) -> bool:
    """True iff w fits some reduced template (always False for finite t)."""
    fits, cuts = place(t, w)
    return fits and cuts is None


# ---------------------------------------------------------------------------
# The placement step: the greedy pass one symbol at a time
# ---------------------------------------------------------------------------

#: the greedy position in t, then in each reduced template (None once the
#: word leaves it); a position, c symbols taken by cluster i of k, is the
#: code c * 2k + 2i, with c kept at 0 on an infinite cluster
State = tuple[Optional[int], ...]
Table = tuple[tuple[int, int, Optional[int]], ...]


def _table(bits: list[int], mults: list[Optional[int]]) -> Table:
    """Per cluster i and symbol bit b, row 2i + b: ``(bound, delta, jump)``.
    Below ``bound`` the cluster takes the symbol and the code grows by
    ``delta``; otherwise the symbol starts the next cluster of its sign
    with room, at code ``jump`` (None: nothing fits).  Skipping a cluster
    lowered to 0 is what merging its two neighbours does."""
    size, rows = 2 * len(bits), []
    for i, (own, mult) in enumerate(zip(bits, mults)):
        for bit in (0, 1):
            j = next((j for j in range(i + 1, len(bits)) if bits[j] == bit and mults[j] != 0),
                     None)
            jump = None if j is None else 2 * j + (0 if mults[j] is None else size)
            if own != bit:
                rows.append((0, 0, jump))
            elif mult is None:
                rows.append((2 * i + 1, 0, jump))  # code 2i stays
            else:
                rows.append((mult * size + 2 * i, size, jump))  # c < mult
    return tuple(rows)


def placement(t: Template) -> tuple[State, Callable[[State, int], Optional[State]]]:
    """The empty word's :data:`State` in t, and the step that gives a word's
    state from its parent's and its last symbol (None off t's coideal),
    for :func:`~zigzag_harmonics.words.walk`.  A step makes O(1 + flange)
    integer operations whatever the multiplicities.  The tables are
    compiled on first use and stored on t."""
    if t._placement is None:
        bits, mults = [bit for bit, _ in t._runs], [mult for _, mult in t._runs]
        object.__setattr__(t, "_placement", (_table(bits, mults), *(
            _table(bits, mults[:f] + [mults[f] - 1] + mults[f + 1:]) for f in _layout(t)[1])))
    tables, size = t._placement, 2 * len(t._runs)

    def step(state: State, bit: int) -> Optional[State]:
        out = []
        for code, table in zip(state, tables):
            if code is not None:
                bound, delta, jump = table[code % size + bit]
                code = code + delta if code < bound else jump
            out.append(code)
        return None if out[0] is None else tuple(out)  # reduced coideals lie in t's

    return (0,) * len(tables), step


def on_locus(state: State) -> bool:
    """True iff the word with this placement state fits a reduced template."""
    return state.count(None) < len(state) - 1


# ---------------------------------------------------------------------------
# Flange and sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlangeDecomposition:
    """The flange words a_0, ..., a_k and the sections t_1, ..., t_k of a
    template, as words and templates; outer flange words may be empty.

    A record of :func:`_layout` for the injection suite and the tests;
    the library's own paths read the layout itself.
    """

    flange_words: tuple[BinaryWord, ...]
    sections: tuple[Template, ...]


def flange_and_sections(t: Template) -> FlangeDecomposition:
    """Split t at its flange into maximal finite-template sections.

    For a finite template the flange is empty and the single section is
    t itself.
    """
    def flange_word(clusters: tuple[Cluster, ...]) -> BinaryWord:
        return BinaryWord.from_str("".join(c.sign * c.mult for c in clusters))

    words: list[BinaryWord] = []
    sections: list[Template] = []
    start = 0
    for lo, hi in _layout(t)[0]:
        words.append(flange_word(t.clusters[start:lo]))
        sections.append(Template(t.clusters[lo:hi]))
        start = hi
    words.append(flange_word(t.clusters[start:]))
    return FlangeDecomposition(tuple(words), tuple(sections))


# ---------------------------------------------------------------------------
# The injection into the product of sections
# ---------------------------------------------------------------------------

def inject(t: Template, w: BinaryWord) -> tuple[BinaryWord, ...]:
    """Coordinates of w in the product of section coideals.

    Defined on words fitting t but no reduced template; there the
    splitting of the word as a_0 . s_1 . a_1 ... s_k . a_k with s_i
    fitting section i exists and is unique, and taking coordinates is
    an edge-preserving embedding whose image is upward closed.  The
    coordinates are read off :func:`place`; the test suite checks them
    against :func:`inject_all`, the search over every splitting.
    """
    fits, cuts = place(t, w)
    if cuts is None:
        raise ValueError(f"{w} fits a reduced template of {t}" if fits
                         else f"{w} does not fit {t}")
    return tuple(w.sub(start, stop) for start, stop in cuts)


def inject_all(t: Template, w: BinaryWord) -> list[tuple[BinaryWord, ...]]:
    """Every a_0 . s_1 . a_1 ... s_k . a_k = w with s_i fitting section i,
    as the tuple (s_1, ..., s_k); used to check the uniqueness claim."""
    fd = flange_and_sections(t)
    pairs = tuple(zip(fd.flange_words, fd.sections))
    n = len(w)
    found: list[tuple[BinaryWord, ...]] = []

    def search(pos: int, i: int, coords: tuple[BinaryWord, ...]) -> None:
        if i == len(pairs):
            if w.sub(pos, n) == fd.flange_words[-1]:
                found.append(coords)
            return
        word, section = pairs[i]
        start = pos + len(word)
        if start > n or w.sub(pos, start) != word:
            return
        for stop in range(start, n + 1):
            piece = w.sub(start, stop)
            if not member(section, piece):
                break  # every longer piece has this one as a prefix
            search(stop, i + 1, coords + (piece,))

    search(0, 0, ())
    return found


# ---------------------------------------------------------------------------
# Max-block words
# ---------------------------------------------------------------------------

def minimal_maxblock_word(t: Template) -> BinaryWord:
    """Word of t with every infinite cluster shrunk to one symbol."""
    return BinaryWord.from_str(
        "".join(c.sign * (1 if c.is_infinite else c.mult) for c in t.clusters))
