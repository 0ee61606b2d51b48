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
One greedy forward loop, :func:`_greedy`, over a tuple of cluster runs
and a packed word, decides membership; run by :func:`place` it also
gives where each cluster's chunk starts, so :func:`member`,
:func:`member_J`, :func:`inject` and the semifinite evaluation all run
the same code: the point route.  The mirror-image pass from the end
gives the least position from which the later clusters fit; a flange
cluster can be left one symbol short exactly when that position lies
less than its multiplicity past the start of its chunk.  Off the locus
every flange chunk is full, so the greedy chunks, joined per section,
are the section coordinates.  The search over every splitting is left
to :func:`inject_all`, the uniqueness oracle, which reads the layout's
spans and runs the same loop on each section's slice of the runs.

Walks take the other route.  :func:`compile_placement` turns the greedy
pass, one symbol at a time in t and in each reduced template at once,
into a finite automaton: its states are numbered as walks first reach
them, each carries its blow-up locus flag and the cluster that took the
last symbol, and a step is one table read, so a walk places each word
from its parent's state (:func:`placement`, :func:`on_locus`).  The
placement of the example templates has 5 to 24 states, and a walk of n
symbols numbers no state beyond n symbols.

Grammar: whitespace-separated tokens, each a sign followed by a
positive integer or '*' for an infinite multiplicity, e.g.
``"+* -1 +1 -*"``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Optional

from .words import MINUS, PLUS, BinaryWord, Explorer, Frozen, _set


class Cluster(Frozen):
    __slots__ = ("sign", "mult")
    sign: str
    mult: Optional[int]  # None means infinite

    def __init__(self, sign: str, mult: Optional[int]) -> None:
        if sign not in (PLUS, MINUS):
            raise ValueError(f"bad cluster sign {sign!r}")
        if mult is not None and mult < 1:
            raise ValueError(f"finite multiplicity must be >= 1, got {mult}")
        _set(self, "sign", sign)
        _set(self, "mult", mult)

    @property
    def is_infinite(self) -> bool:
        return self.mult is None

    def __str__(self) -> str:
        return f"{self.sign}{'*' if self.mult is None else self.mult}"


class Template(Frozen):
    __slots__ = ("clusters", "_runs", "_layout", "_placement")
    clusters: tuple[Cluster, ...]
    # (sign bit, multiplicity or None) per cluster, read by _greedy
    _runs: tuple[tuple[int, Optional[int]], ...]
    # per section, its first and one past its last cluster index, and the
    # flange cluster indices; filled by _layout on first use
    _layout: Optional[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]
    # the placement automaton of t and its reduced templates; made by
    # compile_placement on first use, and grows as walks reach new states
    _placement: Optional[Explorer]

    def __init__(self, clusters: tuple[Cluster, ...]) -> None:
        if not clusters:
            raise ValueError("template needs at least one cluster")
        for a, b in zip(clusters, clusters[1:]):
            if a.sign == b.sign:
                raise ValueError(f"clusters must alternate, got {a} {b}")
        if not any(c.is_infinite for c in clusters):
            raise ValueError("template needs at least one infinite cluster")
        _set(self, "clusters", clusters)
        _set(self, "_runs", tuple((1 if c.sign == MINUS else 0, c.mult) for c in clusters))
        _set(self, "_layout", None)
        _set(self, "_placement", None)

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
        _set(t, "_layout", (tuple(spans), tuple(flange)))
    return t._layout


def is_finite_template(t: Template) -> bool:
    """True iff every finite cluster is separating."""
    return not _layout(t)[1]


# ---------------------------------------------------------------------------
# Membership and placement
# ---------------------------------------------------------------------------

def _greedy(runs: tuple[tuple[int, Optional[int]], ...], bits: int, n: int,
            starts: Optional[list[int]] = None) -> int:
    """How far into the word of n symbols packed in ``bits`` the clusters
    of ``runs`` (:attr:`Template._runs`, or a slice of it) reach, each in
    turn taking the longest run of its sign that its multiplicity allows;
    the loop stops once all of the word is taken.  When ``starts`` is a
    list, the start of each chunk taken is appended to it.

    The greedy reach is exact because the coideal is closed under
    deletion: if some splitting fits, every suffix of the remainder it
    leaves after a cluster fits the remaining clusters, so taking more
    symbols never hurts.  (By induction, the greedy position after each
    cluster is at least that of any fitting splitting.)  A constant
    number of integer operations per cluster, whatever the length of
    the word.
    """
    pos = 0
    for bit, mult in runs:
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
    return _greedy(t._runs, w.bits, w.n) == w.n


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
    return _place(t, w.bits, w.n)


def _place(t: Template, bits: int, n: int) -> tuple[bool, Optional[list[tuple[int, int]]]]:
    """:func:`place` of the word of n symbols packed in ``bits``."""
    starts: list[int] = []  # starts[i]: where cluster i's greedy chunk starts
    pos = _greedy(t._runs, bits, n, starts)
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
# The placement automaton: the greedy pass one symbol at a time
# ---------------------------------------------------------------------------

#: the greedy position in t, then in each reduced template (None once the
#: word leaves it); a position, c symbols taken by cluster i of k, is the
#: code c * 2k + 2i, with c kept at 0 on an infinite cluster.  The key of
#: a placement state, read only while the state is numbered
Codes = tuple[Optional[int], ...]
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


def _codes_step(tables: tuple[Table, ...], codes: Codes, bit: int) -> Optional[Codes]:
    """A word's :data:`Codes` from its parent's and its last symbol, read
    off the tables of t and of its reduced templates; None off t's
    coideal.  O(1 + flange) integer operations whatever the
    multiplicities."""
    size, out = len(tables[0]), []  # two rows per cluster
    for code, table in zip(codes, tables):
        if code is not None:
            bound, delta, jump = table[code % size + bit]
            code = code + delta if code < bound else jump
        out.append(code)
    return None if out[0] is None else tuple(out)  # reduced coideals lie in t's


def _codes_note(size: int, codes: Codes) -> tuple[int, int]:
    """A placement state's flag, 1 on the blow-up locus (some reduced
    template still holds the word), and its label, the cluster whose
    greedy chunk took the word's last symbol."""
    return int(codes.count(None) < len(codes) - 1), codes[0] % size // 2


def compile_placement(t: Template) -> Explorer:
    """t's placement automaton: the placement states of t and its reduced
    templates that words reach, numbered by an
    :class:`~zigzag_harmonics.words.Explorer` as walks first reach them,
    each flagged 1 on the blow-up locus and labelled with the cluster that
    took the last symbol.  Made on first use and stored on t; the tables
    behind it are compiled then, and a state is numbered, and its codes
    stepped, only when a walk first asks for it, so a walk of n symbols
    explores no state beyond n symbols.  ``+100000000 -* +* -1 +*``
    compiles to tables the size of those of ``+1 -* +* -1 +*``, and its
    states count the symbols its first cluster took, as many as the walk
    is long."""
    if t._placement is None:
        bits, mults = [bit for bit, _ in t._runs], [mult for _, mult in t._runs]
        tables = (_table(bits, mults), *(
            _table(bits, mults[:f] + [mults[f] - 1] + mults[f + 1:]) for f in _layout(t)[1]))
        _set(t, "_placement", Explorer(
            (0,) * len(tables), partial(_codes_step, tables), partial(_codes_note, 2 * len(t))))
    return t._placement


def placement(t: Template) -> tuple[int, Callable[[int, int], Optional[int]]]:
    """The empty word's placement state in t, and the step that gives a
    word's state from its parent's and its last symbol (None off t's
    coideal), for :func:`~zigzag_harmonics.words.walk_levels`: one table
    read of :func:`compile_placement`'s automaton once the state is known."""
    p = compile_placement(t)
    return p.start, p.step


def on_locus(at: int) -> bool:
    """True iff the word with this placement state fits a reduced template:
    the flag in the state's low bit."""
    return at & 1 == 1


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
        raise ValueError(f"'{w}' fits a reduced template of {t}" if fits
                         else f"'{w}' does not fit {t}")
    return tuple(w.sub(start, stop) for start, stop in cuts)


def inject_all(t: Template, w: BinaryWord) -> list[tuple[BinaryWord, ...]]:
    """Every a_0 . s_1 . a_1 ... s_k . a_k = w with s_i fitting section i,
    as the tuple (s_1, ..., s_k), in increasing order of the cuts; used to
    check the uniqueness claim.

    A search over :func:`_layout`'s spans and ``t._runs``, on w's packed
    bits.  Each flange cluster between two sections takes exactly its
    multiplicity of its own sign, checked once the rest of w is known to
    be long enough.  Section i takes every prefix of the rest up to its
    greedy reach, :func:`_greedy` on the section's slice of the runs:
    the section's coideal is closed under deletion, so those prefixes
    are exactly the ones that fit it.
    """
    spans = _layout(t)[0]
    runs, bits, n = t._runs, w.bits, w.n
    # the flange clusters lie between the sections: 0 to the first start,
    # each end to the next start, the last end to len(t)
    cuts = (0, *(i for span in spans for i in span), len(t))
    flanges = [runs[lo:hi] for lo, hi in zip(cuts[::2], cuts[1::2])]
    sections = [runs[lo:hi] for lo, hi in spans]
    found: list[tuple[BinaryWord, ...]] = []

    def search(pos: int, i: int, coords: tuple[BinaryWord, ...]) -> None:
        for bit, mult in flanges[i]:
            if n - pos < mult:
                return
            full = (1 << mult) - 1
            if (bits >> pos) & full != (full if bit else 0):
                return
            pos += mult
        if i == len(sections):
            if pos == n:
                found.append(coords)
            return
        reach = _greedy(sections[i], bits >> pos, n - pos)
        for stop in range(pos, pos + reach + 1):
            search(stop, i + 1, coords + (w.sub(pos, stop),))

    search(0, 0, ())
    return found


# ---------------------------------------------------------------------------
# Max-block words
# ---------------------------------------------------------------------------

def minimal_maxblock_word(t: Template) -> BinaryWord:
    """Word of t with every infinite cluster shrunk to one symbol."""
    return BinaryWord.from_str(
        "".join(c.sign * (1 if c.is_infinite else c.mult) for c in t.clusters))
