"""Command-line front end.

Subcommands: render, eval, graph, verify, covers, dim, product, inject,
limit.  Each works out its whole output and exit code first, and only
then writes them.  Exit codes: 0 on success, 1 when a verification
suite fails, 2 on usage or parse errors; a reader that closes the
output early changes neither.  ``main`` builds its parser at its first
call and reuses it, so a caller that loops over ``main`` pays argparse
once: a ``covers --word +`` call took 1.4-1.8 ms when each call built
the parser and 0.05-0.08 ms with it reused (2-vCPU machine, Python 3.11).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from typing import Optional, Union

from .paintbox import Paintbox, phi_w
from .qsym import DEGREE_CAP, fexpansion_to_json, product_F
from .render import PICTURE_CAP, render_template, render_vertex
from .semifinite import INFINITY, GrowthModel, _Value, check_limit_formula, phi_tw
from .templates import compile_placement, inject, on_locus, parse_template, placement
from .verify import SUITES, run_suite
from .words import (ROOT, BinaryWord, check_word_bound, dim, key_str, lower_covers,
                    parse_vertex, upper_cover_bits, upper_covers, walk_levels)

SCHEMA_GRAPH = "zigzag-graph/1"
SCHEMA_VERIFY = "zigzag-verify/1"


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at ``main``'s first call.

    Sharing it is safe: ``parse_args`` does not change a parser, every
    default is immutable, and the handlers read their caps and ``SUITES``
    when they run; only the suite choices are fixed here, from the
    registry that is complete at import.
    """
    parser = argparse.ArgumentParser(
        prog="zigzag",
        description="Exact computations on the zigzag graph, its template "
                    "coideals, and their harmonic evaluations.",
        epilog="Words starting with '-' need the --word=-+- form.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="ASCII picture of a word or template")
    p.add_argument("--word", help="binary word over + and - ('' for one box)")
    p.add_argument("--template", help="template, e.g. '+* -1 +1 -*'")

    p = sub.add_parser("eval", help="evaluate a model or paintbox at a word")
    p.add_argument("--word", required=True)
    p.add_argument("--model", help="growth model, e.g. '+* -1 +1 -* | w=1/2,1/2'")
    p.add_argument("--paintbox", help="paintbox, e.g. '+1/3,-1/6,+1/2'")

    p = sub.add_parser("graph", help="vertex and edge lists up to a level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--template", help="restrict to the template's coideal")
    p.add_argument("--ideal", action="store_true",
                   help="with --template, keep only the finite-value part")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--level", type=int,
                   help="size of the check; read by every suite but ring-identity")
    p.add_argument("--degree", type=int,
                   help=f"combined product degree of ring-identity (3..{DEGREE_CAP})")
    p.add_argument("--seed", type=int,
                   help="random seed of kerov-oracle and finite-harmonicity")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("covers", help="upper (or lower) covers of a vertex")
    p.add_argument("--word", required=True, help="word or '@' for the root")
    p.add_argument("--down", action="store_true")

    p = sub.add_parser("dim", help="number of paths between two vertices")
    p.add_argument("--word", required=True, help="lower vertex (word or '@')")
    p.add_argument("--to", dest="upper", required=True, help="upper vertex")

    p = sub.add_parser("product", help="product of two fundamental functions")
    p.add_argument("--word", required=True, help="left factor (word or '@')")
    p.add_argument("--with", dest="right", required=True, help="right factor")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("inject", help="section coordinates of a word")
    p.add_argument("--template", required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("limit", help="eps-limit data of a growth model")
    p.add_argument("--model", required=True)
    p.add_argument("--level", type=int, required=True)

    return parser


def _cmd_render(args) -> tuple[int, list[str]]:
    if (args.word is None) == (args.template is None):
        raise ValueError("render needs exactly one of --word or --template")
    if args.word is not None:
        return 0, [render_vertex(parse_vertex(args.word))]
    return 0, [render_template(parse_template(args.template))]


def _exact(value: Union[int, _Value]) -> str:
    """``str`` of a value, at any size.

    CPython refuses ``str`` of an int of more than 4,300 digits, while
    ``Decimal`` holds an int exactly and prints all of its digits.
    """
    if value is INFINITY:
        return str(value)
    value = Fraction(value)
    digits = str(Decimal(value.numerator))
    return digits if value.denominator == 1 else f"{digits}/{Decimal(value.denominator)}"


def _cmd_eval(args) -> tuple[int, list[str]]:
    if (args.model is None) == (args.paintbox is None):
        raise ValueError("eval needs exactly one of --model or --paintbox")
    v = parse_vertex(args.word)
    if args.model is not None:
        return 0, [_exact(phi_tw(GrowthModel.parse(args.model), v))]
    return 0, [_exact(phi_w(v, Paintbox.parse(args.paintbox)))]


#: characters that each vertex, and each listed edge, adds to a graph
#: listing beyond its names: JSON's indents, quotes and separators, a DOT
#: line's quotes, arrow and newline, and in text, which lists no edges,
#: the space or newline after each name
_GRAPH_COSTS = {"json": (8, 32), "dot": (6, 12), "text": (1, None)}


def _check_listing(size: int) -> None:
    if size > PICTURE_CAP:
        raise ValueError(f"listing of at least {size} characters above cap {PICTURE_CAP}")


def _graph_data(max_level: int, template_text: Optional[str], ideal: bool,
                fmt: str = "text"):
    """Vertex names, with their levels, the edges as pairs of names, and
    the number of edges; text lists no edges, it only counts them.

    Names are keyed by packed bits under a leading 1, so the key's bit
    length is the vertex's level, and the root, below the empty word,
    is key 0.  The walk runs on packed bits, and each vertex is named
    once, by ``key_str`` of its key; the edges out of a vertex come from
    its cover bits, sorted by name, and text only counts the covers
    that are listed.  With a
    template, one walk of its coideal places each word once, by its
    placement automaton, and ``ideal`` drops the words whose placement
    lies on the blow-up locus.

    A listing above ``PICTURE_CAP`` characters raises ``ValueError``
    before it is built.  The vertices' share, their names and
    ``_GRAPH_COSTS``, is counted before the walk from the number of
    words of each length that reach each state, a pass that numbers
    every state of the listing's words; the edges' share as they are
    listed.  With ``ideal`` the walk then keeps only the words that lie
    below some listed word: a word of m symbols whose state is d symbols
    from the nearest state off the locus, over the states that pass
    numbered, is kept iff m + d < ``max_level``.
    """
    template = parse_template(template_text) if template_text else None
    if ideal and template is None:
        raise ValueError("--ideal needs --template")
    check_word_bound(max_level)
    start, step = placement(template) if template else (True, lambda keep, bit: keep)
    vertex_cost, edge_cost = _GRAPH_COSTS[fmt]
    size, counts = 0 if ideal else 1 + vertex_cost, {start: 1}
    for n in range(max_level):
        if n:
            ahead: dict = {}
            for state, count in counts.items():
                for bit in (0, 1):
                    if (child := step(state, bit)) is not None:
                        ahead[child] = ahead.get(child, 0) + count
            counts = ahead
        size += (n + vertex_cost) * sum(
            count for state, count in counts.items() if not (ideal and on_locus(state)))
    _check_listing(size)
    names = {} if ideal else {0: str(ROOT)}
    if ideal:
        far = compile_placement(template).distances(0)

        def below_listed(state: tuple[int, int], bit: int) -> Optional[tuple[int, int]]:
            # a word's placement state and the symbols it may still gain
            at, left = state
            at = step(at, bit)
            return None if at is None or far.get(at, left) >= left else (at, left - 1)

        top = max_level - 1
        walked = walk_levels(max_level, (start, top) if far.get(start, top + 1) <= top
                             else None, below_listed)
        keys = (bits | 1 << n for n, layer in walked for bits, (at, _) in layer
                if not on_locus(at))
    else:
        keys = (bits | 1 << n for n, layer in walk_levels(max_level, start, step)
                for bits, _ in layer)
    names.update((key, key_str(key)) for key in keys)
    edges, edge_count = [], 0
    for key, name in names.items():
        n = key.bit_length() - 1  # symbols of the word; -1 at the root
        covers = (0,) if n < 0 else upper_cover_bits(n, key ^ 1 << n)
        lead = 1 << (n + 1)  # the covers' leading 1
        if edge_cost is None:  # text counts the listed covers and names none
            edge_count += sum(c | lead in names for c in covers)
            continue
        ups = [names[c | lead] for c in covers if c | lead in names]
        edge_count += len(ups)
        # each cover's name has n + 1 symbols
        size += len(ups) * (len(name) + n + 1 + edge_cost)
        _check_listing(size)
        edges.extend((name, up) for up in sorted(ups))
    return [(key.bit_length(), name) for key, name in names.items()], edges, edge_count


def _graph_json(level: int, names: list[str], edges: list[tuple[str, str]]) -> str:
    """``json.dumps(..., indent=2)`` of the graph document, byte for byte.

    That call always runs the pure-Python encoder; here each string goes
    through the C string encoder and the fixed layout is written around
    it.
    """
    quote = json.encoder.encode_basestring_ascii

    def items(texts: list[str]) -> str:
        return "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"

    pairs = [f"[\n      {quote(a)},\n      {quote(b)}\n    ]" for a, b in edges]
    return (f'{{\n  "schema": {quote(SCHEMA_GRAPH)},\n  "level": {level},\n'
            f'  "vertices": {items([quote(name) for name in names])},\n'
            f'  "edges": {items(pairs)}\n}}')


def _cmd_graph(args) -> tuple[int, list[str]]:
    vertices, edges, edge_count = _graph_data(args.level, args.template, args.ideal,
                                              args.format)
    if args.format == "json":
        lines = [_graph_json(args.level, [name for _, name in vertices], edges)]
    elif args.format == "dot":
        lines = ["digraph zigzag {", "  rankdir=BT;",
                 *(f'  "{name}";' for _, name in vertices),
                 *(f'  "{a}" -> "{b}";' for a, b in edges), "}"]
    else:
        by_level: dict[int, list[str]] = {}
        for lvl, name in vertices:
            by_level.setdefault(lvl, []).append(name)
        lines = [*(f"level {lvl}: {' '.join(by_level[lvl])}" for lvl in sorted(by_level)),
                 f"{len(vertices)} vertices, {edge_count} edges"]
    _check_listing(sum(map(len, lines)) + len(lines))  # each line and its newline
    return 0, lines


def _cmd_verify(args) -> tuple[int, list[str]]:
    report = run_suite(args.suite, level=args.level, degree=args.degree,
                       seed=args.seed)
    code = 0 if report.ok else 1
    if args.format == "json":
        return code, [json.dumps({
            "schema": SCHEMA_VERIFY,
            "suite": report.suite,
            "ok": report.ok,
            "elapsed_seconds": round(report.elapsed, 3),
            "lines": report.lines,
        }, indent=2)]
    return code, [*(f"  {line}" for line in report.lines), report.summary()]


def _cmd_covers(args) -> tuple[int, list[str]]:
    v = parse_vertex(args.word)
    if v is not ROOT:
        # a line per cover, each one symbol longer or shorter than v, plus
        # its newline: n + 2 insertions, or one deletion per run of v
        _check_listing(len(v.blocks()) * v.n if args.down else (v.n + 2) ** 2)
    covers = lower_covers(v) if args.down else upper_covers(v)
    return 0, sorted(map(str, covers))


#: the longest upper word ``dim`` counts paths to.  words.dim recurses
#: once per symbol it deletes and keeps every subword it meets; its worst
#: case, the alternating word, took 0.5 s at 18 symbols, 1.3 s at 20, 3.7 s
#: at 22 and 10 s at 24 (2-vCPU machine, Python 3.11)
DIM_CAP = 20


def _cmd_dim(args) -> tuple[int, list[str]]:
    a, b = parse_vertex(args.word), parse_vertex(args.upper)
    if b is not ROOT and b.n > DIM_CAP:
        raise ValueError(f"path count to a word of {b.n} symbols above cap {DIM_CAP}")
    return 0, [_exact(dim(a, b))]


def _cmd_product(args) -> tuple[int, list[str]]:
    expansion = product_F(parse_vertex(args.word), parse_vertex(args.right))
    if args.format == "json":
        return 0, [json.dumps(fexpansion_to_json(expansion), indent=2)]
    return 0, [f"{c}  {v}" for v, c in sorted(expansion.coeffs.items(), key=lambda t: str(t[0]))]


def _cmd_inject(args) -> tuple[int, list[str]]:
    t = parse_template(args.template)
    parts = inject(t, BinaryWord.from_str(args.word))
    return 0, [" | ".join(str(p) if len(p) else "(one box)" for p in parts)]


def _cmd_limit(args) -> tuple[int, list[str]]:
    model = GrowthModel.parse(args.model)
    report = check_limit_formula(model, args.level)
    return 0 if report.ok else 1, [
        f"n={report.n} const={report.const} finite={report.finite_points} "
        f"vanishing={report.vanishing_points} ok={report.ok}",
        *(f"  {line}" for line in report.failures)]


#: the destinations of the options that take any string
_STRING_OPTIONS = ("word", "upper", "right", "template", "model", "paintbox")

_HANDLERS = {
    "render": _cmd_render,
    "eval": _cmd_eval,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
    "covers": _cmd_covers,
    "dim": _cmd_dim,
    "product": _cmd_product,
    "inject": _cmd_inject,
    "limit": _cmd_limit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.13 reads the value of --opt=-- as an empty
    # list, past the option's type and choices: a string option gets its
    # "--" back, and any other option refuses it
    for name, value in list(vars(args).items()):
        if value == []:
            if name not in _STRING_OPTIONS:
                print(f"error: argument --{name}: invalid value '--'", file=sys.stderr)
                return 2
            setattr(args, name, "--")
    try:
        code, lines = _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: the rest of the output goes to the null
        # device, so the interpreter's last flush cannot fail again, and the
        # command's own exit code stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
