"""Command-line front end.

Subcommands: render, eval, graph, verify, covers, dim, product, inject,
limit.  Exit codes: 0 on success, 1 when a verification suite fails,
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .paintbox import Paintbox, phi_w
from .qsym import DEGREE_CAP, fexpansion_to_json, product_F
from .render import render_template, render_vertex
from .semifinite import GrowthModel, check_limit_formula, phi_tw
from .templates import inject, member, member_J, parse_template
from .verify import SUITES, run_suite
from .words import (ROOT, BinaryWord, dim, lower_covers, parse_vertex,
                    upper_cover_bits, upper_covers, words_below)

SCHEMA_GRAPH = "zigzag-graph/1"
SCHEMA_VERIFY = "zigzag-verify/1"


def _build_parser() -> argparse.ArgumentParser:
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


def _cmd_render(args) -> int:
    if (args.word is None) == (args.template is None):
        raise ValueError("render needs exactly one of --word or --template")
    if args.word is not None:
        print(render_vertex(parse_vertex(args.word)))
    else:
        print(render_template(parse_template(args.template)))
    return 0


def _cmd_eval(args) -> int:
    if (args.model is None) == (args.paintbox is None):
        raise ValueError("eval needs exactly one of --model or --paintbox")
    v = parse_vertex(args.word)
    if args.model is not None:
        print(phi_tw(GrowthModel.parse(args.model), v))
    else:
        value = phi_w(v, Paintbox.parse(args.paintbox))
        print(value)
    return 0


def _graph_data(max_level: int, template_text: Optional[str], ideal: bool):
    """Vertex names, with their levels, and edges as pairs of names.

    Names are keyed by packed bits under a leading 1, so the key's bit
    length is the vertex's level, and the root, below the empty word,
    is key 0.  Each vertex is turned into its string once; the edges
    out of a vertex come from its cover bits, sorted by name.
    """
    template = parse_template(template_text) if template_text else None
    if ideal and template is None:
        raise ValueError("--ideal needs --template")
    within = None if template is None else (lambda w: member(template, w))
    names = {} if ideal else {0: str(ROOT)}
    for w in words_below(max_level, within):
        if not (ideal and member_J(template, w)):
            names[w.bits | 1 << w.n] = str(w)
    edges = []
    for key, name in names.items():
        n = key.bit_length() - 1  # symbols of the word; -1 at the root
        covers = (0,) if n < 0 else upper_cover_bits(n, key ^ 1 << n)
        keys = (c | 1 << (n + 1) for c in covers)
        edges.extend((name, up) for up in sorted(names[k] for k in keys if k in names))
    return [(key.bit_length(), name) for key, name in names.items()], edges


def _cmd_graph(args) -> int:
    vertices, edges = _graph_data(args.level, args.template, args.ideal)
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA_GRAPH,
            "level": args.level,
            "vertices": [name for _, name in vertices],
            "edges": edges,
        }, indent=2))
    elif args.format == "dot":
        print("digraph zigzag {")
        print("  rankdir=BT;")
        for _, name in vertices:
            print(f'  "{name}";')
        for a, b in edges:
            print(f'  "{a}" -> "{b}";')
        print("}")
    else:
        by_level: dict[int, list[str]] = {}
        for lvl, name in vertices:
            by_level.setdefault(lvl, []).append(name)
        for lvl in sorted(by_level):
            print(f"level {lvl}: {' '.join(by_level[lvl])}")
        print(f"{len(vertices)} vertices, {len(edges)} edges")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, level=args.level, degree=args.degree,
                       seed=args.seed)
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA_VERIFY,
            "suite": report.suite,
            "ok": report.ok,
            "elapsed_seconds": round(report.elapsed, 3),
            "lines": report.lines,
        }, indent=2))
    else:
        for line in report.lines:
            print(f"  {line}")
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_covers(args) -> int:
    v = parse_vertex(args.word)
    covers = lower_covers(v) if args.down else upper_covers(v)
    for w in sorted(covers, key=str):
        print(w)
    return 0


def _cmd_dim(args) -> int:
    print(dim(parse_vertex(args.word), parse_vertex(args.upper)))
    return 0


def _cmd_product(args) -> int:
    expansion = product_F(parse_vertex(args.word), parse_vertex(args.right))
    if args.format == "json":
        print(json.dumps(fexpansion_to_json(expansion), indent=2))
    else:
        for v, c in sorted(expansion.coeffs.items(), key=lambda t: str(t[0])):
            print(f"{c}  {v}")
    return 0


def _cmd_inject(args) -> int:
    t = parse_template(args.template)
    parts = inject(t, BinaryWord.from_str(args.word))
    print(" | ".join(str(p) if len(p) else "(one box)" for p in parts))
    return 0


def _cmd_limit(args) -> int:
    model = GrowthModel.parse(args.model)
    report = check_limit_formula(model, args.level)
    print(f"n={report.n} const={report.const} finite={report.finite_points} "
          f"vanishing={report.vanishing_points} ok={report.ok}")
    for line in report.failures:
        print(f"  {line}")
    return 0 if report.ok else 1


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
    # argparse before Python 3.13 reads the word of --word=-- as an empty list
    for name in ("word", "upper", "right"):
        if getattr(args, name, None) == []:
            setattr(args, name, "--")
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
