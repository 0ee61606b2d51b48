"""Independent answer checker, run outside the timed region.

Each answer is checked by a route that does not share the code path
that produced it:

* ``product``  Gessel's shuffle rule, plus the coefficient sum C(n, |a|+1)
* ``dim``      the boustrophedon count of permutations with a descent set
* ``phi_w``    the iterated-coproduct evaluator ``eval_F_coproduct``
* ``phi_tw``   the value kind from ``member``/``member_J``; a finite value
               from the unique section decomposition (``inject_all``) and
               ``eval_F_coproduct`` on each section
* ``covers``   one-symbol insertion on the word's text
* ``cli``      exit code 0, the schema, ``"ok": true``; a graph's vertices
               against a regular expression for the template, its edges
               against one-symbol insertion

Answers arrive as the canonical texts of ``workloads.answer_text``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

from zigzag_harmonics import paintbox, semifinite, templates, words

ERROR_PREFIX = "!error "


def _runs(word: str) -> list[int]:
    """Row lengths of the ribbon: '+' extends a row, '-' starts one."""
    runs = [1]
    for s in word:
        if s == "+":
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def _permutation(word: str, offset: int = 0) -> list[int]:
    """A permutation whose descent set is the word's '-' positions.

    Runs increase and successive runs take smaller values.
    """
    seq: list[int] = []
    top = len(word) + 1
    for r in _runs(word):
        seq.extend(range(offset + top - r + 1, offset + top + 1))
        top -= r
    return seq


def shuffle_product(a: str, b: str) -> dict[str, int]:
    """F_a * F_b by Gessel's rule: descent words of all shuffles."""
    u = _permutation(a)
    v = _permutation(b, offset=len(u))
    n = len(u) + len(v)
    out: dict[str, int] = {}
    for spots in combinations(range(n), len(u)):
        taken = set(spots)
        iu, iv = iter(u), iter(v)
        seq = [next(iu) if i in taken else next(iv) for i in range(n)]
        w = "".join("-" if seq[j] > seq[j + 1] else "+" for j in range(n - 1))
        out[w] = out.get(w, 0) + 1
    return out


def boustrophedon(word: str) -> int:
    """Permutations of len(word)+1 letters with descents at the '-' positions.

    f[k] counts arrangements of the first i letters whose last letter
    has rank k; each step is one prefix sum, O(n^2) overall.
    """
    f = [1]
    for s in word:
        i = len(f)
        pre = [0]
        for x in f:
            pre.append(pre[-1] + x)
        f = [pre[i] - pre[k] if s == "-" else pre[k] for k in range(i + 1)]
    return sum(f)


def template_regex(text: str) -> re.Pattern:
    """Words fitting a template: one bounded run per cluster, in order."""
    parts = []
    for token in text.split():
        sign = re.escape(token[0])
        parts.append(f"{sign}*" if token[1:] == "*" else f"{sign}{{0,{token[1:]}}}")
    return re.compile("".join(parts))


def _insertions(w: str) -> set[str]:
    return {w[:i] + s + w[i:] for i in range(len(w) + 1) for s in "+-"}


def _check_graph(argv: list[str], data: dict) -> str | None:
    lvl = int(argv[argv.index("--level") + 1])
    fits = template_regex(argv[argv.index("--template") + 1]).fullmatch
    expected = {"@"}
    for n in range(lvl):
        expected.update(w for w in map("".join, product("+-", repeat=n)) if fits(w))
    vertices = data.get("vertices", [])
    if data.get("schema") != "zigzag-graph/1" or data.get("level") != lvl:
        return "graph header is wrong"
    if len(vertices) != len(set(vertices)) or set(vertices) != expected:
        return "graph vertices differ from the template's words"
    want_edges = {("@", "")} | {(v, u) for v in expected - {"@"}
                                for u in _insertions(v) if u in expected}
    edges = [tuple(e) for e in data.get("edges", [])]
    if len(edges) != len(set(edges)) or set(edges) != want_edges:
        return "graph edges differ from one-symbol insertion"
    return None


def _check_cli(op: list, text: str) -> str | None:
    code, _, out = text.partition("\n")
    if code != "0":
        return f"exit code {code}"
    try:
        data = json.loads(out)
    except ValueError:
        return "output is not JSON"
    argv = op[1]
    if argv[0] == "verify":
        if data.get("schema") != "zigzag-verify/1" or data.get("suite") != argv[1]:
            return "verify header is wrong"
        if data.get("ok") is not True:
            return "suite reported failure"
        return None
    return _check_graph(argv, data)


def _check_phi_tw(model_text: str, w_text: str, text: str) -> str | None:
    model = semifinite.GrowthModel.parse(model_text)
    t, w = model.template, words.BinaryWord.from_str(w_text)
    kind = ("zero" if not templates.member(t, w)
            else "infinite" if templates.member_J(t, w) else "finite")
    got = value_kind(["phi_tw"], text)
    if got != kind:
        return f"value {text} but the word is {kind}"
    if kind != "finite":
        return None
    decs = templates.inject_all(t, w)
    if len(decs) != 1:
        return f"{len(decs)} section decompositions"
    value = Fraction(1)
    for part, intervals in zip(decs[0], semifinite.section_interval_tuples(model)):
        value *= paintbox.eval_F_coproduct(part, intervals)
    return None if Fraction(text) == value else f"value {text}, oracle {value}"


def value_kind(op: list, text: str) -> str | None:
    """zero / finite / infinite for phi_w and phi_tw answers, else None."""
    if op[0] not in ("phi_w", "phi_tw") or text.startswith(ERROR_PREFIX):
        return None
    return {"0": "zero", "inf": "infinite"}.get(text, "finite")


def check(op: list, text: str) -> str | None:
    """None when the answer text is right, else a one-line reason."""
    if text.startswith(ERROR_PREFIX):
        return text[len(ERROR_PREFIX):]
    kind = op[0]
    if kind == "cli":
        return _check_cli(op, text)
    if kind == "phi_w":
        want = paintbox.eval_F_coproduct(words.BinaryWord.from_str(op[2]),
                                         paintbox.Paintbox.parse(op[1]))
        return None if Fraction(text) == want else f"{text} != oracle {want}"
    if kind == "phi_tw":
        return _check_phi_tw(op[1], op[2], text)
    if kind == "dim":
        want = boustrophedon(op[1])
        return None if text == str(want) else f"{text} != boustrophedon {want}"
    if kind == "covers":
        want = " ".join(sorted(_insertions(op[1])))
        return None if text == want else "covers differ from one-symbol insertion"
    if kind == "product":
        terms = dict(t.rsplit(":", 1) for t in text.split(" ")) if text else {}
        got = {w: int(c) for w, c in terms.items()}
        boxes = len(op[1]) + 1
        if sum(got.values()) != comb(boxes + len(op[2]) + 1, boxes):
            return "coefficients do not sum to C(n, |a|+1)"
        return None if got == shuffle_product(op[1], op[2]) else "differs from shuffle rule"
    return f"no checker for {kind!r}"
