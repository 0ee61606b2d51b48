"""Workload inputs and the operations that run them.

Inputs are plain JSON-able lists made from the seed alone; the library
sees only the generated texts.  An operation is ``[kind, *texts]``:

* ``["cli", argv]``           ``cli.main(argv)`` with stdout captured
* ``["phi_w", paintbox, w]``  ``phi_w`` of a parsed paintbox at a word
* ``["phi_tw", model, w]``    ``phi_tw`` of a parsed growth model at a word
* ``["dim", w]``              ``dim(@, w)``
* ``["covers", w]``           ``upper_covers(w)``
* ``["product", a, b]``       ``product_F(a, b)``

Every operation starts from text and is parsed with the library's own
parsers, as the CLI handlers do.  Library functions are looked up on
their modules at call time, so the traced run sees the benchmark's own
calls as well as the library's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from zigzag_harmonics import cli, paintbox, qsym, semifinite, templates, words

# The three worked models of the verification suites, plus one with
# flange clusters at both ends around a section holding a separating
# cluster, so that reduced templates and the injection both do work.
MODELS = {
    "step": "+* -1 +1 -* | w=1/3,2/3",
    "capped": "+1 -* +* -1 +* | w=1/2,1/3,1/6",
    "bracketed": "-1 +* -* +1 -* +* -* +1 | w=1/3,1/4,1/6,1/8,1/8",
    "two-flange": "-2 +* -* +1 -* +* -1 +2 | w=1/5,3/10,1/4,1/4",
}

# Level-scanning suites at their acceptance caps.
SCAN_SUITES = (("kerov-oracle", 7), ("finite-harmonicity", 10),
               ("coideal-identities", 11), ("injection", 10), ("semifinite", 10),
               ("eps-limit", 9), ("distinctness", 10), ("approx-sequence", 6),
               ("path-counts", 6))
SCAN_GRAPH_LEVEL = 11

# Sizes: "full" is what the benchmark times; "tiny" is the self-test.
SIZES = {
    "full": {"scan_levels": {}, "graph_level": SCAN_GRAPH_LEVEL,
             "pieri_level": 6, "ring_degree": 8, "pairs": 4, "pair_boxes": 5,
             "queries": 2000, "probes": 5},
    "tiny": {"scan_levels": {"kerov-oracle": 4, "finite-harmonicity": 5,
                             "semifinite": 6}, "graph_level": 5,
             "pieri_level": 3, "ring_degree": 5, "pairs": 2, "pair_boxes": 3,
             "queries": 60, "probes": 1},
}

# Query mix of the queries workload, as shares of all queries.
QUERY_SHARES = {"phi_w": 0.30, "phi_tw": 0.30, "dim": 0.15, "covers": 0.10,
                "product": 0.15}
# Value kinds of the phi_tw queries, as shares of those queries.
KIND_SHARES = {"zero": 0.2, "finite": 0.5, "infinite": 0.3}
PHI_W_LENGTHS = (12, 40)
# Share of phi_w words drawn inside the paintbox's support; a uniformly
# random word of this length almost never fits, and evaluates to 0.
PHI_W_SUPPORT_SHARE = 0.7
PHI_TW_LENGTHS = (8, 24)
COVER_LENGTHS = (20, 40)
DIM_RANDOM_MAX = 14
DIM_ALTERNATING_MAX = 18
PRODUCT_MAX_DEGREE = 7
# dim(@, w) recurses once per symbol and keeps every subword in an
# unbounded memo.  Lengths 400-600 end in RecursionError; lengths
# between DIM_ALTERNATING_MAX + 1 and 399 are left out because a single
# such query runs longer than a whole run.
PROBE_LENGTHS = (400, 600)
EXCLUDED_DIM_LENGTHS = (DIM_ALTERNATING_MAX + 1, PROBE_LENGTHS[0] - 1)


def _random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("+-") for _ in range(n))


def _word_with_minuses(rng: random.Random, n: int, minuses: int) -> str:
    spots = set(rng.sample(range(n), minuses))
    return "".join("-" if i in spots else "+" for i in range(n))


def _random_paintbox(rng: random.Random, m: int) -> str:
    raw = [rng.randint(1, 9) for _ in range(m)]
    total = sum(raw)
    return ",".join(f"{rng.choice('+-')}{Fraction(r, total)}" for r in raw)


def _counts(total: int, shares: dict[str, float]) -> dict[str, int]:
    """Split total by shares; rounding leftovers go to the first keys."""
    counts = {k: int(total * s) for k, s in shares.items()}
    for k in list(counts)[:total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _template_word(rng: random.Random, t: templates.Template, length: int) -> str:
    """A random word of the given length fitting template t."""
    finite = [c.mult if c.mult is not None else 0 for c in t.clusters]
    chunks = [rng.randint(0, m) for m in finite]
    infinite = [i for i, c in enumerate(t.clusters) if c.mult is None]
    for _ in range(max(0, length - sum(chunks))):
        chunks[rng.choice(infinite)] += 1
    return "".join(c.sign * k for c, k in zip(t.clusters, chunks))


def _phi_tw_word(rng: random.Random, model_text: str, kind: str, length: int) -> str:
    """Rejection-sample a word whose phi_tw value has the wanted kind.

    Short finite words may not exist for a model; after 200 misses the
    length grows by one.
    """
    t = semifinite.GrowthModel.parse(model_text).template
    misses = 0
    while True:
        text = _template_word(rng, t, length + misses // 200)
        if kind == "zero":
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars))
                chars[i] = "+" if chars[i] == "-" else "-"
            text = "".join(chars)
        w = words.BinaryWord.from_str(text)
        inside = templates.member(t, w)
        got = ("zero" if not inside
               else "infinite" if templates.member_J(t, w) else "finite")
        if got == kind:
            return text
        misses += 1


def scan_ops(seed: int, size: str) -> list[list]:
    """The suites at their caps and default seeds, then the graphs.

    A suite's own seed draws its random paintboxes, and over five seeds
    it changed finite-harmonicity's work about 2x, so the suites keep
    their default seeds, as the acceptance gate runs them.  The
    benchmark seed sets the order of the suites.
    """
    cfg = SIZES[size]
    suites = list(SCAN_SUITES)
    random.Random(seed).shuffle(suites)
    ops = [["cli", ["verify", name, "--level", str(cfg["scan_levels"].get(name, cap)),
                    "--format", "json"]] for name, cap in suites]
    for model in ("step", "capped", "bracketed"):
        template = MODELS[model].partition("|")[0].strip()
        ops.append(["cli", ["graph", "--level", str(cfg["graph_level"]),
                            "--template", template, "--format", "json"]])
    return ops


def products_ops(seed: int, size: str) -> list[list]:
    """The pieri and ring-identity suites, then balanced product pairs.

    Both suites run one level below their acceptance caps (pieri 7,
    ring-identity 9), which take 5 s and 10 s, so that a run holds
    several passes.
    """
    cfg = SIZES[size]
    rng = random.Random(seed)
    ops = [["cli", ["verify", "pieri", "--level", str(cfg["pieri_level"]),
                    "--format", "json"]],
           ["cli", ["verify", "ring-identity", "--degree", str(cfg["ring_degree"]),
                    "--format", "json"]]]
    # Balanced factors, with a fixed schedule of '-' counts: the size of
    # a fundamental function's monomial expansion depends on its number
    # of descents, so fixing the counts keeps a pass's work independent
    # of the seed while the seed still picks the words.
    n = cfg["pair_boxes"] - 1
    schedule = [(1, n - 1), (n // 2, n - n // 2), (n - 1, 1), (n // 2, n - n // 2)]
    for i in range(cfg["pairs"]):
        da, db = schedule[i % len(schedule)]
        ops.append(["product", _word_with_minuses(rng, n, da),
                    _word_with_minuses(rng, n, db)])
    return ops


def _cycle(lo: int, hi: int, i: int) -> int:
    """The i-th value of lo..hi taken in turn, so each occurs equally often."""
    return lo + i % (hi - lo + 1)


def queries_ops(seed: int, size: str) -> list[list]:
    """Independent point queries in stated shares, then shuffled.

    Lengths, degrees, '-' counts, models and interval counts are taken
    in turn rather than drawn, so that the slowest one per cent of
    queries, which sets op_p99_ms, has the same make-up on every seed;
    the seed picks the words, weights and order.
    """
    cfg = SIZES[size]
    rng = random.Random(seed)
    counts = _counts(cfg["queries"], QUERY_SHARES)
    ops: list[list] = []
    for i in range(counts["phi_w"]):
        box = _random_paintbox(rng, 1 + i % 4)
        n = _cycle(*PHI_W_LENGTHS, i)
        if i % 10 < 10 * PHI_W_SUPPORT_SHARE:
            t = paintbox.template_of_paintbox(paintbox.Paintbox.parse(box))
            ops.append(["phi_w", box, _template_word(rng, t, n)])
        else:
            ops.append(["phi_w", box, _random_word(rng, n)])
    models = list(MODELS.values())
    i = 0
    for kind, k in _counts(counts["phi_tw"], KIND_SHARES).items():
        for _ in range(k):
            model = models[i % len(models)]
            ops.append(["phi_tw", model,
                        _phi_tw_word(rng, model, kind, _cycle(*PHI_TW_LENGTHS, i))])
            i += 1
    alternating = []
    for i in range(counts["dim"]):
        if i % 2:
            n = _cycle(1, DIM_ALTERNATING_MAX, i // 2)
            first = "+-"[i // 2 // DIM_ALTERNATING_MAX % 2]
            alternating.append(["dim", ((first + ("-" if first == "+" else "+")) * n)[:n]])
        else:
            ops.append(["dim", _random_word(rng, _cycle(0, DIM_RANDOM_MAX, i // 2))])
    for i in range(counts["covers"]):
        ops.append(["covers", _random_word(rng, _cycle(*COVER_LENGTHS, i))])
    # Every split of every degree into factor sizes, and every number of
    # '-' symbols in each factor: a product's cost follows these four.
    shapes = [(p, d - p, da, db) for d in range(2, PRODUCT_MAX_DEGREE + 1)
              for p in range(1, d) for da in range(p) for db in range(d - p)]
    for i in range(counts["product"]):
        p, q, da, db = shapes[i % len(shapes)]
        ops.append(["product", _word_with_minuses(rng, p - 1, da),
                    _word_with_minuses(rng, q - 1, db)])
    # The alternating words share their subwords through the library's
    # dim memo, so whichever comes first pays for the shorter ones.  They
    # keep the order in which they were made (lengths rising, in turn)
    # and only their slots among the other queries are shuffled.
    ops += [None] * len(alternating)
    rng.shuffle(ops)
    queue = iter(alternating)
    return [next(queue) if op is None else op for op in ops]


def probe_ops(seed: int, size: str) -> list[list]:
    """Long-word dim queries; each fails with RecursionError today."""
    rng = random.Random(seed ^ 0x5EED)
    return [["dim", _random_word(rng, rng.randint(*PROBE_LENGTHS))]
            for _ in range(SIZES[size]["probes"])]


WORKLOADS = {"scan": scan_ops, "products": products_ops, "queries": queries_ops}


def make_inputs(workload: str, seed: int, size: str) -> dict:
    probes = probe_ops(seed, size) if workload == "queries" else []
    return {"ops": WORKLOADS[workload](seed, size), "probes": probes}


# ---------------------------------------------------------------------------
# Running one operation
# ---------------------------------------------------------------------------

def run_op(op: list):
    """Parse the op's texts and call the library; returns the raw answer."""
    kind = op[0]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op[1]))
        return code, out.getvalue()
    if kind == "phi_w":
        return paintbox.phi_w(words.parse_vertex(op[2]), paintbox.Paintbox.parse(op[1]))
    if kind == "phi_tw":
        return semifinite.phi_tw(semifinite.GrowthModel.parse(op[1]),
                                 words.parse_vertex(op[2]))
    if kind == "dim":
        return words.dim(words.ROOT, words.parse_vertex(op[1]))
    if kind == "covers":
        return words.upper_covers(words.parse_vertex(op[1]))
    if kind == "product":
        return qsym.product_F(words.parse_vertex(op[1]), words.parse_vertex(op[2]))
    raise ValueError(f"unknown op kind {kind!r}")


def answer_text(op: list, answer) -> str:
    """Canonical text of an answer; equal answers give equal texts."""
    kind = op[0]
    if kind == "cli":
        code, out = answer
        try:
            data = json.loads(out)
        except ValueError:
            return f"{code}\n{out}"
        if isinstance(data, dict):
            data.pop("elapsed_seconds", None)  # differs from pass to pass
        return f"{code}\n{json.dumps(data, sort_keys=True)}"
    if kind == "covers":
        return " ".join(sorted(str(w) for w in answer))
    if kind == "product":
        return " ".join(f"{v}:{c}" for v, c in
                        sorted(answer.coeffs.items(), key=lambda t: str(t[0])))
    return str(answer)
