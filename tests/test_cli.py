"""Command-line surface.

Core claims:
    - every subcommand produces deterministic, parseable output
    - JSON output round-trips through the library parsers
    - graph prints the same text, json and dot as a reference that
      sorts each vertex's covers by their strings, empty ideals included,
      and a planted fault in the placement step breaks that and the
      coideal-identities suite, its scan and its certificate; with
      --ideal the walk keeps only the words below a listed one, and
      lists exactly the finite words of the full walk
    - a reader that closes the output early leaves the exit code as the
      command decided it, with nothing on stderr
    - exit codes are 0 on success, 1 on verification failure, 2 on
      usage and parse errors, --opt=-- included, and a level at which a
      suite cannot pass; by property test over the argv of every
      subcommand but verify, with words of up to 12 symbols, and on
      words of 600 symbols, drawn and one per command, only limit exits
      1 and nothing escapes main; dim refuses a word above 20 symbols
      with exit 2 by its length, before any work, whatever the
      recursion limit
    - error messages quote the word they name, the one-box word ''
      included
    - render works out the size of its picture exactly, before drawing
      it, and refuses one above the cap with exit 2; covers does the
      same for its listing, in both directions, and graph for its
      listing in each format, before the walk when its vertices alone
      pass the cap
    - eval prints exact values past the 4,300 digits that CPython's str
      of an int allows
    - a length or weight in exponent notation exits 2 before any work,
      and one with a zero denominator exits 2 naming its token;
      integers, fractions and plain decimals are read exactly
    - importing the command line in a fresh interpreter loads neither
      dataclasses nor inspect
    - main builds its parser once per process, and a call through the
      shared parser reads the same as through a fresh one, after
      refused, helped and --opt=-- calls and from eight threads at once
"""

import argparse
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from word_oracle import enumerate_level
from template_oracle import alternating_templates
from zigzag_harmonics import (ROOT, BinaryWord, GrowthModel, Paintbox, level, member,
                              member_J, on_locus, parse_template, parse_vertex, phi_tw, phi_w,
                              placement, upper_covers, walk, words_below)
from zigzag_harmonics import cli, render, templates, verify
from zigzag_harmonics.cli import main
from zigzag_harmonics.qsym import DEGREE_CAP, fexpansion_from_json
from zigzag_harmonics.verify import SUITES, SuiteReport
from zigzag_harmonics.words import LEVEL_CAP

W = BinaryWord.from_str


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_render_word(capsys):
    code, out, _ = run(capsys, "render", "--word", "++---+++")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines == ["###", "  #", "  #", "  ####"]
    code, out, _ = run(capsys, "render", "--word", "")
    assert code == 0 and out.strip() == "#"


def test_render_template(capsys):
    code, out, _ = run(capsys, "render", "--template", "+* -1 +1 -*")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines == ["***", "  ##", "   *", "   *"]


def test_render_size_check_counts_every_character(monkeypatch):
    # the arithmetic size admits each picture at its own length, and
    # refuses it one character below
    pictures = [(render.render_vertex, w) for w in words_below(9)]
    pictures += [(render.render_template, parse_template(text)) for text in
                 ("+* -1 +1 -*", "-3 +* -2", "+1 -* +* -1 +*", "-* +4 -1 +* -2")]
    for draw, item in pictures:
        size = len(draw(item))
        monkeypatch.setattr(render, "PICTURE_CAP", size)
        draw(item)
        monkeypatch.setattr(render, "PICTURE_CAP", size - 1)
        with pytest.raises(ValueError, match="above cap"):
            draw(item)
        monkeypatch.undo()


@pytest.mark.parametrize("template, size", [("+1000000 -*", 3_000_005),
                                            ("-1000000 +*", 2_000_003)])
def test_render_draws_large_pictures_within_the_cap(capsys, template, size):
    code, out, _ = run(capsys, "render", "--template", template)
    assert code == 0 and len(out) == size + 1


@pytest.mark.parametrize("argv", [
    ("--template", "+20000 -20000 +*"),          # 400,060,003 characters
    ("--template", "+99999999999999 -*"),
    ("--word", "+" * 2100 + "-" * 2100),          # wide, then tall
])
def test_render_refuses_a_picture_above_the_cap_before_drawing_it(capsys, monkeypatch, argv):
    check = render._check_size

    def check_and_stop(runs):
        check(runs)
        raise AssertionError("an oversized picture passed the size check")

    monkeypatch.setattr(render, "_check_size", check_and_stop)
    started = time.perf_counter()
    code, _, err = run(capsys, "render", *argv)
    assert code == 2 and "above cap" in err and "Traceback" not in err
    assert time.perf_counter() - started < 1.0


def test_render_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "render")
    assert code == 2 and "error" in err


def test_eval_model(capsys):
    model = "+* -1 +1 -* | w=1/2,1/2"
    code, out, _ = run(capsys, "eval", "--model", model, "--word", "++-+--")
    assert (code, out.strip()) == (0, "1/64")
    code, out, _ = run(capsys, "eval", "--model", model, "--word", "++--")
    assert (code, out.strip()) == (0, "inf")
    code, out, _ = run(capsys, "eval", "--model", model, "--word=-++")
    assert (code, out.strip()) == (0, "0")


def test_eval_paintbox(capsys):
    code, out, _ = run(capsys, "eval", "--paintbox", "+1/2,-1/2", "--word", "+-")
    assert code == 0
    assert out.strip() == "1/4"  # 1/8 + 1/8 over the two corner choices


@pytest.mark.parametrize("flag, text, word", [
    ("--paintbox", "+1/3,-2/3", "+" * 4600 + "-" * 4600),
    ("--model", "+* -1 +1 -* | w=1/3,2/3", "+" * 9000 + "-+" + "-" * 9000)],
    ids=["paintbox", "model"])
def test_eval_prints_exact_values_of_any_size(capsys, flag, text, word):
    # values of 5,776 and 11,300 characters, read back through Decimal:
    # int() of such a string is refused too
    code, out, err = run(capsys, "eval", flag, text, "--word", word)
    assert code == 0 and err == ""
    value = (phi_w(W(word), Paintbox.parse(text)) if flag == "--paintbox"
             else phi_tw(GrowthModel.parse(text), W(word)))
    numerator, denominator = out.strip().split("/")
    assert int(Decimal(numerator)) == value.numerator
    assert int(Decimal(denominator)) == value.denominator
    assert len(denominator) > 4300


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--paintbox", "+1/2,-1/3", "--word", "+")
    assert code == 2 and "sum to 1" in err


def test_graph_json_round_trips(capsys):
    code, out, _ = run(capsys, "graph", "--level", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "zigzag-graph/1"
    vertices = [parse_vertex(v) for v in data["vertices"]]
    assert len(vertices) == 1 + 1 + 2 + 4 + 8
    edges = [(parse_vertex(a), parse_vertex(b)) for a, b in data["edges"]]
    from zigzag_harmonics import upper_covers

    for a, b in edges:
        assert b in upper_covers(a)
    # determinism
    _, again, _ = run(capsys, "graph", "--level", "4", "--format", "json")
    assert again == out


def test_graph_ideal_restriction(capsys):
    code, out, _ = run(capsys, "graph", "--level", "5", "--template",
                       "+* -1 +1 -*", "--ideal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    got = {parse_vertex(v) for v in data["vertices"]}
    t = parse_template("+* -1 +1 -*")
    expected = {w for length in range(5) for w in enumerate_level(length)
                if member(t, w) and not member_J(t, w)}
    assert got == expected


def test_graph_template_lists_root_then_the_coideal_in_scan_order(capsys):
    text = "+1 -* +* -1 +*"
    code, out, _ = run(capsys, "graph", "--level", "7", "--template", text,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    t = parse_template(text)
    coideal = [w for length in range(7) for w in enumerate_level(length) if member(t, w)]
    assert data["vertices"] == ["@", *map(str, coideal)]


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "--level", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and '"@" -> ""' in out


def reference_graph(max_level, template_text, ideal, fmt):
    """What ``zigzag graph`` prints, from whole levels and str-keyed sorts."""
    template = parse_template(template_text) if template_text else None
    vertices = [] if ideal else [ROOT]
    vertices += [w for length in range(max_level) for w in enumerate_level(length)
                 if (template is None or member(template, w))
                 and not (ideal and member_J(template, w))]
    vset = set(vertices)
    edges = [(v, u) for v in vertices for u in sorted(upper_covers(v), key=str)
             if u in vset]
    if fmt == "json":
        return json.dumps({"schema": "zigzag-graph/1", "level": max_level,
                           "vertices": [str(v) for v in vertices],
                           "edges": [[str(a), str(b)] for a, b in edges]},
                          indent=2) + "\n"
    if fmt == "dot":
        lines = ["digraph zigzag {", "  rankdir=BT;"]
        lines += [f'  "{v}";' for v in vertices]
        lines += [f'  "{a}" -> "{b}";' for a, b in edges]
        return "\n".join(lines + ["}"]) + "\n"
    lines = [f"level {lvl}: " + " ".join(str(v) for v in vertices if level(v) == lvl)
             for lvl in sorted({level(v) for v in vertices})]
    return "\n".join(lines + [f"{len(vertices)} vertices, {len(edges)} edges"]) + "\n"


@pytest.mark.parametrize("restriction", [(), ("--template", "+1 -* +* -1 +*"),
                                         ("--template", "+1 -* +* -1 +*", "--ideal"),
                                         ("--template", "+* -1 +1 -*"),
                                         ("--template", "+* -1 +1 -*", "--ideal"),
                                         ("--template", "-1 +* -* +1 -* +* -* +1"),
                                         ("--template", "-1 +* -* +1 -* +* -* +1",
                                          "--ideal")])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_graph_prints_the_reference_output(capsys, restriction, fmt):
    template_text = restriction[1] if restriction else None
    # the bracketed ideal starts at its two generators of 8 symbols
    max_level = 11 if template_text == "-1 +* -* +1 -* +* -* +1" else 9
    code, out, _ = run(capsys, "graph", "--level", str(max_level), *restriction,
                       "--format", fmt)
    assert code == 0
    assert out == reference_graph(max_level, template_text, "--ideal" in restriction, fmt)


@pytest.mark.parametrize("template_text", ["+1 -* +* -1 +*", "+* -1 +1 -*",
                                           "-1 +* -* +1 -* +* -* +1"])
@pytest.mark.parametrize("max_level", [0, 1])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_an_empty_ideal_prints_the_reference_output(capsys, template_text, max_level, fmt):
    # the empty word lies on every blow-up locus, so both levels list nothing
    code, out, _ = run(capsys, "graph", "--level", str(max_level), "--template",
                       template_text, "--ideal", "--format", fmt)
    assert code == 0
    assert out == reference_graph(max_level, template_text, True, fmt)
    if fmt == "json":
        assert '"vertices": [],' in out and '"edges": []' in out


@pytest.mark.parametrize("restriction", [(), ("--template", "+1 -* +* -1 +*"),
                                         ("--template", "+1 -* +* -1 +*", "--ideal")])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_graph_size_check_counts_every_character(capsys, monkeypatch, restriction, fmt):
    # the counted size admits each listing at its own length, and refuses
    # it one character below
    for max_level in range(8):
        argv = ("graph", "--level", str(max_level), *restriction, "--format", fmt)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, "PICTURE_CAP", len(out))
        assert run(capsys, *argv)[:2] == (0, out)
        monkeypatch.setattr(cli, "PICTURE_CAP", len(out) - 1)
        code, _, err = run(capsys, *argv)
        assert code == 2 and "above cap" in err, argv
        monkeypatch.undo()


def test_graph_text_counts_its_edges_without_listing_them():
    vertices, edges, count = cli._graph_data(9, None, False)
    assert edges == [] and count == len(cli._graph_data(9, None, False, "json")[1]) == 2049


def test_graph_lists_up_to_the_cap_and_refuses_past_it(capsys):
    # CI's largest listing, 1,905,933 characters, and untemplated JSON
    # at the same level, 6,217,845
    text = "-1 +* -* +1 -* +* -* +1"
    code, out, _ = run(capsys, "graph", "--level", "14", "--template", text, "--format", "json")
    assert code == 0 and len(out) == 1_905_933
    started = time.perf_counter()
    code, out, err = run(capsys, "graph", "--level", "14", "--format", "json")
    assert code == 2 and out == "" and "above cap" in err and "Traceback" not in err
    assert time.perf_counter() - started < 1.0


# 21 alternating infinite clusters fit every word of up to 20 symbols
ALL_WORDS = " ".join(("+*", "-*")[i % 2] for i in range(21))


@pytest.mark.parametrize("restriction", [(), ("--template", ALL_WORDS)])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_graph_refuses_level_21_before_the_walk(capsys, monkeypatch, restriction, fmt):
    # 2,097,152 vertices and 20,971,521 edges
    def named(w):
        raise AssertionError("a vertex was named past the size check")

    monkeypatch.setattr(cli, "str", named, raising=False)
    monkeypatch.setattr(cli, "key_str", named)
    started = time.perf_counter()
    code, out, err = run(capsys, "graph", "--level", "21", *restriction, "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error:") and "above cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.fixture
def infinite_clusters_take_two(monkeypatch):
    """A planted step fault: every infinite cluster refuses its third symbol.

    The example templates keep their placement automata, and the example
    models their weighted automata, which step those; both are dropped
    before and after, so that no compile outlives the fault.  A template
    parsed from text compiles afresh.
    """
    real = templates._table
    monkeypatch.setattr(templates, "_table", lambda bits, mults: real(
        bits, [2 if mult is None else mult for mult in mults]))
    kept = list(verify.EXAMPLE_MODELS.values())

    def forget():
        for model in kept:
            object.__setattr__(model.template, "_placement", None)
            object.__setattr__(model, "_automaton", None)

    forget()
    yield
    forget()


def _ideal_walk(max_level, template_text):
    """graph --ideal's listed words, and every word its walk reached."""
    walked, real = [], cli.walk_levels

    def recording(*args):
        for length, layer in real(*args):
            walked.extend(str(BinaryWord(length, bits)) for bits, _ in layer)
            yield length, layer

    cli.walk_levels = recording
    try:
        vertices, _, _ = cli._graph_data(max_level, template_text, True)
    finally:
        cli.walk_levels = real
    return [name for _, name in vertices], walked


@settings(max_examples=80, deadline=None)
@given(alternating_templates(), st.integers(0, 11))
def test_the_trimmed_ideal_walk_lists_the_finite_words_of_the_full_walk(t, max_level):
    listed, walked = _ideal_walk(max_level, str(t))
    assert listed == [str(w) for w, at in walk(max_level, *placement(t)) if not on_locus(at)]
    # the walk reaches exactly the prefixes of the listed words
    assert set(walked) == {name[:k] for name in listed for k in range(len(name) + 1)}


def test_the_trimmed_ideal_walk_at_level_14():
    # words of the full walk, of the trimmed walk, and listed; at level 21
    # the last template's walk goes from 863,819 words to 218,349 for 167,960
    sizes = {}
    for text in ("+* -1 +1 -*", "+1 -* +* -1 +*", "-1 +* -* +1 -* +* -* +1",
                 "+1 -* +* -* +* -* +* -* +* -1 +*"):
        listed, walked = _ideal_walk(14, text)
        full = list(walk(14, *placement(parse_template(text))))
        sizes[text] = (len(full), len(walked), len(listed))
    assert list(sizes.values()) == [(183, 102, 78), (755, 299, 286), (6343, 1057, 378),
                                    (15627, 1508, 715)]


def test_a_planted_step_fault_fails_coideal_identities_and_the_graph(
        capsys, infinite_clusters_take_two):
    report = verify.run_suite("coideal-identities", level=8)
    assert not report.ok
    assert "capped split fails at +++-" in report.lines
    # the certificate reads the same product states as the scan
    assert not any("certified at every level" in line for line in report.lines)
    assert report.lines[-1].startswith("not certified: ")
    assert "break an identity" in report.lines[-1]
    text = "+* -1 +1 -*"
    code, out, _ = run(capsys, "graph", "--level", "5", "--template", text, "--format", "text")
    assert code == 0
    assert out != reference_graph(5, text, False, "text")
    assert "++++" not in out.split()  # +2 then +1 take three


def test_covers(capsys):
    code, out, _ = run(capsys, "covers", "--word", "+")
    assert code == 0 and out.split() == ["++", "+-", "-+"]
    code, out, _ = run(capsys, "covers", "--word", "++", "--down")
    assert code == 0 and out.split() == ["+"]


def test_covers_size_check_counts_every_character(capsys, monkeypatch):
    # the arithmetic size admits each listing at its own length, and
    # refuses it one character below
    for w in words_below(6):
        for flags in ((), ("--down",)):
            code, out, _ = run(capsys, "covers", f"--word={w}", *flags)
            assert code == 0
            monkeypatch.setattr(cli, "PICTURE_CAP", len(out))
            assert run(capsys, "covers", f"--word={w}", *flags)[:2] == (0, out)
            monkeypatch.setattr(cli, "PICTURE_CAP", len(out) - 1)
            code, _, err = run(capsys, "covers", f"--word={w}", *flags)
            assert code == 2 and "above cap" in err, (w, flags)
            monkeypatch.undo()


@pytest.mark.parametrize("flags", [(), ("--down",)])
def test_covers_lists_a_long_word_within_the_cap(capsys, flags):
    code, out, _ = run(capsys, "covers", "--word", "+-" * 500, *flags)
    lines = out.splitlines()
    assert code == 0 and len(lines) == (1002 if not flags else 1000)
    assert all(len(line) == (1001 if not flags else 999) for line in lines)


@pytest.mark.parametrize("flags", [(), ("--down",)])
def test_covers_refuses_a_listing_above_the_cap_before_building_it(capsys, monkeypatch, flags):
    # 2,500 symbols list about 6,250,000 characters either way
    def build(v):
        raise AssertionError("an oversized listing passed the size check")

    monkeypatch.setattr(cli, "upper_covers", build)
    monkeypatch.setattr(cli, "lower_covers", build)
    started = time.perf_counter()
    code, out, err = run(capsys, "covers", "--word", "+-" * 1250, *flags)
    assert code == 2 and out == "" and err.startswith("error:") and "above cap" in err
    assert "Traceback" not in err
    assert time.perf_counter() - started < 1.0


def test_the_word_of_two_minuses_is_read_as_given(capsys):
    # argparse before Python 3.13 reads --word=-- as an empty list, which
    # answered for the one-box word instead
    code, out, _ = run(capsys, "covers", "--word=--")
    assert code == 0 and out.split() == sorted(str(c) for c in upper_covers(W("--")))
    for lower, upper in (("--", "+--"), ("-", "--")):
        code, out, _ = run(capsys, "dim", f"--word={lower}", f"--to={upper}")
        assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "product", "--word=+", "--with=--")
    assert code == 0 and all(len(line.split()[1]) == 4 for line in out.splitlines())


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--word", "@", "--to", "+-")
    assert (code, out.strip()) == (0, "2")


def test_dim_past_the_recursion_depth_exits_2_with_one_line():
    import subprocess
    import sys

    # words.dim recurses once per deleted symbol; the console script runs
    # at the interpreter's default recursion limit
    proc = subprocess.run(
        [sys.executable, "-m", "zigzag_harmonics.cli", "dim", "--word", "@",
         "--to", "+-" * 300], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: path count to a word of 600 symbols above cap 20\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    import os
    import subprocess
    import sys

    # a fresh interpreter on the source tree, whatever is installed
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zigzag_harmonics.cli; "
         "print(sys.modules['zigzag_harmonics'].__file__); "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.splitlines()
    assert where.startswith(src) and loaded == "[]"


def test_dim_refuses_a_long_word_by_its_length_under_a_raised_recursion_limit(
        capsys, monkeypatch):
    import sys

    def counted(a, b):
        raise AssertionError("a path count started past the cap")

    monkeypatch.setattr(cli, "dim", counted)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    try:
        for upper in ("+-" * 300, "+-" * 16, "-" * 21):
            started = time.perf_counter()
            code, out, err = run(capsys, "dim", "--word", "@", f"--to={upper}")
            assert (code, out) == (2, "") and time.perf_counter() - started < 1.0
            assert err == f"error: path count to a word of {len(upper)} symbols above cap 20\n"
    finally:
        sys.setrecursionlimit(limit)
    monkeypatch.undo()
    # the longest word the cap lets through
    code, out, _ = run(capsys, "dim", "--word", "@", "--to", "+" * 20)
    assert (code, out) == (0, "1\n")


def test_product_json_round_trips(capsys):
    code, out, _ = run(capsys, "product", "--word", "", "--with", "",
                       "--format", "json")
    assert code == 0
    comb = fexpansion_from_json(json.loads(out))
    assert comb.coeffs == {W("+"): 1, W("-"): 1}


def test_product_degree_cap_follows_the_library(capsys):
    # the cap is the library's: 8 + 9 boxes is one above it
    code, _, err = run(capsys, "product", "--word", "+" * 7, "--with=" + "-" * 8)
    assert code == 2 and f"above cap {DEGREE_CAP}" in err


def test_inject(capsys):
    code, out, _ = run(capsys, "inject", "--template", "+* -1 +1 -*",
                       "--word", "++-+--")
    assert (code, out.strip()) == (0, "++ | --")
    code, out, _ = run(capsys, "inject", "--template", "+* -1 +1 -*",
                       "--word=-+")
    assert (code, out.strip()) == (0, "(one box) | (one box)")


def test_an_error_about_the_one_box_word_names_it(capsys):
    # the empty word is quoted, so the message does not start with a blank
    code, out, err = run(capsys, "inject", "--template", "+* -1 +1 -*", "--word=")
    assert (code, out) == (2, "")
    assert err.strip() == "error: '' fits a reduced template of +* -1 +1 -*"
    code, _, err = run(capsys, "inject", "--template", "+1 -*", "--word=++")
    assert (code, err.strip()) == (2, "error: '++' does not fit +1 -*")


def test_inject_exits_0_or_2_on_every_word_to_10_symbols(capsys):
    for text in ("+* -1 +1 -*", "+1 -* +* -1 +*", "-1 +* -* +1 -* +* -* +1",
                 "-2 +* -* +1 -* +* -1 +2"):
        t = parse_template(text)
        for w in words_below(11):
            code, out, err = run(capsys, "inject", "--template", text, f"--word={w}")
            finite = member(t, w) and not member_J(t, w)
            assert code == (0 if finite else 2), (text, w)
            assert bool(out) == finite and bool(err) != finite, (text, w)


def test_limit(capsys):
    code, out, _ = run(capsys, "limit", "--model", "+* -1 +1 -* | w=1/2,1/2",
                       "--level", "7")
    assert code == 0
    assert "n=1" in out and "const=2" in out and "ok=True" in out


def test_limit_level_above_enumeration_cap_exits_2_before_scanning(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "limit", "--model", "+* -1 +1 -* | w=1/2,1/2",
                       "--level", "30")
    assert code == 2 and "enumeration cap" in err
    assert time.perf_counter() - started < 1.0


def test_limit_level_below_a_huge_marker_word_exits_2_before_building_it(capsys):
    # the marker word would have 10^8 symbols; its level is read off the
    # multiplicities
    started = time.perf_counter()
    code, _, err = run(capsys, "limit", "--model",
                       "+100000000 -* +* -1 +* | w=1/2,1/3,1/6", "--level", "9")
    assert code == 2 and "below the marker level 100000005" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    ("eval", "--paintbox", "+1e2000000", "--word", "+"),
    ("eval", "--paintbox", "+1e20000000", "--word", "+"),
    ("eval", "--paintbox", "+1/2,-5E-1", "--word", "+"),
    ("eval", "--model", "+* -1 +1 -* | w=1e2000000,1", "--word", "+"),
    ("limit", "--model", "+* -1 +1 -* | w=1e-2000000,1", "--level", "9")])
def test_exponent_notation_in_a_length_or_weight_exits_2_before_any_work(capsys, argv):
    # Fraction would build 10^e first, for seconds
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert "exponent notation" in err and "Traceback" not in err
    assert time.perf_counter() - started < 1.0


def test_lengths_and_weights_take_integers_fractions_and_plain_decimals(capsys):
    assert run(capsys, "eval", "--paintbox", "+0.5,-1/2", "--word", "+-")[:2] == (0, "1/4\n")
    assert run(capsys, "eval", "--paintbox", "+1", "--word", "++")[:2] == (0, "1\n")
    for weights in ("0.25,3/4", "1/4,0.75"):
        code, out, _ = run(capsys, "eval", "--model", f"+* -1 +1 -* | w={weights}",
                           "--word", "+-+")
        assert (code, out) == (0, "3/64\n")


@pytest.mark.parametrize("option", ["--paintbox=+1/0", "--model=+* -1 +1 -* | w=1/0,1"])
def test_a_zero_denominator_exits_2_naming_its_token(capsys, option):
    code, out, err = run(capsys, "eval", "--word", "+", option)
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")


@pytest.mark.parametrize("argv", [("pieri", "--level", "15"),
                                  ("ring-identity", "--degree", "17"),
                                  ("semifinite", "--level", "22"),
                                  ("coideal-identities", "--level", "21")])
def test_verify_rejects_caps_before_any_work(capsys, argv):
    started = time.perf_counter()
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2 and "above cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    # values outside a suite's accepted range
    ("verify", "pieri", "--level", "-3"),
    ("verify", "injection", "--level", "-4"),
    ("verify", "ring-identity", "--degree", "2"),
    ("verify", "approx-sequence", "--level", "0"),
    ("verify", "path-counts", "--level", "200"),
    ("verify", "injection", "--level", "22"),
    # flags the suite does not read
    ("verify", "pieri", "--degree", "5"),
    ("verify", "pieri", "--seed", "9"),
    ("verify", "ring-identity", "--level", "5"),
    ("graph", "--level", "22"),
    # below the marker word of the bracketed model
    ("verify", "eps-limit", "--level", "8"),
])
def test_bad_input_exits_2_at_once(capsys, argv):
    started = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    ("render", "--template=--"),
    ("inject", "--template=--", "--word=+"),
    ("eval", "--word=+", "--model=--"),
    ("eval", "--word=+", "--paintbox=--"),
    ("limit", "--model=--", "--level", "9"),
    ("graph", "--level", "2", "--template=--"),
])
def test_a_string_option_given_as_dashes_is_parsed_as_dashes(capsys, argv):
    # argparse before Python 3.13 reads --opt=-- as an empty list; "--"
    # is no template, model or paintbox
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [("verify", "pieri", "--level=--"),
                                  ("graph", "--level=--"),
                                  ("graph", "--level", "2", "--format=--")])
def test_an_option_that_takes_no_string_refuses_dashes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: argument --") and err.rstrip().endswith("invalid value '--'")


@pytest.mark.parametrize("suite, lowest", [("distinctness", 9), ("coideal-identities", 8)])
def test_a_suite_refuses_the_levels_at_which_it_cannot_pass(capsys, suite, lowest):
    code, _, err = run(capsys, "verify", suite, "--level", str(lowest - 1))
    assert code == 2 and f"{suite} --level {lowest - 1} below {lowest}" in err
    code, out, _ = run(capsys, "verify", suite, "--level", str(lowest))
    assert code == 0 and "PASS" in out


def test_eps_limit_rejects_a_level_below_every_marker_word_before_any_work(capsys):
    code, _, err = run(capsys, "verify", "eps-limit", "--level", "8")
    assert code == 2 and "eps-limit --level 8 below 9" in err


def test_every_registered_suite_is_the_module_function_of_its_name():
    # the benchmark tracer finds suites by identity in the module namespace
    for fn in SUITES.values():
        assert getattr(verify, fn.__name__) is fn


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "path-counts", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "zigzag-verify/1" and data["ok"]


def test_verify_suite_failure_exits_1(capsys, monkeypatch):
    def stub(level=None, degree=None, seed=None):
        return SuiteReport("path-counts", False, ["forced failure"], 0.0)

    monkeypatch.setitem(SUITES, "path-counts", stub)
    code, out, _ = run(capsys, "verify", "path-counts")
    assert code == 1 and "FAIL" in out


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "zigzag_harmonics.cli", "eval",
         "--model", "+* -1 +1 -* | w=1/2,1/2", "--word=-+"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "1/4"


def test_a_reader_that_stops_early_leaves_exit_0_and_no_traceback():
    import subprocess
    import sys

    # about 1.2 MB of output: far more than a pipe holds, so the writer
    # is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "zigzag_harmonics.cli", "graph", "--level", "12",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert stderr == b""


def test_verify_is_deterministic_for_a_fixed_seed(capsys):
    def content(result):
        code, out, _ = result
        data = json.loads(out)
        data.pop("elapsed_seconds")  # wall time is not part of the contract
        return code, data

    first = run(capsys, "verify", "kerov-oracle", "--seed", "42",
                "--level", "4", "--format", "json")
    second = run(capsys, "verify", "kerov-oracle", "--seed", "42",
                 "--level", "4", "--format", "json")
    assert content(first) == content(second)


# -- the exit contract over drawn argv ---------------------------------------

FUZZ_TEMPLATES = ("+* -1 +1 -*", "+1 -* +* -1 +*", "-1 +* -* +1 -* +* -* +1", "+*",
                  "+1 -1", "+* +*", "+0 -*", "x", "", "--")
FUZZ_MODELS = (*(str(m) for m in verify.EXAMPLE_MODELS.values()), "+* -1 +1 -* | w=1/2",
               "+* -* | w=1/2,1/2", "+* -1 +* | w=1/2,1/2", "+1 -* | w=2", "+*", "--", "")
FUZZ_PAINTBOXES = ("+1/3,-2/3", "+1/3,-1/6,+1/2", "-1", "+1/2,-1/3", "+1e9", "--", "")
LONG_WORDS = ("+-" * 300, "+" * 600, "-" * 300 + "+" * 300)
# each suite's flag and cap as the registry declares them; one above the
# cap must exit 2 before any work
VERIFY_CAPS = {"pieri": ("level", DEGREE_CAP - 2), "path-counts": ("level", LEVEL_CAP + 1),
               "kerov-oracle": ("level", LEVEL_CAP), "finite-harmonicity": ("level", LEVEL_CAP),
               "coideal-identities": ("level", LEVEL_CAP), "injection": ("level", LEVEL_CAP + 1),
               "semifinite": ("level", LEVEL_CAP + 1),
               "approx-sequence": ("level", LEVEL_CAP + 1), "eps-limit": ("level", LEVEL_CAP + 1),
               "ring-identity": ("degree", DEGREE_CAP), "distinctness": ("level", LEVEL_CAP + 1)}


def outcome(argv):
    """main's exit code, argparse's included, and what it wrote to stdout
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing or answering the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def exit_of(argv):
    """main's exit code, argparse's included, and what it wrote to stderr."""
    code, _, err = outcome(argv)
    return code, err


def argv_for(command, word, other, draw):
    """An argv of the command, its words and choices drawn by ``draw``."""
    pick = lambda options: draw(st.sampled_from(options))
    if command == "render":
        return pick([["render", f"--word={word}"], ["render", f"--template={pick(FUZZ_TEMPLATES)}"],
                     ["render"]])
    if command == "eval":
        flag = pick([f"--model={pick(FUZZ_MODELS)}", f"--paintbox={pick(FUZZ_PAINTBOXES)}"])
        return ["eval", f"--word={word}", flag]
    if command == "covers":
        return ["covers", f"--word={word}", *pick([[], ["--down"]])]
    if command == "dim":
        return ["dim", f"--word={other}", f"--to={word}"]
    if command == "product":
        return ["product", f"--word={other}", f"--with={word}",
                *pick([[], ["--format=json"]])]
    if command == "inject":
        return ["inject", f"--template={pick(FUZZ_TEMPLATES)}", f"--word={word}"]
    if command == "graph":
        return ["graph", f"--level={draw(st.integers(-1, 6))}",
                *pick([[], [f"--template={pick(FUZZ_TEMPLATES)}"],
                       [f"--template={pick(FUZZ_TEMPLATES)}", "--ideal"], ["--ideal"]]),
                f"--format={pick(['text', 'json', 'dot', 'csv'])}"]
    if command == "verify":
        suite = pick(sorted(VERIFY_CAPS))
        flag, cap = VERIFY_CAPS[suite]
        value = draw(st.one_of(st.integers(-1, 6), st.just(cap + 1)))
        return ["verify", suite, f"--{pick([flag, 'level', 'degree'])}={value}",
                *pick([[], [f"--seed={draw(st.integers(-1, 3))}"]])]
    return ["limit", f"--model={pick(FUZZ_MODELS)}", f"--level={draw(st.integers(-1, 10))}"]


COMMANDS = ("render", "eval", "covers", "dim", "product", "inject", "graph", "limit", "verify")
# the words of 600 symbols too: dim refuses one by its length, whatever
# the recursion limit, which hypothesis raises by 2,000 frames
WORDS = st.one_of(st.text("+-", max_size=12),
                  st.sampled_from(("@", "x", "+ -", "--", *LONG_WORDS)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(COMMANDS), WORDS, WORDS, st.data())
def test_every_drawn_argv_keeps_the_exit_contract(command, word, other, data):
    argv = argv_for(command, word, other, data.draw)
    code, err = exit_of(argv)
    assert code in ((0, 1, 2) if command in ("limit", "verify") else (0, 2)), argv
    if code == 2:
        assert err.startswith(("error:", "usage:")) and "Traceback" not in err, (argv, err)
    else:
        assert err == "", argv


def test_the_drawn_verify_caps_are_the_registry_caps():
    assert sorted(VERIFY_CAPS) == sorted(SUITES)
    for suite, (flag, cap) in VERIFY_CAPS.items():
        with pytest.raises(ValueError, match=f"^{suite} --{flag} {cap + 1} above cap {cap}$"):
            verify.run_suite(suite, **{flag: cap + 1})


# -- one parser serves every call in the process ------------------------------

GOOD_CALLS = {
    ("covers", "--word", "+"): (0, "++\n+-\n-+\n", ""),
    ("eval", "--model", "+* -1 +1 -* | w=1/2,1/2", "--word=-+"): (0, "1/4\n", ""),
    ("graph", "--level", "2"): (0, "level 0: @\nlevel 1: \nlevel 2: + -\n"
                                   "4 vertices, 3 edges\n", ""),
    ("inject", "--template", "+* -1 +1 -*", "--word=-+"): (0, "(one box) | (one box)\n", ""),
    ("dim", "--word", "@", "--to", "+-+"): (0, "5\n", ""),
}


def test_the_shared_parser_keeps_no_state_between_calls():
    cli._build_parser.cache_clear()
    first = {argv: outcome(list(argv)) for argv in GOOD_CALLS}
    # options that the good calls leave at their defaults
    assert outcome(["covers", "--word=+-", "--down"]) == (0, "+\n-\n", "")
    assert outcome(["eval", "--paintbox=+1/2,-1/2", "--word", "+-"]) == (0, "1/4\n", "")
    assert outcome(["graph", "--level", "1", "--format", "dot"])[0] == 0
    code, out, err = outcome(["verify", "nosuch"])
    assert (code, out) == (2, "") and "invalid choice: 'nosuch'" in err
    code, out, err = outcome(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: zigzag")
    assert outcome(["--help"]) == (code, out, err)
    assert outcome(["verify", "path-counts", "--level=--"]) == (
        2, "", "error: argument --level: invalid value '--'\n")
    assert outcome(["inject", "--template", "+* -1 +1 -*", "--word=--"]) == (
        2, "", "error: '--' fits a reduced template of +* -1 +1 -*\n")
    code, out, _ = outcome(["verify", "path-counts", "--level", "3"])
    assert code == 0 and "PASS path-counts" in out
    assert first == {argv: outcome(list(argv)) for argv in GOOD_CALLS} == GOOD_CALLS


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._build_parser.cache_clear()
    for argv in [*GOOD_CALLS, ("verify", "nosuch"), ("--help",), *GOOD_CALLS]:
        outcome(list(argv))
    # the parser and a subparser per command, each built once
    assert built == ["zigzag", *(f"zigzag {command}" for command in cli._HANDLERS)]


def test_the_shared_parser_is_safe_under_threads():
    # eight threads parse different argv through the one parser at once;
    # each must read what a serial parse reads
    import sys
    from concurrent.futures import ThreadPoolExecutor

    argvs = [list(argv) for argv in GOOD_CALLS] + [
        ["verify", "kerov-oracle", "--level", "4", "--seed", "7", "--format", "json"],
        ["graph", "--level", "3", "--template", "+* -1 +1 -*", "--ideal", "--format=dot"],
        ["product", "--word", "+", "--with=--", "--format", "json"]]
    parser = cli._build_parser()
    serial = [parser.parse_args(argv) for argv in argvs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda argv: [cli._build_parser().parse_args(argv) for _ in range(200)],
                argvs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(argvs) == 8
    assert threaded == [[namespace] * 200 for namespace in serial]


# every command that takes a word, on each long word, beside the draws
@pytest.mark.parametrize("argv", [
    ("render", "--word={}"),
    ("eval", "--word={}", "--model=+* -1 +1 -* | w=1/3,2/3"),
    ("eval", "--word={}", "--paintbox=+1/3,-2/3"),
    ("covers", "--word={}"),
    ("covers", "--word={}", "--down"),
    ("dim", "--word=@", "--to={}"),
    ("dim", "--word=+-", "--to={}"),
    ("product", "--word=+", "--with={}"),
    ("inject", "--template=+* -1 +1 -*", "--word={}"),
], ids=lambda argv: "-".join(a.partition("=")[0].strip("-") for a in argv))
@pytest.mark.parametrize("word", LONG_WORDS, ids=["alternating", "plus", "two-runs"])
def test_a_word_of_600_symbols_keeps_the_exit_contract(argv, word):
    argv = [a.format(word) for a in argv]
    code, err = exit_of(argv)
    assert code in (0, 2), argv[0]
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv[0], err)
    else:
        assert err == "", argv[0]
