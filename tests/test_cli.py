"""Command-line surface.

Core claims:
    - every subcommand produces deterministic, parseable output
    - JSON output round-trips through the library parsers
    - graph prints the same text, json and dot as a reference that
      sorts each vertex's covers by their strings, empty ideals included,
      and a planted fault in the placement step breaks that and the
      coideal-identities suite
    - a reader that closes the output early leaves the exit code as the
      command decided it, with nothing on stderr
    - exit codes are 0 on success, 1 on verification failure, 2 on
      usage and parse errors, --opt=-- included, and a level at which a
      suite cannot pass
    - render works out the size of its picture exactly, before drawing
      it, and refuses one above the cap with exit 2; covers does the
      same for its listing, in both directions, and graph for its
      listing in each format, before the walk when its vertices alone
      pass the cap
    - eval prints exact values past the 4,300 digits that CPython's str
      of an int allows
"""

import json
import time
from decimal import Decimal

import pytest

from word_oracle import enumerate_level
from zigzag_harmonics import (ROOT, BinaryWord, GrowthModel, Paintbox, level, member,
                              member_J, parse_template, parse_vertex, phi_tw, phi_w,
                              upper_covers, words_below)
from zigzag_harmonics import cli, render, templates, verify
from zigzag_harmonics.cli import main
from zigzag_harmonics.qsym import DEGREE_CAP, fexpansion_from_json
from zigzag_harmonics.verify import SUITES, SuiteReport

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
             else phi_tw(GrowthModel.parse(text), W(word)).value)
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
    started = time.perf_counter()
    code, out, err = run(capsys, "graph", "--level", "21", *restriction, "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error:") and "above cap" in err
    assert time.perf_counter() - started < 1.0


@pytest.fixture
def infinite_clusters_take_two(monkeypatch):
    """A planted step fault: every infinite cluster refuses its third symbol.

    The example templates keep their compiled steps, so they are dropped
    before and after; a template parsed from text compiles afresh.
    """
    real = templates._table
    monkeypatch.setattr(templates, "_table", lambda bits, mults: real(
        bits, [2 if mult is None else mult for mult in mults]))
    kept = [model.template for model in verify.EXAMPLE_MODELS.values()]

    def forget():
        for t in kept:
            object.__setattr__(t, "_placement", None)

    forget()
    yield
    forget()


def test_a_planted_step_fault_fails_coideal_identities_and_the_graph(
        capsys, infinite_clusters_take_two):
    report = verify.run_suite("coideal-identities", level=8)
    assert not report.ok
    assert "capped split fails at +++-" in report.lines
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


def test_inject_exits_0_or_2_on_every_word_to_10_symbols(capsys, monkeypatch):
    # one parser serves every call: building it is most of a call's time
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
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
