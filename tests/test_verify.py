"""Negative controls of the suites that check on integer numerators.

Core claims:
    - finite-harmonicity reports a wrong walk numerator as a harmonicity
      and a mass failure, and a wrong non-zero as a support failure
    - kerov-oracle reports a wrong oracle value and a wrong walk numerator
    - eps-limit reports a wrong leading coefficient at one finite point
      as a ratio failure, and a vanishing point of too low a valuation

Each test swaps a name inside ``verify`` or ``semifinite`` for a
wrapper that spoils one value, so it shows that the exact checks can
fail.
"""

from zigzag_harmonics import BinaryWord, semifinite, verify
from zigzag_harmonics.verify import run_suite

W = BinaryWord.from_str


def spoiled_walk(monkeypatch, spoil):
    """Let ``spoil(levels)`` change the walk's numerators in place."""
    real = verify.eval_F_levels

    def walk(u, n):
        denominator, levels = real(u, n)
        spoil(levels)
        return denominator, levels

    monkeypatch.setattr(verify, "eval_F_levels", walk)


def test_a_wrong_walk_numerator_breaks_harmonicity_and_mass(monkeypatch):
    def spoil(levels):
        levels[3][W("-+-").bits] += 1

    spoiled_walk(monkeypatch, spoil)
    report = run_suite("finite-harmonicity", level=6)
    assert not report.ok
    assert "paintbox 0: not harmonic at -+-" in report.lines
    assert any(line.startswith("paintbox 0: mass ") and line.endswith(" at 3 symbols")
               for line in report.lines)


def test_a_non_zero_outside_the_coideal_breaks_support(monkeypatch):
    spoiled = []

    def spoil(levels):
        # the longest words checked for support; the last level holds covers only
        checked = levels[-2]
        bits = checked.index(0)
        checked[bits] = 1
        spoiled.append(BinaryWord(len(levels) - 2, bits))

    spoiled_walk(monkeypatch, spoil)
    report = run_suite("finite-harmonicity", level=8)
    assert not report.ok
    assert f"paintbox 0: support wrong at {spoiled[0]}" in report.lines


def test_a_wrong_oracle_value_fails_kerov_oracle(monkeypatch):
    real = verify.eval_F_coproduct

    def oracle(v, u, memo=None):
        value = real(v, u, memo)
        return value + 1 if v == W("+-") else value

    monkeypatch.setattr(verify, "eval_F_coproduct", oracle)
    report = run_suite("kerov-oracle", level=3)
    assert not report.ok
    assert sum(line.startswith("evaluator mismatch at +- against ")
               for line in report.lines) == 20


def test_a_wrong_walk_numerator_fails_kerov_oracle(monkeypatch):
    def spoil(levels):
        levels[2][W("+-").bits] += 1

    spoiled_walk(monkeypatch, spoil)
    report = run_suite("kerov-oracle", level=3)
    assert not report.ok
    assert sum(line.startswith("level walk mismatch at +- against ")
               for line in report.lines) == 20


def spoiled_expansion(monkeypatch, word, spoil):
    """Let ``spoil(coeffs)`` replace the eps expansion at one word."""
    real = semifinite.eps_expansion

    def expansion(v, w_x):
        coeffs = real(v, w_x)
        return spoil(coeffs) if v == word else coeffs

    monkeypatch.setattr(semifinite, "eps_expansion", expansion)


def test_a_wrong_leading_coefficient_breaks_the_ratio(monkeypatch):
    # ++-+- is a finite point of the step model above its marker word +-+-,
    # and not above the marker words of the other two models
    spoiled_expansion(monkeypatch, W("++-+-"),
                      lambda coeffs: coeffs[:1] + (2 * coeffs[1],) + coeffs[2:])
    report = run_suite("eps-limit", level=9)
    assert not report.ok
    assert "step: ++-+-: ratio 4 != 2" in report.lines
    assert sum(" ratio " in line for line in report.lines) == 1


def test_a_vanishing_point_of_low_valuation_breaks_the_limit(monkeypatch):
    # +--+- fits the step model's deformed template but not the model's own
    spoiled_expansion(monkeypatch, W("+--+-"), lambda coeffs: (0, 1) + coeffs[2:])
    report = run_suite("eps-limit", level=9)
    assert not report.ok
    assert "step: +--+-: vanishing point with valuation 1 <= 1" in report.lines
    assert sum("vanishing point with" in line for line in report.lines) == 1
