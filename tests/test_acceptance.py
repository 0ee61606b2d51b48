"""Acceptance gate: the eleven exit criteria at their stated caps.

Every check is exact rational arithmetic with tolerance zero.  Each
test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts both the verdict and the stated runtime ceiling.

Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

import time

from zigzag_harmonics.verify import SuiteReport, run_suite

ROMAN_BUDGETS_SECONDS = {
    1: 60,    # one-box products, 255 words
    2: 1,     # closed-form path counts
    3: 120,   # evaluator agreement, 20 random interval tuples
    4: 300,   # paintbox harmonicity and support, 10 random paintboxes
    5: 120,   # coideal identities to level 11
    6: 120,   # injection embedding to level 10
    7: 300,   # semifinite trichotomy and harmonicity to level 10
    8: 60,    # approximating sequence certificates
    9: 180,   # eps-limit constancy, levels to 9
    10: 300,  # ring identity
    11: 60,   # distinctness of growth models
}


def _run(number: int, name: str, **kwargs) -> SuiteReport:
    budget = ROMAN_BUDGETS_SECONDS[number]
    started = time.time()
    report = run_suite(name, **kwargs)
    elapsed = time.time() - started
    verdict = "PASS" if report.ok else "FAIL"
    print(f"criterion {number:2d} [{name}] {verdict} "
          f"({elapsed:.1f}s, budget {budget}s)")
    if not report.ok:
        for line in report.lines:
            print(f"    {line}")
    assert report.ok, f"criterion {number} ({name}) failed: {report.lines}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"
    return report


def test_criterion_01_pieri_rule():
    _run(1, "pieri", level=7)


def test_criterion_02_path_count_closed_form():
    _run(2, "path-counts", level=6)


def test_criterion_03_kerov_oracle_equivalence():
    _run(3, "kerov-oracle", level=7)


def test_criterion_04_finite_harmonicity_and_support():
    _run(4, "finite-harmonicity", level=10)


def test_criterion_05_coideal_identities():
    _run(5, "coideal-identities", level=11)


def test_criterion_06_injection_embedding():
    _run(6, "injection", level=10)


def test_criterion_07_semifinite_trichotomy_and_harmonicity():
    _run(7, "semifinite", level=10)


def test_criterion_08_approximating_sequence():
    _run(8, "approx-sequence", level=6)


def test_criterion_09_eps_limit():
    # constancy of the valuation and of the leading-coefficient ratio;
    # the step model measures n = 1 and ratio 2 (the splitting oracle
    # counts two minimal splittings through the paired eps-intervals)
    report = _run(9, "eps-limit", level=9)
    step_line = next(l for l in report.lines if l.startswith("step:"))
    assert "n=1" in step_line and "const=2" in step_line


def test_criterion_10_ring_identity():
    _run(10, "ring-identity", degree=9)


def test_criterion_11_distinctness():
    _run(11, "distinctness", level=10)
