"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria run through the named suites at full strength (the CLI `verify`
command runs the same code).  Two sub-assertions are genuinely false and are
kept as honest failures rather than weakened; see notes/decisions.md at the
repository root for the counterexample analysis:

  * the dyadic max-|G| envelope for m1^2*m2^3 rises from 3/8 (q in [16,32])
    to 5/12 (q=36 in [32,64]), so "nonincreasing in Q" fails at one step;
  * the partial-approximation error decays like q/M2' in envelope but dips
    to near zero whenever the averaging block aligns with q, so pointwise
    "decreasing within 10% per step" under doubling fails (q=7, 10).
"""

import pytest

from newton_circle import suites


def _run(criterion: str, label: str, checks, keep=None):
    rows = [c for c in checks if keep is None or keep(c.name)]
    ok = all(c.passed for c in rows)
    print(f"ACCEPTANCE {criterion} {label}: {'PASS' if ok else 'FAIL'}")
    for c in rows:
        flag = "ok " if c.passed else "FAIL"
        print(f"    [{flag}] {c.name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g} "
              f"tol={c.tolerance:.2g}")
    assert ok, f"criterion {criterion} violated: " + "; ".join(
        c.name for c in rows if not c.passed)


def test_criterion_01_moment_identity():
    _run("01", "moment identity, 100 random frequencies, rel 1e-8, exact at 0",
         suites.suite_moment())


def test_criterion_02_solution_counts():
    _run("02", "pair counts vs brute force and formula, table invariants",
         suites.suite_counts())


def test_criterion_03_newton_diagram_oracles():
    _run("03", "hull vs direction-witness oracle, cover/disjoint, exact gap bound",
         suites.suite_newton())


@pytest.fixture(scope="module")
def gauss_checks():
    return suites.suite_gauss()


def test_criterion_04_complete_sum_identity_and_tail(gauss_checks):
    _run("04a", "q^2 G(a/q) equals exact double sum; envelope tail <= 0.6",
         gauss_checks,
         keep=lambda n: not n.startswith("dyadic_envelope_nonincreasing"))


def test_criterion_04_envelope_monotone(gauss_checks):
    # honest red: false for m1^2*m2^3 at Q=16 -> 32 (3/8 then 5/12 at q=36);
    # kept as specified, not weakened -- see notes/decisions.md
    _run("04b", "dyadic envelope nonincreasing across Q in {8,...,128}",
         gauss_checks,
         keep=lambda n: n.startswith("dyadic_envelope_nonincreasing"))


def test_criterion_05_equidistribution_probe():
    _run("05", "golden-ratio probe: tail < 0.05 and decay factor >= 4",
         suites.suite_equidistribution())


def test_criterion_06_degenerate_factorization():
    _run("06", "separable two-path gap < 1e-12, mixed negative control > 0.01",
         suites.suite_factorization())


def test_criterion_07_arithmetic_denominator_sets():
    _run("07", "denominator-set properties for rho in {1/2, 1/4}, l <= 3",
         suites.suite_iw())


def test_criterion_08_oscillation_seminorms():
    _run("08", "500 random families: axioms, splitting, variation, block majorant",
         suites.suite_osc())


def test_criterion_09_multiplier_symmetries():
    _run("09", "normalization, bound, periodicity, conjugation on 1000-point grid",
         suites.suite_multiplier())


@pytest.fixture(scope="module")
def approx_checks():
    return suites.suite_approx()


def test_criterion_10_partial_approx_ratio(approx_checks):
    _run("10a", "partial-approximation measured/budget ratio <= 50 on the grid",
         approx_checks, keep=lambda n: n == "partial_approx_ratio_cap")


def test_criterion_10_partial_approx_step_decrease(approx_checks):
    # honest red: alignment dips break pointwise monotonicity; the envelope
    # ratio (<= 50, measured 0.67) carries the substance -- see notes/decisions.md
    _run("10b", "measured error decreasing within 10% per doubling step",
         approx_checks, keep=lambda n: n == "partial_approx_decreases_under_doubling")
