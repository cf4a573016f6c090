import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from newton_circle import complete
from newton_circle.complete import (
    WorkCapExceeded,
    averaged_partial,
    dyadic_envelope,
    gauss_sum,
    gauss_sum_sweep,
    moment_curve_counts,
    moment_identity_gap,
    partial_gauss,
    vinogradov_count,
    vinogradov_diagonal,
    vinogradov_table,
)
from newton_circle.cli import run_command
from newton_circle.expsum import FLOAT_TERM_BUDGET, double_sum
from newton_circle.poly import Poly2, evaluate, parse_poly, scale
from newton_circle.suites import random_nondegenerate_poly


def test_gauss_examples():
    assert gauss_sum(parse_poly("m1*m2"), Fraction(1, 3)) == pytest.approx(1 / 3)
    assert gauss_sum(parse_poly("m1^2*m2 - m2"), Fraction(0, 1)) == 1
    assert gauss_sum(parse_poly("m1^2*m2^3"), Fraction(1, 2)) == pytest.approx(1 / 2)


def test_partial_gauss_examples():
    P = parse_poly("m1*m2")
    assert partial_gauss(P, Fraction(0, 1), 5, 1) == 1
    assert partial_gauss(P, Fraction(1, 3), 3, 1) == pytest.approx(1)
    assert abs(partial_gauss(P, Fraction(1, 3), 1, 1)) < 1e-12


def test_averaged_partial_examples():
    P = parse_poly("m1*m2")
    assert averaged_partial(P, Fraction(1, 3), 3, 1) == pytest.approx(1 / 3)
    assert averaged_partial(P, Fraction(0, 1), 7, 1) == pytest.approx(1)
    assert averaged_partial(P, Fraction(1, 3), 6, 1) == pytest.approx(1 / 3)


def test_gauss_modulus_and_periodicity(rng):
    P = parse_poly("m1^2*m2^3 + 2*m1*m2")
    for _ in range(20):
        q = rng.randint(1, 30)
        a = rng.choice([a for a in range(q) if math.gcd(a, q) == 1] or [0])
        g = gauss_sum(P, Fraction(a, q))
        assert abs(g) <= 1 + 1e-12
        shifted = gauss_sum(P, Fraction(a % q, q))
        assert g == pytest.approx(shifted)


def test_gauss_equals_double_sum(rng):
    P = parse_poly("m1^2*m2^3")
    for q in (1, 2, 3, 5, 8, 12, 24):
        a = 1 if q > 1 else 0
        lhs = gauss_sum(P, Fraction(a, q)) * q * q
        rhs = double_sum(scale(P, Fraction(a, q)), 0, q, 0, q).value
        assert lhs == pytest.approx(rhs, abs=1e-10 * q * q)


def test_sweep_agrees_with_direct(rng):
    P = parse_poly("2*m1*m2 - m2^4")
    rows = gauss_sum_sweep(P, range(1, 25))
    for row in rows:
        q = row["q"]
        direct = max(
            abs(gauss_sum(P, Fraction(a, q)))
            for a in range(q) if math.gcd(a, q) == 1
        )
        assert row["max_abs_G"] == pytest.approx(direct, abs=1e-10)
        expected_count = 1 if q == 1 else sum(1 for a in range(1, q) if math.gcd(a, q) == 1)
        assert row["a_count"] == expected_count


def fft_tolerance(q):
    """Bound on the rounding of one normalised DFT entry q**-2 * sum_t h[t] e(a*t/q).

    The standard FFT bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 24) puts the 2-norm error of a length-q FFT at
    c * log2(q) * u times the 2-norm of the output, sqrt(q) * |h|_2 <=
    sqrt(q) * q**2.  Higham's radix-2 constant is about 7; c = 32 leaves room
    for the mixed-radix and Bluestein paths of numpy's FFT.
    """
    return 32 * max(1.0, math.log2(q)) * math.sqrt(q) * 2.0**-53


def _units(q):
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def test_residue_histogram_matches_direct_evaluation(rng):
    polys = [random_nondegenerate_poly(rng) for _ in range(5)] + [Poly2.zero()]
    for P in polys:
        n = rng.randint(1, 40)
        xs1, xs2 = range(3, 4 + rng.randint(0, 12)), range(rng.randint(0, 50), 60)
        want = Counter(evaluate(P, (m1, m2)) % n for m1 in xs1 for m2 in xs2)
        got = complete._residue_histogram(P, n, xs1, xs2)
        assert got.tolist() == [want[t] for t in range(n)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_dft_matches_gauss_sum_at_every_unit(seed):
    P = random_nondegenerate_poly(random.Random(seed))
    qs = (2, 3, 4, 5, 8, 9, 12, 16, 25, 27, 36, 48)
    for q, row in zip(qs, gauss_sum_sweep(P, qs)):
        tol = fft_tolerance(q) + FLOAT_TERM_BUDGET  # the DFT's rounding and gauss_sum's
        r = np.arange(q)
        spectrum = np.fft.fft(complete._residue_histogram(P, q, r, r)) / q**2
        direct = {a: gauss_sum(P, Fraction(a, q)) for a in _units(q)}
        for a, g in direct.items():
            # fft sums h[t] * e(-a*t/q); h is real, so that is conj(q**2 * G(a/q))
            assert abs(spectrum[a].conjugate() - g) <= tol
        assert row["a_count"] == len(direct)
        assert abs(row["max_abs_G"] - max(map(abs, direct.values()))) <= tol


def test_sweep_quadratic_gauss_sum_closed_form():
    # the m2 sum is p, and |sum_r e(a*r^2/p)| = sqrt(p) for an odd prime p
    # not dividing a (Berndt-Evans-Williams), so every unit gives p**-1/2
    primes = (3, 5, 7, 11, 13, 101, 257, 397)
    for p, row in zip(primes, gauss_sum_sweep(parse_poly("m1^2"), primes)):
        assert row["a_count"] == p - 1
        assert abs(row["max_abs_G"] - p**-0.5) <= fft_tolerance(p)


def test_sweep_bilinear_closed_form():
    # for a unit a the sum over r2 of e(a*r1*r2/q) is q when q | r1, else 0
    qs = range(2, 400)
    for q, row in zip(qs, gauss_sum_sweep(parse_poly("m1*m2"), qs)):
        assert abs(row["max_abs_G"] - 1 / q) <= fft_tolerance(q)


def test_moment_counts_base_cases():
    counts = moment_curve_counts(1, 2, 5)
    assert counts == {(x, x * x): 1 for x in range(1, 6)}
    assert sum(moment_curve_counts(3, 2, 4).values()) == 4**3


def test_count_examples():
    assert vinogradov_count(1, 2, 5, (0, 0)).count == 5
    assert vinogradov_count(2, 2, 3, (0, 0)).count == 15
    for lam in range(-8, 9):
        assert vinogradov_count(1, 1, 9, (lam,)).count == max(0, 9 - abs(lam))


def test_count_brute_force_small():
    # full enumeration over [N]^4 for the two-equation system
    N, s, k = 5, 2, 2
    table = {}
    for x1 in range(1, N + 1):
        for x2 in range(1, N + 1):
            for y1 in range(1, N + 1):
                for y2 in range(1, N + 1):
                    key = (x1 + x2 - y1 - y2, x1**2 + x2**2 - y1**2 - y2**2)
                    table[key] = table.get(key, 0) + 1
    assert table == vinogradov_table(s, k, N)


def test_count_brute_force_cubic():
    # full enumeration over [N]^4 for the three-equation system
    N = 4
    table = {}
    for x1, x2, y1, y2 in itertools.product(range(1, N + 1), repeat=4):
        key = tuple(x1**i + x2**i - y1**i - y2**i for i in (1, 2, 3))
        table[key] = table.get(key, 0) + 1
    assert table == vinogradov_table(2, 3, N)


def test_moment_counts_brute_force():
    N = 5
    counts = {}
    for xs in itertools.product(range(1, N + 1), repeat=3):
        key = tuple(sum(x**i for x in xs) for i in (1, 2, 3))
        counts[key] = counts.get(key, 0) + 1
    assert counts == moment_curve_counts(3, 3, N)


def test_table_lexsort_branch():
    # the radices (2N+1)(2N^2+1)(2N^3+1) multiply past 2**63 from N = 1024 on,
    # so the columns are lexsorted; for s=1 every x != y gives its own
    # difference (x-y and x+y are recovered from it)
    N = 1100
    table = vinogradov_table(1, 3, N)
    assert len(table) == N * (N - 1) + 1
    assert table[(0, 0, 0)] == N
    assert sum(table.values()) == N * N
    assert all(table[tuple(-x for x in lam)] == c for lam, c in table.items())


def test_diagonal_formula():
    for N in range(2, 30):
        assert vinogradov_diagonal(2, 2, N) == 2 * N * N - N


def test_table_cache_holds_one_dict():
    # each dict is a large copy of the cached difference arrays, so only the
    # latest one stays cached; an evicted table is rebuilt equal
    first = vinogradov_table(2, 2, 7)
    second = vinogradov_table(2, 3, 6)
    assert vinogradov_table.cache_info().currsize <= 1
    for (s, k, N), table in (((2, 2, 7), first), ((2, 3, 6), second)):
        assert sum(table.values()) == N ** (2 * s)
        assert table[(0,) * k] == vinogradov_diagonal(s, k, N)
        assert table == vinogradov_table(s, k, N)


def test_table_invariants():
    for s, k, N in [(2, 2, 9), (3, 2, 6), (2, 3, 5)]:
        table = vinogradov_table(s, k, N)
        diag = table[(0,) * k]
        assert sum(table.values()) == N ** (2 * s)
        assert all(table[lam] == table[tuple(-x for x in lam)] for lam in table)
        assert all(v <= diag for v in table.values())
        assert diag >= N**s
        assert all(
            abs(lam[i]) <= s * N ** (i + 1) for lam in table for i in range(k)
        )


def test_count_outside_support_is_zero():
    assert vinogradov_count(2, 2, 5, (100, 0)).count == 0


def test_work_cap():
    with pytest.raises(WorkCapExceeded):
        vinogradov_count(6, 3, 200, (0, 0, 0), work_cap=10**4)


def _no_tables(*args):
    raise AssertionError("a count table was built before the overflow guard ran")


@pytest.mark.parametrize("call", [
    lambda: vinogradov_table(6, 1, 1500),  # counts up to 1500**12
    lambda: moment_identity_gap(6, 1, 1500, [0.25]),
    lambda: vinogradov_count(1, 3, 3 * 10**6, (0, 0, 0)),  # coordinates 2.7e19
], ids=["table", "identity_gap", "count_coordinates"])
def test_int64_overflow_guard(monkeypatch, call):
    monkeypatch.setattr(complete, "WORK_CAP_CELLS", 10**60)
    monkeypatch.setattr(complete, "moment_curve_counts", _no_tables)
    monkeypatch.setattr(complete, "_sort_reduce", _no_tables)
    with pytest.raises(WorkCapExceeded, match="int64"):
        call()


def test_gauss_sweep_work_cap(tmp_path, capsys):
    with pytest.raises(WorkCapExceeded):
        gauss_sum_sweep(parse_poly("m1*m2"), [20000])
    code = run_command(["gauss", "--poly", "m1*m2", "--qmax", "20000",
                        "--json", str(tmp_path / "out.json")])
    assert code == 1
    assert "20000 x 20000 residue table" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_moment_identity_examples():
    assert moment_identity_gap(2, 2, 6, [Fraction(0), Fraction(0)]) == 0.0
    for xi in (0.21, 0.73):
        gap = moment_identity_gap(1, 1, 16, [xi])
        assert gap <= 1e-9 * 16**2
    gap = moment_identity_gap(2, 2, 8, [0.511, 0.207])
    assert gap <= 1e-8 * 8**4


def test_envelope_row_shape():
    rows = dyadic_envelope(parse_poly("m1*m2"), (2, 4))
    assert [r["Q"] for r in rows] == [2, 4]
    assert all(0 <= r["envelope"] <= 1 for r in rows)


def test_fitted_decay_exponent_is_positive():
    from newton_circle.complete import fitted_decay_exponent

    # decay exists for non-degenerate polynomials; the rate is only reported
    d_hat = fitted_decay_exponent(parse_poly("m1^2*m2^3"), q_max=100)
    assert 0.1 < d_hat < 2.5
    d_mixed = fitted_decay_exponent(parse_poly("m1*m2"), q_max=100)
    assert d_mixed > 0.5
