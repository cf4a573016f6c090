import functools
import itertools
import math
import random
from collections import Counter, namedtuple
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
from newton_circle.expsum import FLOAT_TERM_BUDGET, double_sum, residue_sum
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


def _gauss_per_cell(P, a_over_q):
    """The complete sum with one poly.evaluate per cell, in big integers."""
    a, q = a_over_q.numerator, a_over_q.denominator
    residues = [a * evaluate(P, (r1, r2)) % q for r1 in range(1, q + 1) for r2 in range(1, q + 1)]
    return residue_sum(residues, q) / q**2


def _wide_poly(rng):
    """Up to 6 terms, constant term allowed, m2-degree up to 9, coefficients
    of either sign up to 10**12 in size."""
    exps = rng.sample([(g1, g2) for g1 in range(6) for g2 in range(10)], rng.randint(1, 6))
    return Poly2({e: rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 12)) for e in exps})


def test_gauss_sum_matches_per_cell_oracle():
    rng = random.Random(11)
    cases = []
    for i in range(40):
        P = random_nondegenerate_poly(rng) if i % 2 else _wide_poly(rng)
        q = rng.randint(1, 48)
        cases.append((P, Fraction(rng.choice((-1, 1)) * rng.randint(0, 3 * q), q)))
    P = random_nondegenerate_poly(rng)
    cases += [(P, Fraction(0)), (P, Fraction(5, 1)), (Poly2.zero(), Fraction(0)),
              (Poly2.zero(), Fraction(3, 7)), (P, Fraction(101, 400)),
              (_wide_poly(rng), Fraction(-7, 397)), (parse_poly("m2^9 - 4"), Fraction(3, 256))]
    for P, frac in cases:
        assert gauss_sum(P, frac) == _gauss_per_cell(P, frac), (P.terms, frac)


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


def _suite_gauss_polys():
    """The six polynomials whose dyadic envelopes suite_gauss reports."""
    rng = random.Random(11)
    return [parse_poly("m1^2*m2^3")] + [random_nondegenerate_poly(rng) for _ in range(5)]


def test_prime_powers_factor_q():
    for q in range(1, 600):
        factors = complete._prime_powers(q)
        assert math.prod(pk for _, pk in factors) == q
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        for p, pk in factors:
            assert all(p % d for d in range(2, p))  # p is prime
            assert pk == p ** round(math.log(pk, p)) and (q // pk) % p


@pytest.mark.parametrize("index", range(6))
def test_sweep_product_matches_direct_composite_table(index):
    # the second algorithm: one q x q histogram and DFT per q, prime power or not
    P = _suite_gauss_polys()[index]
    qs = range(2, 129)
    for q, row in zip(qs, gauss_sum_sweep(P, qs)):
        r = np.arange(q)
        spectrum = np.abs(np.fft.fft(complete._residue_histogram(P, q, r, r))) / q**2
        units = np.gcd(r, q) == 1
        # every factor is at most 1, so the product is off by at most the
        # sum of the factors' errors
        tol = fft_tolerance(q) + sum(fft_tolerance(pk) for _, pk in complete._prime_powers(q))
        assert abs(row["max_abs_G"] - spectrum[units].max()) <= tol, q
        assert row["a_count"] == sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def _is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


@pytest.fixture
def histogram_moduli(monkeypatch):
    """Record the modulus of every _residue_histogram call."""
    moduli, build = [], complete._residue_histogram

    def spy(P, n, xs1, xs2):
        moduli.append(n)
        return build(P, n, xs1, xs2)

    monkeypatch.setattr(complete, "_residue_histogram", spy)
    return moduli


def test_sweep_builds_each_prime_power_table_once(histogram_moduli):
    gauss_sum_sweep(parse_poly("m1^2*m2^3"), [12, 1, 36, 7, 200, 49, 128, 9, 250])
    assert sorted(histogram_moduli) == [2, 3, 4, 7, 8, 9, 25, 49, 125, 128]
    histogram_moduli.clear()
    gauss_sum_sweep(parse_poly("m1*m2 + m2^2"), range(1, 130))
    assert sorted(histogram_moduli) == [n for n in range(2, 130) if _is_prime_power(n)]


def test_dyadic_envelope_sweeps_once(monkeypatch, histogram_moduli):
    P = parse_poly("m1^2*m2^3")
    starts = (8, 16, 32, 64)
    want = [max(r["max_abs_G"] for r in gauss_sum_sweep(P, range(Q, 2 * Q + 1))) for Q in starts]
    sweep, calls = complete.gauss_sum_sweep, []

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(complete, "gauss_sum_sweep", counted)
    histogram_moduli.clear()
    rows = dyadic_envelope(P, starts)
    assert len(calls) == 1
    assert len(histogram_moduli) == len(set(histogram_moduli))
    assert rows == [{"Q": Q, "envelope": e} for Q, e in zip(starts, want)]


def test_criterion_04b_value_at_36_by_direct_path():
    # the envelope step that breaks 04b, computed without the CRT product:
    # gauss_sum evaluates every cell of the 36 x 36 box in Python integers
    P = parse_poly("m1^2*m2^3")
    direct = max(abs(gauss_sum(P, Fraction(a, 36))) for a in _units(36))
    assert abs(direct - 5 / 12) <= FLOAT_TERM_BUDGET
    (row,) = gauss_sum_sweep(P, [36])
    assert abs(row["max_abs_G"] - direct) <= FLOAT_TERM_BUDGET
    assert row["a_count"] == len(_units(36))


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


def _pairs_by_fallback(op, a, wa, b, wb, s, N):
    """Every pair row op(a[i], b[j]) reduced by _sort_reduce, as before packing."""
    rows = op(a[:, None, :], b[None, :, :]).reshape(-1, a.shape[1])
    return complete._sort_reduce(rows, np.multiply.outer(wa, wb).ravel(), s, N)


def _counts_by_fallback(s, k, N):
    x = np.arange(1, N + 1, dtype=np.int64)
    base = np.stack([x**i for i in range(1, k + 1)], axis=1)
    keys, weights = base, np.ones(N, dtype=np.int64)
    for _ in range(s - 1):
        keys, weights = _pairs_by_fallback(np.add, keys, weights, base, np.ones(N, dtype=np.int64), s, N)
    return keys, weights


Tables = namedtuple("Tables", "keys weights want got fell_back")


@functools.lru_cache(maxsize=1)
def _tables(s, k, N):
    """The s-fold sums (keys, weights) and difference table (want) by the
    reference, and the difference table _pair_reduce gives (got), with whether
    it called _sort_reduce.  The last call is cached, so the reference for the
    lexsort corner (1, 3, 1100) is built once for the packed-sort check and
    test_table_lexsort_branch, which runs next."""
    keys, weights = _counts_by_fallback(s, k, N)
    want = _pairs_by_fallback(np.subtract, keys, weights, keys, weights, s, N)
    calls = []
    real = complete._sort_reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complete, "_sort_reduce", lambda *args: calls.append(1) or real(*args))
        got = complete._pair_reduce(np.subtract, keys, weights, keys, weights, s, N)
    return Tables(keys, weights, want, got, bool(calls))


@pytest.fixture
def fallback_calls(monkeypatch):
    """Record every _sort_reduce call, to tell which branch _pair_reduce took."""
    calls = []
    real = complete._sort_reduce

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(complete, "_sort_reduce", spy)
    return calls


@pytest.mark.parametrize("s, k, N, packed", [
    (3, 3, 20, True), (3, 2, 20, True), (2, 3, 20, True), (3, 3, 12, True), (2, 2, 9, True),
    (4, 2, 8, True), (5, 3, 5, True), (6, 1, 6, True), (3, 1, 38, True), (1, 2, 50, True),
    (1, 3, 1100, False),  # the radix product passes 2**63: lexsort
])
def test_packed_sort_equals_fallback(fallback_calls, s, k, N, packed):
    keys, weights, (lam, J), got, fell_back = _tables(s, k, N)
    fallback_calls.clear()
    counts = moment_curve_counts.__wrapped__(s, k, N)  # uncached, so the sums run
    assert not fallback_calls  # every s-fold sum on the grid is packed
    assert counts == complete._as_dict(keys, weights)
    assert fell_back != packed
    assert np.array_equal(got[0], lam) and np.array_equal(got[1], J)
    assert got[0].dtype == got[1].dtype == np.int64
    if len(J) < 10**5:  # the corner's dict alone is about 170 MB
        assert vinogradov_table(s, k, N) == complete._as_dict(lam, J)


def test_table_lexsort_branch():
    # the radices (2N+1)(2N^2+1)(2N^3+1) multiply past 2**63 from N = 1024 on,
    # so the columns are lexsorted; for s=1 every x != y gives its own
    # difference (x-y and x+y are recovered from it)
    # the rows are distinct and in lexicographic order, which negation
    # reverses, so the table is symmetric exactly when -lam reversed is lam;
    # runs right after the corner of test_packed_sort_equals_fallback, whose
    # reference table _tables still holds
    N = 1100
    lam, J = complete._difference_table(1, 3, N)
    assert len(lam) == N * (N - 1) + 1
    assert J[~lam.any(axis=1)].tolist() == [N]
    assert J.sum() == N * N
    assert np.array_equal(lam[::-1], -lam)
    assert np.array_equal(J[::-1], J)
    assert not lam.flags.writeable and not J.flags.writeable
    want = _tables(1, 3, N).want
    assert np.array_equal(lam, want[0]) and np.array_equal(J, want[1])


def test_packing_guard_exact_threshold(monkeypatch, fallback_calls):
    # radices 2*2*5**i + 1 are 21 and 101; the largest weight product is
    # max(c)**2; the packed value needs span << bits below the int64 limit
    s, k, N = 2, 2, 5
    keys, weights = _counts_by_fallback(s, k, N)
    want = _pairs_by_fallback(np.subtract, keys, weights, keys, weights, s, N)
    bits = (int(weights.max()) ** 2).bit_length()
    edge = 21 * 101 << bits
    for limit, packed in ((edge, False), (edge + 1, True)):
        monkeypatch.setattr(complete, "INT64_LIMIT", limit)
        fallback_calls.clear()
        got = complete._pair_reduce(np.subtract, keys, weights, keys, weights, s, N)
        assert bool(fallback_calls) != packed
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_packing_at_the_real_int64_edge(fallback_calls):
    # s = 1, k = 3: unit weights (bits = 1), so packing fits while the radix
    # product (2N+1)(2N^2+1)(2N^3+1) stays below 2**62; the top packed codes
    # then come within a factor 2 of 2**63, where an overflow would show
    def span(N):
        return (2 * N + 1) * (2 * N**2 + 1) * (2 * N**3 + 1)

    N = max(n for n in range(800, 1000) if span(n) << 1 < 2**63)
    for n, packed in ((N, True), (N + 1, False)):
        x = np.arange(1, n + 1, dtype=np.int64)
        u, c = np.stack([x, x**2, x**3], axis=1), np.ones(n, dtype=np.int64)
        want = _pairs_by_fallback(np.subtract, u, c, u, c, 1, n)
        fallback_calls.clear()
        got = complete._pair_reduce(np.subtract, u, c, u, c, 1, n)
        assert bool(fallback_calls) != packed
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_table_caches_keep_their_cache_info():
    # the benchmark worker reads cache_info() of both in every mode
    for fn in (moment_curve_counts, vinogradov_table):
        info = fn.cache_info()
        assert info.maxsize is not None and info.hits >= 0


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
    monkeypatch.setattr(complete, "_pair_reduce", _no_tables)
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
