import ast
import functools
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from newton_circle import complete, expsum
from newton_circle.complete import (
    WorkCapExceeded,
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


def _gauss_per_cell(P, a_over_q):
    """The complete sum with one poly.evaluate per cell, in big integers."""
    a, q = a_over_q.numerator, a_over_q.denominator
    return _gauss_per_cell_at(P, q, [a])[0]


def _gauss_per_cell_at(P, q, numerators):
    """[G(a/q) for a in numerators], each with one poly.evaluate per cell of
    the q x q box (evaluated once for all a), in big integers: no histogram,
    power table or DFT."""
    values = [evaluate(P, (r1, r2)) for r1 in range(1, q + 1) for r2 in range(1, q + 1)]
    return [residue_sum([a * v % q for v in values], q) / q**2 for a in numerators]


def _wide_poly(rng):
    """Up to 6 terms, constant term allowed, m2-degree up to 9, coefficients
    of either sign up to 10**12 in size."""
    exps = rng.sample([(g1, g2) for g1 in range(6) for g2 in range(10)], rng.randint(1, 6))
    return Poly2({e: rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 12)) for e in exps})


@functools.lru_cache(maxsize=None)
def _per_cell_cases():
    """(P, a/q, the per-cell complete sum) for seeded random and edge inputs."""
    rng = random.Random(11)
    cases = []
    for i in range(40):
        P = random_nondegenerate_poly(rng) if i % 2 else _wide_poly(rng)
        q = rng.randint(1, 48)
        cases.append((P, Fraction(rng.choice((-1, 1)) * rng.randint(0, 3 * q), q)))
    P = random_nondegenerate_poly(rng)
    cases += [(P, Fraction(0)), (P, Fraction(5, 1)), (Poly2({}), Fraction(0)),
              (Poly2({}), Fraction(3, 7)), (P, Fraction(101, 400)),
              (_wide_poly(rng), Fraction(-7, 397)), (parse_poly("m2^9 - 4"), Fraction(3, 256))]
    return [(P, frac, _gauss_per_cell(P, frac)) for P, frac in cases]


def test_gauss_sum_matches_per_cell_oracle():
    for P, frac, want in _per_cell_cases():
        assert gauss_sum(P, frac) == want, (P.terms, frac)


def _partial_per_cell(P, a_over_q, frozen, axis):
    """partial_gauss with one poly.evaluate per residue, in big integers."""
    a, q = a_over_q.numerator, a_over_q.denominator
    cells = [(frozen, r) if axis == 1 else (r, frozen) for r in range(1, q + 1)]
    return residue_sum([a * evaluate(P, m) % q for m in cells], q) / q


@pytest.mark.parametrize("block", [7, 64])
def test_complete_sums_exact_across_block_edges(monkeypatch, block):
    # 7-cell blocks cut every row with q > 7 into column ranges and hold
    # several rows for q <= 3; 64-cell blocks hold several whole rows for
    # q <= 32 and cut the rows of q > 64.  The q x q sums of q >= 256 run at
    # 64-cell blocks only, since at 7 cells each takes 9,000-23,000 blocks
    monkeypatch.setattr(expsum, "BLOCK_CELLS", block)
    rng = random.Random(block)
    for P, frac, want in _per_cell_cases():
        if block == 64 or frac.denominator < 256:
            assert gauss_sum(P, frac) == want, (P.terms, frac)
        frozen = rng.randint(-70, 70)
        for axis in (1, 2):
            assert partial_gauss(P, frac, frozen, axis) == _partial_per_cell(P, frac, frozen, axis)


def test_partial_gauss_huge_frozen_value():
    # the frozen value is reduced mod q before it reaches int64 arrays
    frozen, frac = 10**30 + 2, Fraction(3, 7)
    for P in _suite_gauss_polys() + [parse_poly("m1^64*m2 + m2^64")]:
        for axis in (1, 2):
            assert partial_gauss(P, frac, frozen, axis) == _partial_per_cell(P, frac, frozen, axis)
    for axis in ("1", "2"):
        assert run_command(["gauss", "--poly", "m1^2*m2^3", "--q", "7", "--a", "3",
                            "--frozen", str(frozen), "--axis", axis]) == 0


@pytest.mark.parametrize("q, peak_mib", [(1_000_003, 9), (1_048_583, 2)])
def test_partial_gauss_past_the_bin_cap(q, peak_mib):
    # 5 * 3 * m2**2 over the residues of a prime q: a quadratic Gauss sum,
    # |value| = q**-1/2 in closed form.  Up to HISTOGRAM_BINS residues the
    # row is one histogram (8 MB of bins), past them its row sum, in blocks
    tracemalloc.start()
    try:
        value = partial_gauss(parse_poly("m1*m2^2"), Fraction(5, q), 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(abs(value) * math.sqrt(q) - 1) <= FLOAT_TERM_BUDGET * math.sqrt(q)
    assert peak <= peak_mib * 2**20
    assert run_command(["gauss", "--poly", "m1*m2^2", "--q", str(q), "--a", "5",
                        "--frozen", "3"]) == 0


def _no_histogram(*args):
    raise AssertionError("the work cap must be checked before any work")


def test_complete_sums_work_cap(monkeypatch, capsys):
    monkeypatch.setattr(complete, "_box_histogram", _no_histogram)
    monkeypatch.setattr(complete, "_lattice_phase_sum", _no_histogram)
    P = parse_poly("m1^2*m2^3")
    cap = f"the cap is {complete.WORK_CAP_CELLS} cells"
    start = time.perf_counter()
    with pytest.raises(WorkCapExceeded, match="10007 x 10007"):
        gauss_sum(P, Fraction(1, 10007))
    with pytest.raises(WorkCapExceeded, match=cap):
        partial_gauss(P, Fraction(1, complete.WORK_CAP_CELLS + 1), 1, 1)
    assert run_command(["gauss", "--poly", "m1^2*m2^3", "--q", "10007", "--a", "1"]) == 1
    assert cap in capsys.readouterr().err
    assert time.perf_counter() - start < 1


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
    # both sides run one kernel, the box sum of expsum._lattice_phase_sum, so
    # the second algorithm is the per-cell poly.evaluate oracle (residue_sum)
    P = parse_poly("m1^2*m2^3")
    for q in (1, 2, 3, 5, 8, 12, 24):
        a = 1 if q > 1 else 0
        lhs = gauss_sum(P, Fraction(a, q)) * q * q
        rhs = double_sum(scale(P, Fraction(a, q)), 0, q, 0, q)
        assert lhs == pytest.approx(rhs.value, abs=1e-10 * q * q)
        assert abs(rhs.value - _gauss_per_cell(P, Fraction(a, q)) * q * q) <= rhs.error_budget


def test_sweep_agrees_with_direct(rng):
    P = parse_poly("2*m1*m2 - m2^4")
    rows = gauss_sum_sweep(P, range(1, 25))
    for row in rows:
        q = row["q"]
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        direct = max(map(abs, _gauss_per_cell_at(P, q, units)))
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


def _histogram_cases(rng):
    """(P, a, q, rows, cols) with a of either sign and above q, negative rows,
    rows near 10**30, columns not starting at 1, q = 1 and the zero polynomial."""
    big = 10**30
    polys = [random_nondegenerate_poly(rng) for _ in range(4)] + [_wide_poly(rng) for _ in range(4)]
    cases = []
    for P in polys + [Poly2({})]:
        q = rng.randint(1, 60)
        a = rng.choice((-1, 1)) * rng.randint(0, 3 * q)
        start = rng.randint(-40, 50)
        cases.append((P, a, q, range(-7, 4 + rng.randint(0, 12)), range(start, start + rng.randint(1, 90))))
        cases.append((P, a, q, [big + rng.randint(-5, 5), -big - 3, rng.randint(-99, 99)],
                      range(big - 20, big + rng.randint(1, 40))))
    P = polys[0]
    cases += [(P, 5, 1, range(1, 9), range(1, 9)), (Poly2({}), 3, 1, range(2), range(-3, 3)),
              (Poly2({}), -4, 13, [big], range(1, 14)), (P, -17, 11, range(-30, 30), range(-2, 70))]
    return cases


def test_residue_histogram_matches_direct_evaluation(monkeypatch, rng):
    cases = _histogram_cases(rng)
    wants = [Counter(a * evaluate(P, (m1, m2)) % q for m1 in rows for m2 in cols)
             for P, a, q, rows, cols in cases]
    # 7-cell blocks cut every row into column blocks; 64-cell blocks cut rows
    # longer than 64 and hold several shorter rows
    for block in (expsum.BLOCK_CELLS, 7, 64):
        monkeypatch.setattr(expsum, "BLOCK_CELLS", block)
        for (P, a, q, rows, cols), want in zip(cases, wants):
            got = expsum._box_histogram({g: a * c for g, c in P.terms.items()}, q, rows, cols)
            assert got.dtype == np.int64
            assert got.tolist() == [want[t] for t in range(q)], (block, P.terms, a, q, rows, cols)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_dft_matches_gauss_sum_at_every_unit(seed):
    P = random_nondegenerate_poly(random.Random(seed))
    qs = (2, 3, 4, 5, 8, 9, 12, 16, 25, 27, 36, 48)
    for q, row in zip(qs, gauss_sum_sweep(P, qs)):
        tol = fft_tolerance(q) + FLOAT_TERM_BUDGET  # the DFT's rounding and residue_sum's
        r = range(q)
        spectrum = np.fft.fft(expsum._box_histogram(P.terms, q, r, r)) / q**2
        direct = dict(zip(_units(q), _gauss_per_cell_at(P, q, _units(q))))
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
        r = range(q)
        spectrum = np.abs(np.fft.fft(expsum._box_histogram(P.terms, q, r, r))) / q**2
        units = np.gcd(np.arange(q), q) == 1
        # every factor is at most 1, so the product is off by at most the
        # sum of the factors' errors
        tol = fft_tolerance(q) + sum(fft_tolerance(pk) for _, pk in complete._prime_powers(q))
        assert abs(row["max_abs_G"] - spectrum[units].max()) <= tol, q
        assert row["a_count"] == sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def _is_prime(n):
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def _general_histogram(c, a, b, p):
    r = range(p)
    return expsum._box_histogram({(a, b): c}, p, r, r)


# (a, b, c, top): gcd(a, b, p - 1) > 1 for some p, a = b = 1, a negative c,
# and c = 7 * 11 * 13, which three primes divide; p = 2 is in every range
MONOMIALS = [(2, 3, 1, 1024), (2, 2, 7, 256), (6, 4, 3, 256), (1, 1, 1, 256),
             (2, 3, -5, 256), (2, 3, 7 * 11 * 13, 256)]


@pytest.mark.parametrize("a, b, c, top", MONOMIALS)
def test_monomial_histogram_equals_general_route(monkeypatch, a, b, c, top):
    for p in filter(_is_prime, range(2, top + 1)):
        got = complete._monomial_histogram(c, a, b, p)
        assert got.dtype == np.int64
        assert got.tolist() == _general_histogram(c, a, b, p).tolist(), p
    P, qs = Poly2({(a, b): c}), range(1, 257)
    rows = gauss_sum_sweep(P, qs)
    monkeypatch.setattr(complete, "_monomial_histogram", _general_histogram)
    assert gauss_sum_sweep(P, qs) == rows


@pytest.fixture
def histogram_moduli(monkeypatch):
    """Record the modulus of every table built by either producer: a
    monomial's prime tables come from _monomial_histogram, the rest from
    _box_histogram."""
    moduli = []
    residue, monomial = complete._box_histogram, complete._monomial_histogram

    def residue_spy(terms, q, rows, cols):
        moduli.append(q)
        return residue(terms, q, rows, cols)

    def monomial_spy(c, a, b, p):
        moduli.append(p)
        return monomial(c, a, b, p)

    monkeypatch.setattr(complete, "_box_histogram", residue_spy)
    monkeypatch.setattr(complete, "_monomial_histogram", monomial_spy)
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
    # the envelope step that breaks 04b, computed without the CRT product
    # and without a histogram: one poly.evaluate per cell of the 36 x 36 box
    P = parse_poly("m1^2*m2^3")
    direct = max(map(abs, _gauss_per_cell_at(P, 36, _units(36))))
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


def _mirrored(pos, Jp, J0):
    """The full table from its positive half: rows [-pos reversed; 0; pos]
    with counts [Jp reversed; J0; Jp]."""
    zero = np.zeros((1, pos.shape[1]), dtype=np.int64)
    return np.concatenate([-pos[::-1], zero, pos]), np.concatenate([Jp[::-1], [J0], Jp])


def _positive_rows(pos):
    """Whether every row of pos has a positive first nonzero coordinate."""
    first = pos[np.arange(len(pos)), (pos != 0).argmax(axis=1)]
    return bool((first > 0).all())


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
    reference, and the cached positive half (pos, Jp, J0) that
    complete._difference_table gives (got),
    built here from an empty cache with whether _pair_reduce called
    _sort_reduce.  The last call is cached, so the lexsort corner (1, 3, 1100)
    is built once by the reference and once by the library for the
    packed-sort check and test_table_lexsort_branch, which runs next."""
    keys, weights = _counts_by_fallback(s, k, N)
    want = _pairs_by_fallback(np.subtract, keys, weights, keys, weights, s, N)
    complete._count_arrays(s, k, N)  # built outside the spy
    complete._difference_table.cache_clear()
    calls = []
    real = complete._sort_reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complete, "_sort_reduce", lambda *args: calls.append(1) or real(*args))
        got = complete._difference_table(s, k, N)
    return Tables(keys, weights, want, got, bool(calls))


@pytest.fixture
def fallback_calls(monkeypatch):
    """Record every _sort_reduce call, to tell which branch a pair reduction took."""
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
    (1, 1, 2, True),  # the smallest table: one positive difference
    (1, 3, 1100, False),  # the radix product passes 2**63: lexsort
])
def test_packed_sort_equals_fallback(fallback_calls, s, k, N, packed):
    keys, weights, (lam, J), got, fell_back = _tables(s, k, N)
    fallback_calls.clear()
    arrays = complete._count_arrays.__wrapped__(s, k, N)  # uncached, so the sums run
    assert not fallback_calls  # every s-fold sum on the grid is packed
    for a in (arrays, complete._count_arrays(s, k, N)):
        assert np.array_equal(a[0], keys) and np.array_equal(a[1], weights)
        assert a[0].dtype == a[1].dtype == np.int64
        assert not a[0].flags.writeable and not a[1].flags.writeable
    assert moment_curve_counts(s, k, N) == complete._as_dict(keys, weights)
    assert fell_back != packed
    pos, Jp, J0 = got
    assert pos.dtype == Jp.dtype == np.int64
    assert not pos.flags.writeable and not Jp.flags.writeable
    assert _positive_rows(pos)
    # J is even with J(0) = sum c**2 on the reference over all n**2 pairs, so
    # the positive half mirrored around J0 is the whole table
    zero = len(lam) // 2
    assert np.array_equal(lam[::-1], -lam) and not lam[zero].any()
    assert J[zero] == J0 == int(weights @ weights) == vinogradov_diagonal(s, k, N)
    full = _mirrored(pos, Jp, J0)
    assert np.array_equal(full[0], lam) and np.array_equal(full[1], J)
    if len(J) < 10**5:  # the corner's dict alone is about 170 MB
        assert vinogradov_table(s, k, N) == complete._as_dict(lam, J)


def test_table_lexsort_branch():
    # the radices (2N+1)(2N^2+1)(2N^3+1) multiply past 2**63 from N = 1024 on,
    # so the columns are lexsorted; for s=1 every x != y gives its own
    # difference (x-y and x+y are recovered from it)
    # the rows are distinct and in lexicographic order, which negation
    # reverses, so the table is symmetric exactly when -lam reversed is lam;
    # runs right after the corner of test_packed_sort_equals_fallback, whose
    # reference table _tables still holds, and reads the library table that
    # _tables built into the cache
    N = 1100
    pos, Jp, J0 = complete._difference_table(1, 3, N)
    lam, J = _mirrored(pos, Jp, J0)
    assert len(lam) == N * (N - 1) + 1
    assert J[~lam.any(axis=1)].tolist() == [N] == [J0]
    assert J.sum() == N * N
    assert _positive_rows(pos)
    assert not pos.flags.writeable and not Jp.flags.writeable
    want = _tables(1, 3, N).want
    assert np.array_equal(want[0][::-1], -want[0])
    assert np.array_equal(want[1][::-1], want[1])
    assert np.array_equal(lam, want[0]) and np.array_equal(J, want[1])
    # the fallback's half is exactly the reference's rows after lambda = 0
    zero = len(want[0]) // 2
    assert not want[0][zero].any() and want[1][zero] == J0
    assert np.array_equal(pos, want[0][zero + 1:]) and np.array_equal(Jp, want[1][zero + 1:])


def test_packing_guard_exact_threshold(monkeypatch, fallback_calls):
    # radices 2*2*5**i + 1 are 21 and 101; the largest weight product is
    # max(wa) * max(wb); the packed value needs span << bits below the int64
    # limit.  On both sides of the edge the half route must give the
    # fallback's table over every pair, and a convolution step the
    # reference's count arrays
    s, k, N = 2, 2, 5
    keys, weights = _counts_by_fallback(s, k, N)
    want = _pairs_by_fallback(np.subtract, keys, weights, keys, weights, s, N)
    J0 = vinogradov_diagonal(s, k, N)
    bits = (int(weights.max()) ** 2).bit_length()
    edge = 21 * 101 << bits
    for limit, packed in ((edge, False), (edge + 1, True)):
        monkeypatch.setattr(complete, "INT64_LIMIT", limit)
        fallback_calls.clear()
        pos, Jp = complete._pair_reduce(keys, weights, -keys, weights, np.arange(len(keys)), s, N)
        assert bool(fallback_calls) != packed
        assert _positive_rows(pos)
        got = _mirrored(pos, Jp, J0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # the convolution step of the 2-fold sums: every pair of base points,
    # unit weights (bits = 1), reduced to the reference's count arrays
    x = np.arange(1, N + 1, dtype=np.int64)
    base, ones = np.stack([x, x**2], axis=1), np.ones(N, dtype=np.int64)
    edge = 21 * 101 << 1
    for limit, packed in ((edge, False), (edge + 1, True)):
        monkeypatch.setattr(complete, "INT64_LIMIT", limit)
        fallback_calls.clear()
        got = complete._pair_reduce(base, ones, base, ones, np.full(N, N), s, N)
        assert fallback_calls == ([] if packed else [N * N])
        assert np.array_equal(got[0], keys) and np.array_equal(got[1], weights)


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
        pos, Jp, J0 = complete._difference_table.__wrapped__(1, 3, n)  # uncached
        assert bool(fallback_calls) != packed
        assert _positive_rows(pos) and J0 == n
        got = _mirrored(pos, Jp, J0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_fallback_reduces_only_the_pairs_i_above_j(fallback_calls):
    # (1, 3, 913) is the first s = 1, k = 3 table past packing: the fallback
    # hands _sort_reduce the n(n - 1)/2 pairs i > j, not all n**2, and builds
    # no n**2-row array (the all-pairs fallback peaked at 77.1 MiB)
    n = 913
    complete._count_arrays(1, 3, n)
    tracemalloc.start()
    try:
        pos, Jp, J0 = complete._difference_table.__wrapped__(1, 3, n)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fallback_calls == [n * (n - 1) // 2]
    assert len(pos) == len(Jp) == n * (n - 1) // 2 and J0 == n
    assert peak <= 48 * 2**20


@pytest.mark.parametrize("n, rows, full", [
    (1, 4, False), (2, 4, False),  # no pair and one pair
    (3, 4, False), (4, 4, False),  # below and equal to one band
    (11, 4, False), (12, 4, False),  # past it, with a short last band and without
    (12, 4, True),  # every pair, as a convolution step takes them
], ids=["1-4", "2-4", "3-4", "4-4", "11-4", "12-4", "12-4-rectangle"])
def test_band_build_equals_the_square(monkeypatch, n, rows, full):
    # bands of `rows` rows against the square built whole, np.add.outer of
    # the codes plus np.multiply.outer of the weights, as the packed routes
    # did before bands, masked to the pairs j < i of a difference table
    ends = np.full(n, n) if full else np.arange(n)
    monkeypatch.setattr(complete, "_BAND", rows * max(1, int(ends.max(initial=0))))
    gen = np.random.default_rng(n)
    ca, cb = np.sort(gen.integers(-2**40, 2**40, (2, n))) << 8
    wa, wb = gen.integers(1, 16, (2, n))
    square = np.add.outer(ca, cb) + np.multiply.outer(wa, wb)
    got = complete._pair_codes(ca, wa, cb, wb, ends)
    assert got.dtype == np.int64
    assert np.array_equal(got, square.ravel() if full else square[np.tri(n, k=-1, dtype=bool)])


def test_pair_reduce_frees_the_pairs_before_decoding():
    # the corner's 1.18 M packed pairs (9.0 MiB) are freed before the
    # 474,987 rows (10.9 MiB) are decoded: the reduction peaked at 20.0 MiB
    # of traced allocations, and at 27.7 MiB with the pairs held by name
    # through the decode
    complete._count_arrays(3, 3, 20)
    tracemalloc.start()
    try:
        pos, Jp, J0 = complete._difference_table.__wrapped__(3, 3, 20)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pos) == 474_987
    assert peak <= 22 * 2**20


def test_convolution_builds_no_outer_product():
    # the last step of (6, 3, 24) has 98,280 x 24 = 2.36 M pairs (18.0 MiB
    # packed): written in bands, the build peaked at 31.0 MiB of traced
    # allocations, and at 37.7 MiB with the codes and weights each built
    # as a full n_a x n_b outer product
    tracemalloc.start()
    try:
        keys, weights = complete._count_arrays.__wrapped__(6, 3, 24)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(weights.sum()) == 24**6
    assert peak <= 34 * 2**20


def test_lexsort_fallback_holds_only_the_pair_rows():
    # (1, 3, 1100) reduces its 604,450 pair rows by np.lexsort; the pair
    # indices and the rows -u are dropped before the sort, which peaked at
    # 51.31 MiB of traced allocations, and at 60.6 MiB with them held
    complete._count_arrays(1, 3, 1100)
    tracemalloc.start()
    try:
        pos, Jp, J0 = complete._difference_table.__wrapped__(1, 3, 1100)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pos) == 1100 * 1099 // 2 and J0 == 1100
    assert peak <= 51.31 * 2**20


def test_table_caches_keep_their_cache_info():
    # the benchmark worker reads cache_info() of both in every mode
    for fn in (moment_curve_counts, vinogradov_table):
        info = fn.cache_info()
        assert info.maxsize is not None and info.hits >= 0


def test_diagonal_formula():
    for N in range(2, 30):
        assert vinogradov_diagonal(2, 2, N) == 2 * N * N - N


def test_diagonal_past_int64():
    # an admitted input whose diagonal passes 2**63 while every count fits:
    # an int64 dot of the count weights wraps there, the Python-int sum not
    want = 14293391141802144620
    assert vinogradov_diagonal(6, 1, 60) == want > 2**63
    weights = complete._count_arrays(6, 1, 60)[1]
    assert int(weights @ weights) != want
    assert sum(c * c for c in moment_curve_counts(6, 1, 60).values()) == want


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


def _count_by_dict(s, k, N, lam):
    """vinogradov_count's sum of c(u) * c(u - lam), over the dict of counts."""
    counts = moment_curve_counts(s, k, N)
    return sum(c * counts.get(tuple(a - b for a, b in zip(u, lam)), 0)
               for u, c in counts.items())


@pytest.mark.parametrize("s, k, N, records", [
    (2, 2, 7, False), (3, 3, 6, False), (4, 2, 5, False), (1, 1, 9, False),
    (1, 3, 1100, True),  # (2N+1)(2N^2+1)(2N^3+1) > 2**63: no int64 code
])
def test_count_from_arrays_equals_the_dict_loop(s, k, N, records):
    assert (complete._radix(s, N, k)[2] >= 2**63) == records
    keys = complete._count_arrays(s, k, N)[0]
    top = [s * N**i for i in range(1, k + 1)]
    lams = [tuple(r) for r in (keys[::max(1, len(keys) // 25)] - keys[len(keys) // 3]).tolist()]
    lams += [(0,) * k, tuple(top), tuple(-t for t in top),
             tuple(t + 1 for t in top), tuple(-t - 1 for t in top),  # outside the support
             (top[0] + 1,) + (0,) * (k - 1), (10**30,) * k]
    for lam in lams:
        assert vinogradov_count(s, k, N, lam).count == _count_by_dict(s, k, N, lam), lam


def test_count_from_arrays_past_int64():
    # J(0) = 14293391141802144620 passes 2**63 while every count fits: the
    # products are summed in Python integers
    assert vinogradov_count(6, 1, 60, (0,)).count == vinogradov_diagonal(6, 1, 60) > 2**63


def test_work_cap(monkeypatch):
    # comb(201, 2) = 20100 support cells: under the real cap, over this one
    monkeypatch.setattr(complete, "WORK_CAP_CELLS", 10**4)
    with pytest.raises(WorkCapExceeded, match="cap is 10000"):
        vinogradov_count(2, 2, 200, (0, 0))


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
    monkeypatch.setattr(complete, "_count_arrays", _no_tables)
    monkeypatch.setattr(complete, "_sort_reduce", _no_tables)
    monkeypatch.setattr(complete, "_pair_reduce", _no_tables)
    monkeypatch.setattr(complete, "_pair_codes", _no_tables)
    with pytest.raises(WorkCapExceeded, match="int64"):
        call()


def test_count_arrays_guard_before_any_pair(monkeypatch):
    # the diagonal reads the count arrays, whose own guard runs first:
    # counts up to 1500**6 would overflow int64
    monkeypatch.setattr(complete, "WORK_CAP_CELLS", 10**60)
    monkeypatch.setattr(complete, "_sort_reduce", _no_tables)
    monkeypatch.setattr(complete, "_pair_reduce", _no_tables)
    with pytest.raises(WorkCapExceeded, match="int64"):
        vinogradov_diagonal(6, 1, 1500)


def _cap_raises(node, scope):
    """The enclosing function of every raise of WorkCapExceeded under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _cap_raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "WorkCapExceeded":
                yield scope
        yield from _cap_raises(child, scope)


def test_every_cap_raises_from_check_work():
    # one guard for every cap, so a change of the cap's unit touches one function
    sites = [(path.stem, scope)
             for path in sorted(Path(complete.__file__).parent.glob("*.py"))
             for scope in _cap_raises(ast.parse(path.read_text()), "<module>")]
    assert sites == [("complete", "_check_work")]


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


@pytest.mark.parametrize("s, k, N, xi", [
    (1, 1, 12, [0.37]),
    (2, 2, 9, [0.511, 0.207]),
    (3, 3, 7, [0.9, 0.13, 0.61]),
    (1, 3, 30, [0.123, 0.456, 0.789]),  # axes 2 and 3 outgrow the 871 rows
    (2, 3, 10, [Fraction(1, 3), 0.25, 0.777]),
])
def test_per_axis_phases_equal_the_flat_phase_sum(s, k, N, xi):
    # the flat evaluation: one phase lambda . xi per row of the full
    # mirrored table, reduced mod 1; _table_sum reads the positive half
    pos, Jp, J0 = complete._difference_table(s, k, N)
    lam, J = _mirrored(pos, Jp, J0)
    x = np.array([float(v) for v in xi])
    flat = (J * np.exp(2j * np.pi * ((lam.astype(np.float64) @ x) % 1.0))).sum()
    per_axis = complete._table_sum(s, N, pos, Jp, J0, x.tolist())
    assert abs(per_axis - flat) <= 1e-12 * N ** (2 * s)  # N**(2s) = sum of J
    assert moment_identity_gap(s, k, N, [Fraction(0)] * k) == 0.0


@pytest.mark.parametrize("s, k, N, band", [
    (3, 3, 20, None),  # 474,987 rows: seven bands of the default size
    (1, 3, 300, expsum._E_MIN),  # 44,850 rows, axes 2 and 3 on the column
])
def test_banded_table_sum_is_bit_identical(monkeypatch, s, k, N, band):
    # one band holding the whole table is the single-array evaluation
    pos, Jp, J0 = complete._difference_table(s, k, N)
    xi = [0.3, 0.61, 0.17]
    if band is not None:
        monkeypatch.setattr(complete, "_BAND", band)
    assert len(Jp) > 2 * complete._BAND
    banded = complete._table_sum(s, N, pos, Jp, J0, xi)
    monkeypatch.setattr(complete, "_BAND", len(Jp) + 1)
    assert banded == complete._table_sum(s, N, pos, Jp, J0, xi)


def test_moment_identity_memory_stays_with_the_table():
    # the third axis spans 2 * 300**3 + 1 = 5.4e7 phases against about 9e4
    # rows: a table of it alone would be 864 MB
    tracemalloc.start()
    try:
        gap = moment_identity_gap(1, 3, 300, [0.1234, 0.5678, 0.9012])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert gap <= 1e-9 * 300**2


def test_corner_moment_identity_holds_half_the_table():
    # (3, 3, 20), the moment suite's corner: 949,975 rows.  Built and
    # evaluated from cached count arrays, the whole table peaked at 58.7 MiB
    # of traced allocations and was cached in 30.4 MB; its positive half
    # peaked at 38.0 MiB built as a square, 21.0 MiB built in bands
    complete._count_arrays(3, 3, 20)
    complete._difference_table.cache_clear()
    tracemalloc.start()
    try:
        gap = moment_identity_gap(3, 3, 20, [0.3, 0.61, 0.17])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
    pos, Jp, J0 = complete._difference_table(3, 3, 20)
    assert 2 * len(pos) + 1 == 949_975
    assert pos.nbytes + Jp.nbytes <= 15.2e6
    assert gap <= 1e-8 * 20**6


def test_envelope_row_shape():
    rows = dyadic_envelope(parse_poly("m1*m2"), (2, 4))
    assert [r["Q"] for r in rows] == [2, 4]
    assert all(0 <= r["envelope"] <= 1 for r in rows)


def test_fitted_decay_exponent_is_positive():
    # decay exists for non-degenerate polynomials; the rate is only reported
    d_hat = complete._decay_fit(gauss_sum_sweep(parse_poly("m1^2*m2^3"), range(2, 101)))
    assert 0.1 < d_hat < 2.5
    d_mixed = complete._decay_fit(gauss_sum_sweep(parse_poly("m1*m2"), range(2, 101)))
    assert d_mixed > 0.5
