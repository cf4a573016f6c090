import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newton_circle import expsum
from newton_circle.arith import golden_ratio_conjugate, torus_distance
from newton_circle.expsum import (
    BLOCK_CELLS,
    FLOAT_TERM_BUDGET,
    PhaseHypothesisError,
    double_sum,
    double_sum_abs,
    sum_integral_gap,
    weyl_sum,
)
from newton_circle.poly import RealPoly2, UniPoly, parse_poly, scale


def brute_weyl(xs, N, K=0):
    total = 0j
    for n in range(K + 1, N + 1):
        phase = sum(float(x) * n ** (i + 1) for i, x in enumerate(xs))
        total += cmath.exp(2j * math.pi * phase)
    return total


def test_weyl_examples():
    assert abs(weyl_sum([Fraction(1, 2)], 4).value) < 1e-12
    assert weyl_sum([0, 0], 9).value == 9
    assert abs(weyl_sum([Fraction(1, 3)], 3).value) < 1e-12


def test_weyl_modes():
    assert weyl_sum([Fraction(1, 3), Fraction(1, 5)], 10).mode == "exact"
    assert weyl_sum([0.3], 10).mode == "float"
    # an exact input still carries trig and summation rounding
    assert weyl_sum([Fraction(1, 3)], 10).error_budget == 10 * FLOAT_TERM_BUDGET


@pytest.mark.parametrize("a, q", [(1, 2), (2, 7), (5, 12), (3, 65537), (12345, 65536),
                                  (7, 2**20 - 3), (2**19 + 1, 2**20)])
def test_complete_period_vanishes(a, q):
    # sum over n <= q of e(a*n/q) is exactly 0 for q > 1 and a coprime to q
    v = weyl_sum((Fraction(a, q),), q)
    assert v.mode == "exact"
    assert abs(v.value) <= v.error_budget


@pytest.mark.parametrize("a, p", [(1, 3), (2, 5), (3, 7), (10, 101), (3, 65537),
                                  (5, 2**20 - 3)])
def test_quadratic_gauss_sum_has_modulus_sqrt_p(a, p):
    # |sum over n <= p of e(a*n^2/p)| = sqrt(p) for an odd prime p not dividing a
    v = weyl_sum((0, Fraction(a, p)), p)
    assert abs(abs(v.value) - math.sqrt(p)) <= v.error_budget


def test_weyl_against_brute_force():
    for xs in ([Fraction(2, 7)], [0.137, 0.71], [Fraction(1, 3), 0.5, Fraction(1, 4)]):
        got = weyl_sum(xs, 30)
        want = brute_weyl(xs, 30)
        assert abs(got.value - want) < 1e-9


def test_weyl_range_parameter():
    full = weyl_sum([Fraction(1, 7)], 20)
    head = weyl_sum([Fraction(1, 7)], 12)
    tail = weyl_sum([Fraction(1, 7)], 20, K=12)
    assert abs(full.value - head.value - tail.value) < 1e-12


def test_weyl_validation():
    with pytest.raises(ValueError):
        weyl_sum([0.1] * 9, 10)
    with pytest.raises(ValueError):
        weyl_sum([0.1], 5, K=5)


def test_geometric_bound_rational_linear_phase(rng):
    # |sum| <= 1/dist(xi, Z) for one-dimensional rational phases
    for _ in range(60):
        q = rng.randint(2, 50)
        a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
        N = rng.randint(1, 10**4)
        value = abs(weyl_sum([Fraction(a, q)], N).value)
        assert value <= 1 / float(torus_distance(Fraction(a, q))) + 1e-9


def test_double_sum_examples():
    zero = scale(parse_poly("m1*m2"), 0)
    assert double_sum(zero, 0, 3, 0, 5).value == 15
    half = scale(parse_poly("m1*m2"), Fraction(1, 2))
    assert abs(double_sum(half, 0, 2, 0, 2).value - 2) < 1e-12
    integer = scale(parse_poly("m1^2*m2 + 3*m1"), 1)
    assert double_sum(integer, 0, 4, 0, 6).value == pytest.approx(24)


def test_double_sum_against_brute_force(rng):
    P = parse_poly("2*m1^2*m2 - m1*m2^3")
    for xi in (Fraction(3, 7), 0.318):
        Q = scale(P, xi)
        got = double_sum(Q, 1, 6, 0, 5).value
        want = 0j
        for m1 in range(2, 7):
            for m2 in range(1, 6):
                want += cmath.exp(2j * math.pi * float(xi) * (2 * m1**2 * m2 - m1 * m2**3))
        assert abs(got - want) < 1e-9


def test_double_sum_conjugation():
    P = parse_poly("m1^2*m2^3 + m1*m2")
    pos = double_sum(scale(P, Fraction(2, 7)), 0, 5, 0, 5).value
    neg = double_sum(scale(P, Fraction(-2, 7)), 0, 5, 0, 5).value
    assert neg == pytest.approx(pos.conjugate(), abs=1e-12)


def test_double_sum_range_additivity():
    Q = scale(parse_poly("m1*m2^2"), Fraction(1, 5))
    whole = double_sum(Q, 0, 9, 0, 4).value
    split = double_sum(Q, 0, 6, 0, 4).value + double_sum(Q, 6, 9, 0, 4).value
    assert abs(whole - split) < 1e-12
    Qf = scale(parse_poly("m1*m2^2"), 0.2137)
    whole = double_sum(Qf, 0, 9, 0, 4).value
    split = double_sum(Qf, 0, 6, 0, 4).value + double_sum(Qf, 6, 9, 0, 4).value
    assert abs(whole - split) < 1e-10


def test_scale_periodicity_exact():
    P = parse_poly("m1^3*m2 + m1*m2^3")
    a = double_sum(scale(P, Fraction(2, 5)), 0, 6, 0, 6).value
    b = double_sum(scale(P, Fraction(2, 5) + 1), 0, 6, 0, 6).value
    assert a == b


def brute_dyadic(coeffs, points):
    """Per-term sum with each phase reduced mod 1 exactly: floats read as dyadic
    rationals, big-integer evaluation, Fraction mod 1, math.fsum."""
    fracs = {g: Fraction(c) for g, c in coeffs.items()}
    L = math.lcm(*(f.denominator for f in fracs.values()))
    ints = {g: f.numerator * (L // f.denominator) for g, f in fracs.items()}
    re, im = [], []
    for m1, m2 in points:
        t = sum(c * m1**g1 * m2**g2 for (g1, g2), c in ints.items())
        angle = 2 * math.pi * float(Fraction(t, L) % 1)
        re.append(math.cos(angle))
        im.append(math.sin(angle))
    return complex(math.fsum(re), math.fsum(im))


def test_float_error_budget_bounds_the_error():
    Q = scale(parse_poly("m1^3*m2^4 + m1*m2"), 0.1234567)
    got = double_sum(Q, 0, 200, 0, 200)
    want = brute_dyadic(Q.terms, [(m1, m2) for m1 in range(1, 201) for m2 in range(1, 201)])
    assert got.mode == "float"
    assert abs(got.value - want) <= got.error_budget
    # 1e-20 has denominator 2**119 > 2**64: the float tail of the wide kernel
    for xs in [(0.1, 0, 0, 0.3141), (0.3, 0, 1e-20)]:
        got = weyl_sum(xs, 5000)
        want = brute_dyadic({(0, i + 1): x for i, x in enumerate(xs)},
                            [(1, n) for n in range(1, 5001)])
        assert abs(got.value - want) <= got.error_budget


def test_wide_denominator_matches_int64_path():
    # L = 7 * 2**61 exceeds 2**53, so the shifted sum takes the uint64
    # wraparound kernel (with a float tail, as L does not divide 2**64) while
    # the unshifted one stays on int64 residues mod L: two algorithms
    Q = scale(parse_poly("m1^2*m2^3 + m1*m2"), Fraction(3, 7))
    k = 3**38
    shifted = RealPoly2({**Q.terms, (0, 0): Fraction(k, 2**61)})
    base = double_sum(Q, 0, 30, 0, 20).value
    got = double_sum(shifted, 0, 30, 0, 20)
    assert got.mode == "exact"
    want = cmath.exp(2j * math.pi * float(Fraction(k, 2**61))) * base
    assert abs(got.value - want) <= 1e-12 * got.term_count


GOLDEN = golden_ratio_conjugate(192)


@pytest.mark.parametrize("k, N", [(8, 3000), (6, 20000)])
def test_golden_weyl_matches_brute_force(k, N):
    # L is a 98-bit Fibonacci number; the float tail stays below 2**-11 of a
    # turn only because each segment of a few hundred n is re-centred
    xs = (GOLDEN,) * k
    got = weyl_sum(xs, N)
    want = brute_dyadic({(0, i + 1): x for i, x in enumerate(xs)},
                        [(1, n) for n in range(1, N + 1)])
    assert got.mode == "exact"
    assert abs(got.value - want) <= N * FLOAT_TERM_BUDGET


def test_golden_double_sum_matches_brute_force():
    # K2 > 0, so every row is Taylor-shifted to its origin
    Q = scale(parse_poly("m1^2*m2^3 + m1*m2"), GOLDEN)
    got = double_sum(Q, 20, 60, 30, 110)
    want = brute_dyadic(Q.terms, [(m1, m2) for m1 in range(21, 61) for m2 in range(31, 111)])
    assert got.mode == "exact"
    assert abs(got.value - want) <= got.term_count * FLOAT_TERM_BUDGET


def test_double_sum_abs_examples():
    zero = scale(parse_poly("m1*m2"), 0)
    assert double_sum_abs(zero, 0, 3, 0, 5) == pytest.approx(15)
    half = scale(parse_poly("m1*m2"), Fraction(1, 2))
    assert double_sum_abs(half, 0, 2, 0, 2, outer_axis=1) == pytest.approx(2)


def test_triangle_domination(rng):
    for _ in range(20):
        P = parse_poly("m1^2*m2 + m1*m2^2")
        xi = Fraction(rng.randint(1, 30), 31)
        Q = scale(P, xi)
        s = abs(double_sum(Q, 0, 6, 0, 7).value)
        assert s <= double_sum_abs(Q, 0, 6, 0, 7, 1) + 1e-10
        assert s <= double_sum_abs(Q, 0, 6, 0, 7, 2) + 1e-10


def test_modulus_within_budget_invariant():
    v = weyl_sum([0.123456], 5000)
    assert abs(v.value) <= v.term_count + v.error_budget


def test_sum_integral_constant_phase():
    assert sum_integral_gap(UniPoly(()), 0, 7.5) == pytest.approx(0.5)


def test_sum_integral_full_periods():
    assert sum_integral_gap(UniPoly((0, Fraction(1, 4))), 0, 8) < 1e-10
    assert sum_integral_gap(UniPoly((0, 0.1)), 0, 10) <= 3.0


def test_sum_integral_quadratic_phase():
    # slowly varying quadratic phase stays under a small absolute constant
    phase = UniPoly((0, 0.001, 0.00001))
    assert sum_integral_gap(phase, 0, 100) <= 3.0


def test_sum_integral_hypothesis_errors():
    with pytest.raises(PhaseHypothesisError):
        sum_integral_gap(UniPoly((0, 2)), 0, 5)  # derivative 2 > 1/2
    with pytest.raises(PhaseHypothesisError):
        sum_integral_gap(UniPoly((0, -0.4, 0, 0.002)), -10, 10)  # non-monotone derivative


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_double_sum_modulus_bound(m1, m2, xi):
    v = double_sum(scale(parse_poly("m1*m2"), xi), 0, m1, 0, m2)
    assert abs(v.value) <= v.term_count + 1e-9


# ---------------------------------------------------------------------------
# The exact-split sum against math.fsum
# ---------------------------------------------------------------------------


def _assert_rows_match_fsum(x, W):
    want = [math.fsum(row) for row in x.tolist()]
    got = expsum._split_sum(x.copy(), W)
    for g, w in zip(got, want):
        assert abs(g - w) <= math.ulp(w)


def _cancelling_rows(n, tiny, seed):
    # n // 2 pairs +-x in random order and one remainder tiny: the exact sum
    # is tiny, far below the split sum's lo rounding
    r = np.random.default_rng(seed)
    half = r.uniform(-1.0, 1.0, (2, n // 2))
    x = np.concatenate([half, -half, np.full((2, n - 2 * (n // 2)), tiny)], axis=1)
    return r.permuted(x, axis=1)


@pytest.mark.parametrize("n, tiny", [(1001, 1e-20), (4097, 2.0**-60), (BLOCK_CELLS + 1, 5e-324)])
def test_split_sum_heavy_cancellation(n, tiny):
    x = _cancelling_rows(n, tiny, n)
    assert [math.fsum(row) for row in x.tolist()] == [tiny, tiny]
    _assert_rows_match_fsum(x, n)


def test_split_sum_at_its_bound():
    # the absolute sum is W, and sorted rows add every negative term before
    # any positive one, so the hi partial sums climb to about k*W/2 before
    # they cancel; a larger k would round them
    W, n = 2**15 - 1, BLOCK_CELLS
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (2, n))
    x *= W / np.abs(x).sum(axis=1, keepdims=True) * (1 - 1e-12)
    _assert_rows_match_fsum(np.sort(x, axis=1), W)


def test_split_sum_subnormal_and_zero_rows():
    r = np.random.default_rng(7)
    sub = r.integers(-2**40, 2**40, 1000) * 5e-324          # every term subnormal
    _assert_rows_match_fsum(np.stack([sub, np.abs(sub)]), 1000)
    assert expsum._split_sum(np.zeros((2, 1000)), 1000) == [0.0, 0.0]


@pytest.mark.parametrize("n", [1, 2, 3, 95, 96, 97])
def test_split_sum_short_rows(n):
    # every row length takes the split, down to a single term
    x = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n)) * 3
    _assert_rows_match_fsum(x, 3 * n)


def test_split_sum_of_a_full_residue_block():
    # a block of BLOCK_CELLS residues: counts summing to W, terms count * cos/sin
    r = np.random.default_rng(11)
    W = BLOCK_CELLS
    counts = np.bincount(r.integers(0, 3000, W), minlength=3000)
    counts = counts[counts > 0]
    assert counts.sum() == W
    angle = r.uniform(0.0, 2 * math.pi, counts.size)
    x = np.stack([counts * np.cos(angle), counts * np.sin(angle)])
    _assert_rows_match_fsum(x, W)
    want = complex(math.fsum(x[0].tolist()), math.fsum(x[1].tolist()))
    got = expsum._sum_e(angle, counts, W)
    assert abs(got.real - want.real) <= math.ulp(want.real)
    assert abs(got.imag - want.imag) <= math.ulp(want.imag)
