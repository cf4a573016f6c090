import math
from fractions import Fraction

from hypothesis import given, strategies as st

from newton_circle.arith import dirichlet_approx, golden_ratio_conjugate


def test_dirichlet_exact_hit():
    assert dirichlet_approx(0.5, 10) == Fraction(1, 2)


def test_dirichlet_pi_fraction():
    xi = math.pi - 3
    frac = dirichlet_approx(xi, 10)
    assert frac == Fraction(1, 7)
    assert abs(xi - float(frac)) <= 1 / (7 * 10)


def test_dirichlet_low_resolution():
    assert dirichlet_approx(Fraction(1, 3), 2) == Fraction(0, 1)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=997),
       st.integers(min_value=1, max_value=300))
def test_dirichlet_bound_exact_for_rationals(x, Q):
    frac = dirichlet_approx(x, Q)
    q = frac.denominator
    assert 1 <= q <= Q
    assert abs(x - frac) * q * Q <= 1


@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.integers(min_value=1, max_value=1000))
def test_dirichlet_bound_floats(x, Q):
    frac = dirichlet_approx(x, Q)
    assert 1 <= frac.denominator <= Q
    assert abs(Fraction(x) - frac) * frac.denominator * Q <= 1


def test_dirichlet_negative_input():
    frac = dirichlet_approx(-math.pi + 3, 10)
    assert frac == Fraction(-1, 7)
    frac = dirichlet_approx(-0.5, 6)
    assert frac == Fraction(-1, 2)


def test_dirichlet_deep_expansion():
    # 192-bit golden ratio: the answer is the 68th convergent F_67/F_68
    x = golden_ratio_conjugate(192)
    Q = 10**14
    frac = dirichlet_approx(x, Q)
    assert frac == Fraction(44945570212853, 72723460248141)
    assert abs(x - frac) * frac.denominator * Q <= 1


def test_golden_ratio_conjugate_precision():
    g = golden_ratio_conjugate(128)
    exact = (math.sqrt(5) - 1) / 2
    assert abs(float(g) - exact) < 1e-15
    # quadratic-irrational identity: g^2 + g - 1 = 0 up to the approximation
    assert abs(g * g + g - 1) < Fraction(1, 2**100)
