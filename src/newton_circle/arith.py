"""Exact rational arithmetic, mod-1 reduction, and rational approximation.

Rationals are plain ``fractions.Fraction`` values, which already enforce the
reduced-form invariant (coprime numerator/denominator, positive denominator).
Float inputs are interpreted as their exact binary values.  Dirichlet
approximation runs the continued-fraction expansion to completion: every
input is an exact rational, so it ends.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Union

RealLike = Union[int, float, Fraction]


class ApproximationError(ValueError):
    """A rational-approximation contract failed; the message names the inequality."""


def as_fraction(x: RealLike) -> Fraction:
    """Exact Fraction for an int, Fraction, or binary-float input."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite real input")
        return Fraction(x)
    raise TypeError(f"expected int, float or Fraction, got {type(x).__name__}")


def is_exact(x: RealLike) -> bool:
    return isinstance(x, (int, Fraction))


def torus_distance(x: RealLike) -> RealLike:
    """Distance from x to the nearest integer, exact for exact inputs."""
    if is_exact(x):
        f = as_fraction(x)
        frac = f - math.floor(f)
        return min(frac, 1 - frac)
    frac = x - math.floor(x)
    return min(frac, 1.0 - frac)


def torus_representative(x: RealLike) -> RealLike:
    """Representative of x mod 1 in [-1/2, 1/2), exact for exact inputs."""
    if is_exact(x):
        f = as_fraction(x)
        return f - math.floor(f + Fraction(1, 2))
    return x - math.floor(x + 0.5)


def convergents(x: Fraction) -> Iterator[Fraction]:
    """Continued-fraction convergents of x, best rational approximations in order."""
    p0, q0 = 1, 0
    p1, q1 = math.floor(x), 1
    yield Fraction(p1, q1)
    rem = x - p1
    while rem != 0:
        x = 1 / rem
        a = math.floor(x)
        rem = x - a
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        yield Fraction(p1, q1)


def dirichlet_approx(xi: RealLike, Q: int) -> Fraction:
    """Reduced a/q with 1 <= q <= Q and |xi - a/q| <= 1/(qQ).

    The answer is the last convergent p_n/q_n with q_n <= Q.  Either it is
    xi itself, or q_{n+1} > Q and Legendre's bound gives
    |xi - p_n/q_n| <= 1/(q_n q_{n+1}) < 1/(q_n Q).  The bound is checked
    once more on the result.
    """
    if Q < 1:
        raise ValueError(f"resolution must be positive, got Q={Q}")
    x = as_fraction(xi)
    for conv in convergents(x):
        if conv.denominator > Q:
            break
        best = conv
    if abs(x - best) * best.denominator * Q > 1:
        raise ApproximationError(
            f"convergent {best} violates |xi - a/q| <= 1/(qQ) at Q={Q}"
        )
    return best


def golden_ratio_conjugate(bits: int = 128) -> Fraction:
    """Rational approximation of (sqrt(5)-1)/2 accurate to ~2**-bits.

    Consecutive Fibonacci ratios F(n)/F(n+1) are the convergents; useful as a
    badly-approximable irrational probe with exact-phase arithmetic downstream.
    """
    a, b = 1, 1
    while b.bit_length() * 2 < bits + 4:
        a, b = b, a + b
    return Fraction(a, b)
