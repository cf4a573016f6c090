"""Exact rational arithmetic, mod-1 reduction, and rational approximation.

Rationals are plain ``fractions.Fraction`` values, which already enforce the
reduced-form invariant (coprime numerator/denominator, positive denominator).
Float inputs are interpreted as their exact binary values; inequality checks
on float paths get a 4-ulp guard band, since the thresholds they encode are
asymptotic and only the rational path needs exactness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence, Union

RealLike = Union[int, float, Fraction]

# double precision is exhausted well before this many convergents
CONVERGENT_DEPTH = 64


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


def _leq_guarded(lhs: Fraction, rhs: Fraction, float_path: bool) -> bool:
    # 4-ulp slack on float inputs; exact comparison otherwise
    if not float_path:
        return lhs <= rhs
    lf, rf = float(lhs), float(rhs)
    return lf <= rf + 4.0 * math.ulp(max(1.0, abs(rf)))


def reduce(a: int, q: int, torus_normalize: bool = False) -> Fraction:
    """Reduced fraction a/q, optionally with the numerator taken mod q into [0, q)."""
    if q < 1:
        raise ValueError(f"denominator must be positive, got q={q}")
    if torus_normalize:
        a %= q
    return Fraction(a, q)


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
    for _ in range(CONVERGENT_DEPTH - 1):
        if rem == 0:
            return
        x = 1 / rem
        a = math.floor(x)
        rem = x - a
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        yield Fraction(p1, q1)


def dirichlet_approx(xi: RealLike, Q: int) -> Fraction:
    """Reduced a/q with 1 <= q <= Q and |xi - a/q| <= 1/(qQ).

    Continued-fraction convergents give the approximation; if the capped
    expansion fails the bound (only reachable for adversarial exact inputs)
    an exhaustive scan over q <= Q recovers it.
    """
    if Q < 1:
        raise ValueError(f"resolution must be positive, got Q={Q}")
    x = as_fraction(xi)
    best = None
    for conv in convergents(x):
        if conv.denominator <= Q:
            best = conv
        else:
            break
    if best is not None and abs(x - best) * best.denominator * Q <= 1:
        return best
    # depth-capped expansion missed; feasible only at desk-scale resolutions
    if Q > 10**7:
        raise ApproximationError(
            f"no convergent with q <= {Q} satisfies |xi - a/q| <= 1/(qQ)"
        )
    for q in range(1, Q + 1):
        a = round(x * q)
        cand = Fraction(a, q)
        if cand.denominator != q:
            continue
        if abs(x - cand) * q * Q <= 1:
            return cand
    raise ApproximationError("Dirichlet approximation not found; input not finite?")


def rescale_approx(theta: RealLike, a_over_q: Fraction, scale_Q: int, M: int) -> Fraction:
    """Reduced a'/q' with |scale_Q*theta - a'/q'| <= 1/(2 q' M) mod 1 and
    q/(2*scale_Q) <= q' <= 2M; the smallest such q' is returned and the value
    is torus-normalized.

    Preconditions: |theta - a/q| <= 1/q**2 with 0 <= a < q <= M.
    """
    if scale_Q < 1 or M < 1:
        raise ValueError("scale_Q and M must be positive integers")
    a, q = a_over_q.numerator, a_over_q.denominator
    if not (0 <= a < q <= M):
        raise ApproximationError(f"need 0 <= a < q <= M, got a={a}, q={q}, M={M}")
    float_path = isinstance(theta, float)
    th = as_fraction(theta)
    if not _leq_guarded(abs(th - a_over_q), Fraction(1, q * q), float_path):
        raise ApproximationError(
            f"|theta - a/q| = {float(abs(th - a_over_q)):.3e} exceeds 1/q^2 = {1.0 / q**2:.3e}"
        )
    x = th * scale_Q
    q_lower = Fraction(q, 2 * scale_Q)
    for qp in range(1, 2 * M + 1):
        if qp < q_lower:
            continue
        ap = round(x * qp)
        if math.gcd(ap, qp) != 1:
            continue  # the reduced form was already considered at a smaller q'
        if abs(x - Fraction(ap, qp)) * 2 * qp * M <= 1:
            return Fraction(ap % qp, qp)
    raise ApproximationError(
        f"no q' in [{float(q_lower):.3g}, {2 * M}] satisfies |Q*theta - a'/q'| <= 1/(2q'M)"
    )


def coefficient_gcd(a: Sequence[int], q: int) -> int:
    """gcd of q and every entry of a; the empty tuple gives q."""
    if q < 1:
        raise ValueError(f"denominator must be positive, got q={q}")
    return math.gcd(q, *[int(v) for v in a])


def golden_ratio_conjugate(bits: int = 128) -> Fraction:
    """Rational approximation of (sqrt(5)-1)/2 accurate to ~2**-bits.

    Consecutive Fibonacci ratios F(n)/F(n+1) are the convergents; useful as a
    badly-approximable irrational probe with exact-phase arithmetic downstream.
    """
    a, b = 1, 1
    while b.bit_length() * 2 < bits + 4:
        a, b = b, a + b
    return Fraction(a, b)
