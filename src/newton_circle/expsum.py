"""One- and two-parameter exponential sums with exactly reduced phases.

Every coefficient is read as an exact rational: a Fraction or int as itself,
a binary float as the dyadic rational it denotes.  With L the common
denominator, the residues L*Q(m) mod L are formed by Horner's rule on numpy
blocks of the lattice, in int64 when no intermediate can reach 2**63 and in
Python integers otherwise, so no phase error accumulates however large the
polynomial values get.  The residues are histogrammed, each distinct phase
t/L is one correctly rounded division, and the terms are added with
``math.fsum``.

``mode`` names the kind of input.  Exact (rational) inputs report
``error_budget == 0``; float inputs report a budget that bounds the rounding
of the phases, the trigonometry and the summation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, is_exact
from .poly import RealPoly2, UniPoly

# Lattice cells per numpy block of the phase kernel; bounds its working memory.
BLOCK_CELLS = 1 << 14

# Integers up to 2**53 convert to float64 exactly, so t / L rounds only once.
_FLOAT_EXACT = 1 << 53

# Per-term rounding error of a sum, u = 2**-53.  The angle 2*pi*t/L carries
# three relative roundings (t/L, the float 2*pi, their product) on a phase
# below 1, so it is off by less than 2*pi*3u < 19u.  cos and sin are
# 1-Lipschitz and add at most 4 ulp of a value below 1: 23u.  Multiplying by
# the residue count adds u per term, and the two fsum levels (within a block,
# then over the block partials) add u each: 26u per component, below
# sqrt(2)*26u < 37u for the complex term.  The budget rounds that up to 64u.
FLOAT_TERM_BUDGET = 64 * 2.0**-53


class PhaseHypothesisError(ValueError):
    """The sum-vs-integral hypotheses (monotone, small derivative) fail."""


class QuadratureConvergenceError(RuntimeError):
    """Panel refinement exceeded the depth cap without meeting tolerance."""


@dataclass(frozen=True)
class ExpSumValue:
    value: complex
    mode: str                 # "exact" or "float"
    term_count: int
    error_budget: float       # 0 in exact mode

    def __complex__(self) -> complex:
        return self.value


def residue_sum(residues, L: int) -> complex:
    """Sum of e(t/L) over residues t in [0, L), taken from their histogram."""
    t = np.sort(np.asarray(residues, dtype=np.int64 if L <= _FLOAT_EXACT else object), axis=None)
    # bounds of the runs of equal residues
    edge = np.empty(t.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(t[1:], t[:-1], out=edge[1:-1])
    idx = edge.nonzero()[0]
    counts = idx[1:] - idx[:-1]
    angle = math.tau * np.asarray(t[idx[:-1]] / L, dtype=np.float64)
    return complex(math.fsum((counts * np.cos(angle)).tolist()),
                   math.fsum((counts * np.sin(angle)).tolist()))


def _integer_form(terms: Dict[Tuple[int, int], RealLike]) -> Tuple[int, List[Tuple[int, ...]]]:
    """(L, rows): L*Q has integer coefficients, and rows lists, from the top m2
    degree down to 0, the m1-coefficients mod L of each m2 power, top first."""
    fracs = {g: as_fraction(c) for g, c in terms.items()}
    L = math.lcm(*(f.denominator for f in fracs.values()))
    by_g2: Dict[int, Dict[int, int]] = {}
    for (g1, g2), f in fracs.items():
        by_g2.setdefault(g2, {})[g1] = f.numerator * (L // f.denominator) % L
    rows = []
    for g2 in range(max(by_g2, default=0), -1, -1):
        row = by_g2.get(g2, {})
        rows.append(tuple(row.get(g1, 0) for g1 in range(max(row, default=-1), -1, -1)))
    return L, rows


def _horner(coeffs: Tuple[int, ...], x: int, L: int) -> int:
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % L
    return acc


def _lattice_phase_sum(form, K1: int, M1: int, K2: int, M2: int) -> complex:
    """Sum of e(Q(m1, m2)) over (K1, M1] x (K2, M2], with Q in integer form."""
    if M1 <= K1 or M2 <= K2:
        return 0j
    L, rows = form
    # every Horner step over m2 stays below (M2 + 1) * L
    dtype = np.int64 if L <= _FLOAT_EXACT and (M2 + 1) * L < 1 << 63 else object
    cols = min(M2 - K2, BLOCK_CELLS)
    height = max(1, BLOCK_CELLS // cols)
    parts = []
    for r0 in range(K1 + 1, M1 + 1, height):
        # per row m1, the m2-coefficients of Q mod L, top degree first
        coeffs = np.array([[_horner(row, m1, L) for row in rows]
                           for m1 in range(r0, min(r0 + height, M1 + 1))], dtype=dtype)
        for c0 in range(K2 + 1, M2 + 1, cols):
            m2 = np.arange(c0, min(c0 + cols, M2 + 1), dtype=dtype)
            t = coeffs[:, :1].repeat(len(m2), axis=1)
            for j in range(1, len(rows)):
                t = (t * m2 + coeffs[:, j:j + 1]) % L
            parts.append(residue_sum(t, L))
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def _result(value: complex, exact: bool, count: int) -> ExpSumValue:
    if exact:
        return ExpSumValue(value=value, mode="exact", term_count=count, error_budget=0.0)
    return ExpSumValue(value=value, mode="float", term_count=count,
                       error_budget=count * FLOAT_TERM_BUDGET)


def weyl_sum(xi: Sequence[RealLike], N: int, K: int = 0) -> ExpSumValue:
    """Sum of e(xi_1 n + ... + xi_k n^k) over n in (K, N]."""
    xs = tuple(xi)
    k = len(xs)
    if not 1 <= k <= 8:
        raise ValueError(f"moment-curve dimension must lie in [1, 8], got {k}")
    if N < 1 or K < 0 or K >= N:
        raise ValueError(f"need 0 <= K < N, got K={K}, N={N}")
    form = _integer_form({(0, i + 1): x for i, x in enumerate(xs)})
    value = _lattice_phase_sum(form, 0, 1, K, N)
    return _result(value, all(is_exact(x) for x in xs), N - K)


def _check_ranges(K1, M1, K2, M2):
    if not (0 <= K1 <= M1 and 0 <= K2 <= M2):
        raise ValueError(f"need 0 <= K1 <= M1 and 0 <= K2 <= M2, got {(K1, M1, K2, M2)}")


def double_sum(Q: RealPoly2, K1: int, M1: int, K2: int, M2: int) -> ExpSumValue:
    """Sum of e(Q(m1, m2)) over the lattice box (K1, M1] x (K2, M2]."""
    _check_ranges(K1, M1, K2, M2)
    value = _lattice_phase_sum(_integer_form(Q.terms), K1, M1, K2, M2)
    return _result(value, Q.exact, (M1 - K1) * (M2 - K2))


def _transpose(Q: RealPoly2) -> RealPoly2:
    return RealPoly2({(g2, g1): c for (g1, g2), c in Q.terms.items()})


def double_sum_abs(Q: RealPoly2, K1: int, M1: int, K2: int, M2: int, outer_axis: int = 1) -> float:
    """Outer sum of absolute inner sums: axis 1 keeps m1 outside, axis 2 transposes."""
    _check_ranges(K1, M1, K2, M2)
    if outer_axis == 2:
        return double_sum_abs(_transpose(Q), K2, M2, K1, M1, outer_axis=1)
    if outer_axis != 1:
        raise ValueError("outer_axis must be 1 or 2")
    form = _integer_form(Q.terms)
    return math.fsum(abs(_lattice_phase_sum(form, m1 - 1, m1, K2, M2))
                     for m1 in range(K1 + 1, M1 + 1))


# ---------------------------------------------------------------------------
# Sum-vs-integral comparison
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def dyadic_refine(level, a: float, b: float, tol: float, order: int = 32,
                  max_depth: int = 20) -> complex:
    """Gauss-Legendre panels on [a, b], halved until two successive levels agree within tol.

    level(nodes, weights) turns one level's nodes and weights into a value, so
    the same refinement serves line integrals and tensor-product rules.
    """
    if b <= a:
        raise ValueError("empty integration interval")
    x, w = _leggauss(order)
    prev = None
    for depth in range(max_depth + 1):
        panels = 1 << depth
        edges = np.linspace(a, b, panels + 1)
        half = (edges[1:] - edges[:-1]) / 2.0
        mid = (edges[1:] + edges[:-1]) / 2.0
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        wts = (w[None, :] * half[:, None]).ravel()
        cur = level(nodes, wts)
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureConvergenceError(f"no convergence to {tol} within depth {max_depth}")


def gauss_legendre_adaptive(f, a: float, b: float, tol: float = 1e-12,
                            order: int = 32, max_depth: int = 20) -> complex:
    """Integrate a vectorized complex f over [a, b] by dyadic panel refinement."""
    return dyadic_refine(lambda nodes, wts: complex(wts @ f(nodes)), a, b, tol, order, max_depth)


def _poly_on_array(p: UniPoly, s: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(s)
    for c in reversed(p.coeffs):
        acc = acc * s + float(c)
    return acc


def sum_integral_gap(phase: UniPoly, a: float, b: float, tol: float = 1e-12) -> float:
    """|sum of e(phase(n)) over integers in (a, b]  -  integral of e(phase(s)) ds|.

    Requires a monotonic derivative bounded by 1/2 in absolute value on [a, b]:
    endpoints are tested directly and monotonicity comes from a sign-constant
    second derivative (checked exactly for degree <= 3, sampled above that).
    """
    if not b > a:
        raise ValueError("need b > a")
    dp = phase.derivative()
    d2 = dp.derivative()
    if abs(float(dp(a))) > 0.5 or abs(float(dp(b))) > 0.5:
        raise PhaseHypothesisError(
            f"|phase'| exceeds 1/2 at an endpoint: {float(dp(a)):.4g}, {float(dp(b)):.4g}"
        )
    if phase.degree <= 3:
        signs = {s for s in (float(d2(a)), float(d2(b))) if s != 0.0}
    else:
        samples = np.linspace(a, b, 129)
        vals = _poly_on_array(d2, samples)
        signs = {s for s in np.sign(vals).tolist() if s != 0.0}
    if len(signs) > 1:
        raise PhaseHypothesisError("phase derivative is not monotonic on the interval")
    terms = [cmath.exp(2j * math.pi * (float(phase(n)) % 1.0))
             for n in range(math.floor(a) + 1, math.floor(b) + 1)]
    total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    integral = gauss_legendre_adaptive(
        lambda s: np.exp(2j * math.pi * _poly_on_array(phase, s)), float(a), float(b), tol=tol
    )
    return abs(total - integral)
