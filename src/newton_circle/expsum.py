"""One- and two-parameter exponential sums with exactly reduced phases.

Every coefficient is read as an exact rational: a Fraction or int as itself,
a binary float as the dyadic rational it denotes.  With L the common
denominator, the residues L*Q(m) mod L are formed by Horner's rule on int64
numpy blocks of the lattice when no intermediate can reach 2**63, so no
phase error accumulates however large the polynomial values get; the
residues are histogrammed and each distinct phase t/L is one correctly
rounded division.  For a wider L (binary floats, big rationals) each
coefficient is scaled to 2**64 * c / L: its integer part runs the same
Horner in uint64, whose wraparound reduces the phase mod 1 exactly, and its
fractional part adds a float tail below 2**-11 of a turn.  That phase is
off by less than 2**-52 of a turn.  Each block's terms are added by an
exact split into integer and fractional parts (``_split_sum``), within 1 ulp
of ``math.fsum``, and the block partials with ``math.fsum``.

``mode`` names the kind of input, exact (rational) or float.  Either way the
value carries the rounding of the phases, the trigonometry and the
summation, and every result reports an ``error_budget`` of
``FLOAT_TERM_BUDGET`` per term that bounds it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, is_exact
from .poly import RealPoly2, UniPoly

# Lattice cells per numpy block of the phase kernel; bounds its working memory.
BLOCK_CELLS = 1 << 14

# Integers up to 2**53 convert to float64 exactly, so t / L rounds only once.
_FLOAT_EXACT = 1 << 53

# Modulus of uint64 arithmetic: the wide kernel holds 2**64 * phase mod 2**64.
_WRAP = 1 << 64

# Per-term rounding error of a sum, u = 2**-53.  The phase (in turns) is off
# by less than 2u.  On the histogram paths it is t/L rounded once: below u.
# On the float-tail path of _wrapped_blocks the tail, below 2**-11, takes
# the rounding of its d+1 coefficients and 2d Horner steps, (2d+1)u * 2**-11;
# lo + tail rounds by at most u * 2**-10 and hi + (lo + tail) by u, so the
# phase is off by u * (1 + (2d+3) * 2**-11) < 2u for any m2-degree d < 1000.
# The angle 2*pi*phase, with the phase below 1 + 2**-10, adds the rounding of
# the float 2*pi and of the product: below 2*pi*4u < 26u.  cos and sin are
# 1-Lipschitz and add at most 4 ulp of a value below 1: 30u.  Multiplying by
# the residue count adds u per term.  Within a block _split_sum lands within
# 1 ulp of the correctly rounded sum S, so off by at most 1.5 ulp(S) <= 3u|S|,
# and |S| is at most the block's term count: 3u per term.  The fsum over the
# block partials adds u: 35u per component, below sqrt(2)*35u < 50u for the
# complex term.  The budget rounds that up to 64u.
FLOAT_TERM_BUDGET = 64 * 2.0**-53


class PhaseHypothesisError(ValueError):
    """The sum-vs-integral hypotheses (monotone, small derivative) fail."""


class QuadratureConvergenceError(RuntimeError):
    """Panel refinement exceeded the depth cap without meeting tolerance."""


@dataclass(frozen=True)
class ExpSumValue:
    value: complex
    mode: str                 # the kind of input: "exact" or "float"
    term_count: int
    error_budget: float       # term_count * FLOAT_TERM_BUDGET in both modes

    def __complex__(self) -> complex:
        return self.value


def residue_sum(residues, L: int) -> complex:
    """Sum of e(t/L) over residues t in [0, L), taken from their histogram.

    A uint64 array is taken as it is, with L = 2**64: float(t) rounds once and
    the division by 2**64 is exact, so each phase is fl(t/L) as for int64.
    """
    if getattr(residues, "dtype", None) != np.uint64:
        residues = np.asarray(residues, dtype=np.int64 if L <= _FLOAT_EXACT else object)
    t = np.sort(residues, axis=None)
    # bounds of the runs of equal residues
    edge = np.empty(t.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(t[1:], t[:-1], out=edge[1:-1])
    idx = edge.nonzero()[0]
    counts = idx[1:] - idx[:-1]
    angle = math.tau * np.asarray(t[idx[:-1]] / L, dtype=np.float64)
    return _sum_e(angle, counts, t.size)


def _sum_e(angle: np.ndarray, weights, W: int) -> complex:
    """Sum of weights * e^(i*angle), with sum |weights| <= W, by _split_sum."""
    z = np.empty((2, angle.size))
    np.cos(angle, out=z[0])
    np.sin(angle, out=z[1])
    z *= weights
    re, im = _split_sum(z, W)
    return complex(re, im)


def _split_sum(x: np.ndarray, W: int) -> List[float]:
    """Sums of the rows of x, each within 1 ulp of math.fsum, given that
    W < 2**52 bounds the sum of |x| over every row; x is scaled in place.

    With k = 2**(52 - W.bit_length()) each x*k splits exactly as hi + lo, hi
    = rint(x*k) and |lo| <= 1/2.  The hi are integers whose absolute sum stays
    below k*W + n/2 < 2**53, so their float sum is exact; the computed lo sum
    is off by less than n*n*u/2 (u = 2**-53) in any order, and one rounding of
    hi + lo and an exact division by k give the row sum.  That is within an
    ulp of the correctly rounded sum whenever the row sum reaches 2*n**2 in
    units of 1/k; a smaller one (heavy cancellation) goes to math.fsum.
    """
    n = x.shape[-1]
    k = math.ldexp(1.0, 52 - W.bit_length())
    x *= k
    hi = np.rint(x)
    s = hi.sum(axis=-1)
    s += np.subtract(x, hi, out=hi).sum(axis=-1)
    return [v / k if abs(v) >= 2.0 * n * n else math.fsum(row.tolist()) / k
            for v, row in zip(s.tolist(), x)]


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


def _taylor_shift(coeffs: List[int], o: int, L: int) -> List[int]:
    """Coefficients of p(o + u) mod L, top degree first, from those of p."""
    c = list(coeffs)
    for i in range(len(c) - 1, 0, -1):
        for j in range(1, i + 1):
            c[j] = (c[j] + c[j - 1] * o) % L
    return c


def _tail_width(d: int) -> int:
    """Widest w <= BLOCK_CELLS with w**d <= 2**52, so 1 + w + ... + w**d <= 2**53."""
    w = min(BLOCK_CELLS, int(2.0 ** (52 / max(d, 1))) + 1)
    while w > 1 and w**d > 1 << 52:
        w -= 1
    return w


def _lattice_phase_sum(form, K1: int, M1: int, K2: int, M2: int) -> complex:
    """Sum of e(Q(m1, m2)) over (K1, M1] x (K2, M2], with Q in integer form."""
    if M1 <= K1 or M2 <= K2:
        return 0j
    L, rows = form
    # every int64 Horner step over m2 stays below (M2 + 1) * L
    blocks = _int64_blocks if L <= _FLOAT_EXACT and (M2 + 1) * L < 1 << 63 else _wrapped_blocks
    parts = list(blocks(L, rows, K1, M1, K2, M2))
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def _int64_blocks(L: int, rows, K1: int, M1: int, K2: int, M2: int):
    """Partial sums of the lattice sum over blocks, from int64 residues mod L."""
    cols = min(M2 - K2, BLOCK_CELLS)
    height = max(1, BLOCK_CELLS // cols)
    for r0 in range(K1 + 1, M1 + 1, height):
        # per row m1, the m2-coefficients of Q mod L, top degree first
        coeffs = np.array([[_horner(row, m1, L) for row in rows]
                           for m1 in range(r0, min(r0 + height, M1 + 1))], dtype=np.int64)
        for c0 in range(K2 + 1, M2 + 1, cols):
            m2 = np.arange(c0, min(c0 + cols, M2 + 1), dtype=np.int64)
            t = coeffs[:, :1].repeat(len(m2), axis=1)
            for j in range(1, len(rows)):
                t = (t * m2 + coeffs[:, j:j + 1]) % L
            yield residue_sum(t, L)


def _wrapped_blocks(L: int, rows, K1: int, M1: int, K2: int, M2: int):
    """Partial sums of the lattice sum over blocks, for an L or M2 too large
    for int64 residues mod L.

    The box is cut into row segments m2 = o + u, u in [1, w].  A coefficient
    c splits as 2**64 * c / L = H + rho / L with H = (c << 64) // L < 2**64.
    Horner in uint64 wraps mod 2**64, so it gives exactly 2**64 times the
    fractional phase of the H part, however large the polynomial gets.  When
    L divides 2**64 every rho is 0 and that is the whole phase: Horner runs
    at m2 = o + u on each row's own coefficients, and the phases are summed
    through the residue histogram.  Otherwise each row's m2-coefficients are
    Taylor-shifted mod L to the origin o, and the tail sum of rho_j/(L*2**64)
    * u**(d-j) is a float Horner over u added to the head; w keeps it below
    2**-11 (see FLOAT_TERM_BUDGET), and the nearly distinct phases are summed
    term by term.
    """
    d = len(rows) - 1
    dyadic = _WRAP % L == 0
    n = M2 - K2
    w = min(n, BLOCK_CELLS if dyadic else _tail_width(d))
    segs = -(-n // w)
    w = -(-n // segs)                    # balanced widths, the same segment count
    u = np.arange(1, w + 1, dtype=np.uint64)
    uf = u.astype(np.float64)
    # per row m1, the m2-coefficients of Q mod L, top degree first
    row_coeffs = ([_horner(row, m1, L) for row in rows] for m1 in range(K1 + 1, M1 + 1))
    segments = ((b, o) for b in row_coeffs for o in range(K2, M2, w))
    while chunk := list(islice(segments, BLOCK_CELLS // w)):
        if dyadic:
            head = np.array([[(c << 64) // L for c in b] for b, _ in chunk], dtype=np.uint64)
            m2 = np.array([o for _, o in chunk], dtype=np.uint64)[:, None] + u
        else:
            split = [[divmod(c << 64, L) for c in (_taylor_shift(b, o, L) if o else b)]
                     for b, o in chunk]
            head = np.array([[h for h, _ in row] for row in split], dtype=np.uint64)
            tail = np.array([[rho / (L << 64) for _, rho in row] for row in split])
            m2 = u
        t = head[:, :1].repeat(w, axis=1)
        for j in range(1, d + 1):
            t = t * m2 + head[:, j:j + 1]
        keep = u <= np.array([min(w, M2 - o) for _, o in chunk])[:, None]
        if dyadic:
            yield residue_sum(t[keep], _WRAP)
            continue
        acc = tail[:, :1].repeat(w, axis=1)
        for j in range(1, d + 1):
            acc = acc * uf + tail[:, j:j + 1]
        # (t >> 11) * 2**-53 and (t & 2047) * 2**-64 are exact floats; the sum
        # lies below 1 + 2**-10 and needs no reduction mod 1 before cos and sin
        phase = ((t >> 11).astype(np.float64) * 2.0**-53
                 + ((t & 2047).astype(np.float64) * 2.0**-64 + acc))
        angle = math.tau * phase[keep]
        yield _sum_e(angle, 1.0, angle.size)


def _result(value: complex, exact: bool, count: int) -> ExpSumValue:
    return ExpSumValue(value=value, mode="exact" if exact else "float", term_count=count,
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


# The 32-point Gauss-Legendre rule on [-1, 1], and the deepest refinement level
# (2**20 panels) before dyadic_refine gives up.
_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(32)
_MAX_DEPTH = 20


def dyadic_refine(level, a: float, b: float, tol: float) -> complex:
    """Gauss-Legendre panels on [a, b], halved until two successive levels agree within tol.

    level(nodes, weights) turns one level's nodes and weights into a value, so
    the same refinement serves line integrals and tensor-product rules.
    """
    if b <= a:
        raise ValueError("empty integration interval")
    prev = None
    for depth in range(_MAX_DEPTH + 1):
        panels = 1 << depth
        edges = np.linspace(a, b, panels + 1)
        half = (edges[1:] - edges[:-1]) / 2.0
        mid = (edges[1:] + edges[:-1]) / 2.0
        nodes = (mid[:, None] + half[:, None] * _LEG_X[None, :]).ravel()
        wts = (_LEG_W[None, :] * half[:, None]).ravel()
        cur = level(nodes, wts)
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureConvergenceError(f"no convergence to {tol} within depth {_MAX_DEPTH}")


def gauss_legendre_adaptive(f, a: float, b: float, tol: float) -> complex:
    """Integrate a vectorized complex f over [a, b] by dyadic panel refinement."""
    return dyadic_refine(lambda nodes, wts: complex(wts @ f(nodes)), a, b, tol)


def _poly_on_array(p: UniPoly, s: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(s)
    for c in reversed(p.coeffs):
        acc = acc * s + float(c)
    return acc


def sum_integral_gap(phase: UniPoly, a: float, b: float) -> float:
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
        lambda s: np.exp(2j * math.pi * _poly_on_array(phase, s)), float(a), float(b), 1e-12
    )
    return abs(total - integral)
