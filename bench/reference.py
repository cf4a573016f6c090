"""Brute-force references for the query workloads, independent of the library.

Each lattice term's phase is reduced exactly mod 1: the polynomial is
evaluated in big integers over the common denominator L of its coefficients,
so the residue t = L*Q(m) mod L is the numerator of Fraction(L*Q(m), L) % 1.
Terms are grouped by residue, each distinct phase is formed as a Fraction and
rounded once, and the sums use ``math.fsum``.  Binary floats enter as their
exact dyadic values, so a float-path result is compared with the sum its
float input denotes.

Only the integer coefficient maps of library polynomials are read here; no
library function is called.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

# An exact-input result fails when it differs from its reference by more
# than ABS_FLOOR + TERM_FLOOR * terms (one rounded phase per term).
ABS_FLOOR = 1e-9
TERM_FLOOR = 1e-13
# Quadrature results fail beyond this gap; the library refines until two
# levels agree to 1e-10 and the reference grid resolves every oscillation.
QUAD_FLOOR = 1e-7
# Worst-case rounding of the reference itself per summed term.  A float
# result violates its budget only when its error exceeds budget + this.
REF_ERROR_PER_TERM = 2e-15

Coeffs = Dict[Tuple[int, int], Fraction]


def scaled_coeffs(terms: Dict[Tuple[int, int], int], xi) -> Coeffs:
    """Exact coefficients of xi*P; a float xi gives the floats xi*c as dyadics."""
    if isinstance(xi, float):
        return {g: Fraction(xi * c) for g, c in terms.items()}
    x = Fraction(xi)
    return {g: x * c for g, c in terms.items()}


def _integer_form(coeffs: Coeffs):
    """(L, [(g2, [(g1, integer coefficient)])]) with L*Q integral."""
    L = 1
    for c in coeffs.values():
        L = math.lcm(L, c.denominator)
    by_g2: Dict[int, List[Tuple[int, int]]] = {}
    for (g1, g2), c in coeffs.items():
        by_g2.setdefault(g2, []).append((g1, c.numerator * (L // c.denominator)))
    return L, sorted(by_g2.items())


def _residue_rows(by_g2, modulus: int, K1: int, M1: int, K2: int, M2: int):
    """Yield, per m1, the residues of the integer polynomial mod `modulus` over m2."""
    m2s = range(K2 + 1, M2 + 1)
    pw = {g2: [m**g2 for m in m2s] for g2, _ in by_g2}
    for m1 in range(K1 + 1, M1 + 1):
        acc = [0] * len(m2s)
        for g2, lst in by_g2:
            b = sum(c * m1**g1 for g1, c in lst)
            acc = [x + b * p for x, p in zip(acc, pw[g2])]
        yield [x % modulus for x in acc]


def _esum(hist: Counter, L: int) -> complex:
    re, im = [], []
    for t, n in hist.items():
        # centred representative of the phase mod 1, in [-1/2, 1/2]
        ang = math.tau * float(Fraction(t if 2 * t <= L else t - L, L))
        re.append(n * math.cos(ang))
        im.append(n * math.sin(ang))
    return complex(math.fsum(re), math.fsum(im))


def lattice_sum(coeffs: Coeffs, K1: int, M1: int, K2: int, M2: int) -> complex:
    """Sum of e(Q(m1, m2)) over (K1, M1] x (K2, M2]."""
    L, by_g2 = _integer_form(coeffs)
    hist = Counter()
    for res in _residue_rows(by_g2, L, K1, M1, K2, M2):
        hist.update(res)
    return _esum(hist, L)


def lattice_abs_sum(coeffs: Coeffs, K1: int, M1: int, K2: int, M2: int, axis: int) -> float:
    """Outer sum over the `axis` variable of the absolute inner sums."""
    if axis == 2:
        coeffs = {(g2, g1): c for (g1, g2), c in coeffs.items()}
        K1, M1, K2, M2 = K2, M2, K1, M1
    L, by_g2 = _integer_form(coeffs)
    return math.fsum(abs(_esum(Counter(res), L))
                     for res in _residue_rows(by_g2, L, K1, M1, K2, M2))


def weyl(coeffs: Sequence, N: int) -> complex:
    """Sum of e(c_1 n + ... + c_k n^k) over n in (0, N]."""
    return lattice_sum({(0, j + 1): Fraction(c) for j, c in enumerate(coeffs)}, 0, 1, 0, N)


def sweep_rows(terms: Dict[Tuple[int, int], int], qlo: int, qhi: int) -> List[list]:
    """[q, coprime count, max |G(a/q)|] from the residue histogram of P mod q."""
    _, by_g2 = _integer_form({g: Fraction(c) for g, c in terms.items()})
    rows = []
    for q in range(qlo, qhi + 1):
        if q == 1:
            rows.append([1, 1, 1.0])
            continue
        hist = Counter()
        for res in _residue_rows(by_g2, q, 0, q, 0, q):
            hist.update(res)
        items = list(hist.items())
        cos_t = [math.cos(math.tau * float(Fraction(t, q))) for t in range(q)]
        sin_t = [math.sin(math.tau * float(Fraction(t, q))) for t in range(q)]
        best, count = 0.0, 0
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            count += 1
            re = math.fsum(n * cos_t[a * t % q] for t, n in items)
            im = math.fsum(n * sin_t[a * t % q] for t, n in items)
            best = max(best, math.hypot(re, im) / (q * q))
        rows.append([q, count, best])
    return rows


# ---------------------------------------------------------------------------
# Oscillatory integrals: fixed composite Gauss-Legendre grids
# ---------------------------------------------------------------------------

_GL_ORDER = 16


def _grid(lo: float, hi: float, cycles: float):
    # at most one oscillation per 16-node panel
    panels = int(math.ceil(cycles)) + 2
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def oscillatory_integral(terms: Dict[Tuple[int, int], int], xi: float, M1: float, M2: float,
                         tau: float, axis_partial=None) -> complex:
    """Normalized integral of e(xi*P(M1 y1, M2 y2)) over [1/tau, 1]^2, or over one
    axis with the other argument frozen at an integer."""
    lo = 1.0 / float(tau)
    norm = 1.0 / (1.0 - lo)
    cs = [(g1, g2, float(xi) * c) for (g1, g2), c in terms.items()]
    if axis_partial is not None:
        axis, frozen = axis_partial
        if axis == 2:
            cs = [(g2, g1, c) for g1, g2, c in cs]
            M2 = M1
        slope = sum(abs(c) * g2 * float(frozen) ** g1 * M2**g2 for g1, g2, c in cs)
        y, w = _grid(lo, 1.0, slope * (1.0 - lo))
        p = sum(c * float(frozen) ** g1 * (M2 * y) ** g2 for g1, g2, c in cs)
        return complex(norm * (w @ np.exp(2j * np.pi * p)))
    s1 = sum(abs(c) * g1 * M1**g1 * M2**g2 for g1, g2, c in cs)
    s2 = sum(abs(c) * g2 * M1**g1 * M2**g2 for g1, g2, c in cs)
    x, wx = _grid(lo, 1.0, s1 * (1.0 - lo))
    y, wy = _grid(lo, 1.0, s2 * (1.0 - lo))
    total = 0j
    block = max(1, (1 << 20) // len(x))
    for i in range(0, len(y), block):
        Y = y[i:i + block, None]
        p = sum(c * (M1 * x[None, :]) ** g1 * (M2 * Y) ** g2 for g1, g2, c in cs)
        total += wy[i:i + block] @ (np.exp(2j * np.pi * p) @ wx)
    return complex(norm * norm * total)


# ---------------------------------------------------------------------------
# Rational approximation
# ---------------------------------------------------------------------------


def dirichlet(x: Fraction, Q: int) -> Fraction:
    """Last continued-fraction convergent of x with denominator <= Q.

    By Legendre's bound it satisfies |x - a/q| <= 1/(qQ).  The expansion runs
    to the end, with no depth cap.
    """
    h0, h1, k0, k1 = 0, 1, 1, 0
    best = None
    rem = x
    while True:
        a = math.floor(rem)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > Q:
            return best
        best = Fraction(h1, k1)
        frac = rem - a
        if frac == 0:
            return best
        rem = 1 / frac
