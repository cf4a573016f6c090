"""Discrete and continuous multipliers, smooth cutoffs, rational-bump
projections, arc classification, and the periodized major-arc approximant.

Axis-partial objects pin one variable once (poly.pin, after scaling by xi)
and run the full-path kernel or quadrature on the pinned polynomial.

Conventions fixed here: the smooth cutoff is the quintic smoothstep (any even
C^2 bump between the two indicator envelopes would do; reports should treat
cutoff-dependent numbers as tied to this choice), and every logarithmic
threshold uses log base tau, the lacunarity factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, dirichlet_approx, is_exact, torus_representative
from .complete import _check_work, _residue_histogram, gauss_sum, partial_gauss
from .ergodic import EmptyRegionError
from .expsum import double_sum, dyadic_refine
from .iw import IWParams, sigma_fractions
from .newton import NewtonDiagram, dominant_scale
from .poly import Poly2, RealPoly2, evaluate, pin, scale


def validate_arc_parameters(beta: float, rho: Optional[Fraction] = None) -> bool:
    """True iff beta*rho < 1/1000, the asymptotic-regime relation.

    The desk-scale defaults below violate it on purpose (the regime constants
    are asymptotic and unreachable at desk scale), so a violation only warns.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if rho is None:
        return True
    ok = beta * float(rho) < 1e-3
    if not ok:
        warnings.warn(
            f"beta*rho = {beta * float(rho):.3g} is outside the asymptotic regime "
            "(needs beta*rho < 1/1000); results are desk-scale probes only",
            RuntimeWarning,
            stacklevel=2,
        )
    return ok


DEFAULT_BETA = 4.0


def _axis_count(M: RealLike, tau: RealLike) -> Tuple[int, int]:
    m = as_fraction(M)
    t = as_fraction(tau)
    if t <= 1:
        raise ValueError("tau must exceed 1")
    lo, hi = math.floor(m / t), math.floor(m)
    if hi - lo <= 0:
        raise EmptyRegionError(f"no lattice points in (M/tau, M] for M={M}, tau={tau}")
    return lo, hi


def discrete_multiplier(P: Poly2, xi: RealLike, M1: RealLike, M2: RealLike,
                        tau: RealLike, axis_partial: Optional[Tuple[int, int]] = None) -> complex:
    """Normalized truncated lattice sum of e(xi*P) over (M/tau, M] blocks.

    With axis_partial=(axis, frozen) m_axis is pinned to the integer frozen >= 1
    and the pinned polynomial is averaged over a box whose pinned axis is (0, 1].
    """
    Q, Ms = scale(P, xi), [M1, M2]
    if axis_partial is not None:
        axis, frozen = axis_partial
        if frozen < 1:
            raise ValueError(f"frozen value must be a positive integer, got {frozen}")
        Q = pin(Q, axis, frozen)
        Ms[axis - 1] = 1  # (1/tau, 1] holds the one lattice point 1 for every tau > 1
    (k1, m1), (k2, m2) = (_axis_count(M, tau) for M in Ms)
    return double_sum(Q, k1, m1, k2, m2).value / ((m1 - k1) * (m2 - k2))


def discrete_multiplier_grid(P: Poly2, n: int, M1: RealLike, M2: RealLike,
                             tau: RealLike) -> np.ndarray:
    """discrete_multiplier(P, i/n, M1, M2, tau) for every i in [0, n), as one array.

    With h the histogram of P(m) mod n over the (M/tau, M] box, the sum of
    e(i*P(m)/n) over the box is the sum of h[t] * e(i*t/n) over t, which is
    n times the inverse DFT of h at i.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k1, m1 = _axis_count(M1, tau)
    k2, m2 = _axis_count(M2, tau)
    cells = (m1 - k1) * (m2 - k2)
    _check_work(cells, n**3, f"multiplier grid needs a {m1 - k1} x {m2 - k2} "
                             f"residue table mod q = {n}")
    hist = _residue_histogram(P, n, range(k1 + 1, m1 + 1), range(k2 + 1, m2 + 1))
    return np.fft.ifft(hist) * (n / cells)


def discrete_multiplier_direct(P: Poly2, numerators: Sequence[int], n: int, M1: RealLike,
                               M2: RealLike, tau: RealLike) -> np.ndarray:
    """discrete_multiplier(P, a/n, M1, M2, tau) for every integer a in numerators.

    Term by term, with no histogram and no DFT, so it checks
    discrete_multiplier_grid by another algorithm: P(m) mod n is evaluated
    once per box cell in Python ints, and each frequency adds e((a*P(m) mod
    n)/n) over the cells with math.fsum.  Any integer a is accepted.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k1, m1 = _axis_count(M1, tau)
    k2, m2 = _axis_count(M2, tau)
    cells = (m1 - k1) * (m2 - k2)
    # (a mod n) * r is below n**2
    _check_work(len(numerators) * cells, n**2, f"direct multiplier needs {len(numerators)} "
                                               f"frequencies x {cells} cells mod n = {n}")
    r = np.array([evaluate(P, (x1, x2)) % n
                  for x1 in range(k1 + 1, m1 + 1) for x2 in range(k2 + 1, m2 + 1)], dtype=np.int64)
    a = np.array([k % n for k in numerators], dtype=np.int64)
    angle = math.tau * (np.multiply.outer(a, r) % n / n)
    sums = [complex(math.fsum(c), math.fsum(s))
            for c, s in zip(np.cos(angle).tolist(), np.sin(angle).tolist())]
    return np.array(sums, dtype=complex) / cells


def _phase_factors(Q: RealPoly2, M1: float, M2: float):
    """nodes -> (U, V): Q(M1 x_i, M2 y_j) = sum over t of U[t, i] * V[t, j] at x, y in
    nodes, with U[t] = c_t (M1 x)**g1_t and V[t] = (M2 y)**g2_t for each term
    c_t m1**g1_t m2**g2_t of Q."""
    terms = [(g1, g2, float(c)) for (g1, g2), c in Q.terms.items()]

    def factors(nodes):
        U = np.empty((len(terms), len(nodes)))
        V = np.empty_like(U)
        for t, (g1, g2, c) in enumerate(terms):
            # a zero exponent would multiply by exactly 1.0
            U[t] = c * (M1 * nodes) ** g1 if g1 else c
            V[t] = (M2 * nodes) ** g2 if g2 else 1.0
        return U, V

    return factors


def _e_dot(phase: np.ndarray, wts: np.ndarray):
    """Real and imaginary parts of e(phase) @ wts, from real cos and sin of
    2*pi*phase; phase is overwritten."""
    phase *= math.tau
    return np.cos(phase) @ wts, np.sin(phase, out=phase) @ wts


def _tensor_level(factors):
    """Tensor-product rule for e(Q) on one refinement level, in blocks of 2**21 cells;
    each block's phase is the rank-T product V.T @ U of the term factors."""

    def level(nodes, wts):
        U, V = factors(nodes)
        block = max(1, (1 << 21) // len(nodes))
        total = 0j
        for i in range(0, len(nodes), block):
            re, im = _e_dot(V[:, i : i + block].T @ U, wts)
            total += complex(wts[i : i + block] @ re, wts[i : i + block] @ im)
        return total

    return level


def _diagonal_level(factors):
    """The rule for e(Q) along the diagonal x = y on one refinement level."""

    def level(nodes, wts):
        U, V = factors(nodes)
        return complex(*_e_dot((U * V).sum(axis=0), wts))

    return level


def continuous_multiplier(P: Poly2, xi: RealLike, M1: RealLike, M2: RealLike,
                          tau: RealLike,
                          axis_partial: Optional[Tuple[int, int]] = None) -> complex:
    """Normalized oscillatory integral of e(xi*P(M1 y1, M2 y2)) over [1/tau, 1]^2.

    Gauss-Legendre panels refine dyadically until two successive levels agree
    within 1e-10.  axis_partial=(axis, frozen) pins m_axis to the integer frozen
    and integrates the pinned polynomial along the diagonal y1 = y2 only.
    """
    t = float(tau)
    if t <= 1:
        raise ValueError("tau must exceed 1")
    lo = 1.0 / t
    Q = scale(P, xi)
    norm = 1.0 / (1.0 - lo)
    if axis_partial is None:
        factors = _phase_factors(Q, float(M1), float(M2))
        return norm * norm * dyadic_refine(_tensor_level(factors), lo, 1.0, 1e-10)
    factors = _phase_factors(pin(Q, *axis_partial), float(M1), float(M2))
    return norm * dyadic_refine(_diagonal_level(factors), lo, 1.0, 1e-10)


def cutoff_eta(n: int, xi: float) -> float:
    """Smooth plateau cutoff at dyadic scale n: 1 on [-2^n, 2^n], 0 outside
    [-2^(n+1), 2^(n+1)], quintic smoothstep in between (even, C^2)."""
    u = abs(math.ldexp(float(xi), -int(n)))
    if u <= 1.0:
        return 1.0
    if u >= 2.0:
        return 0.0
    s = u - 1.0
    return 1.0 - (6.0 * s**5 - 15.0 * s**4 + 10.0 * s**3)


@dataclass(frozen=True)
class ProjectionValue:
    value: float
    overlap_warning: bool

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=16)
def _cached_fractions(params: IWParams) -> Tuple[Fraction, ...]:
    return tuple(sorted(sigma_fractions(params)))


@lru_cache(maxsize=16)
def _min_torus_gap(params: IWParams) -> float:
    fr = _cached_fractions(params)
    if len(fr) < 2:
        return 1.0
    gaps = [float(b - a) for a, b in zip(fr, fr[1:])]
    gaps.append(float(1 - fr[-1] + fr[0]))
    return min(gaps)


def projection_multiplier(params: IWParams, n: int, xi: RealLike) -> ProjectionValue:
    """Sum of cutoff bumps centered at the level's rational fractions.

    The overlap flag trips when the bump diameter reaches half the minimal
    torus gap between fractions, i.e. when bumps are no longer disjoint.
    """
    x = as_fraction(xi)
    total = 0.0
    for frac in _cached_fractions(params):
        d = float(torus_representative(x - frac))
        total += cutoff_eta(n, d)
    warn = math.ldexp(1.0, n + 1) >= _min_torus_gap(params) / 2.0
    return ProjectionValue(value=total, overlap_warning=warn)


def projection_complement(params: IWParams, n: int, xi: RealLike) -> ProjectionValue:
    p = projection_multiplier(params, n, xi)
    return ProjectionValue(value=1.0 - p.value, overlap_warning=p.overlap_warning)


# ---------------------------------------------------------------------------
# Scale bookkeeping
# ---------------------------------------------------------------------------


def log_scale(M: RealLike, tau: RealLike) -> float:
    """log base tau of M."""
    m, t = float(M), float(tau)
    if m <= 1 or t <= 1:
        raise ValueError("need M > 1 and tau > 1 for positive logs")
    return math.log(m) / math.log(t)


def threshold_level(M: RealLike, beta: float, tau: RealLike) -> float:
    """log2((log_tau M)^beta): the dyadic level of the denominator threshold."""
    return math.log2(log_scale(M, tau) ** beta)


def scale_exponent(M1: RealLike, M2: RealLike, v: Tuple[int, int], N: float) -> float:
    """log2(M1^v1 * M2^v2) - N."""
    return v[0] * math.log2(float(M1)) + v[1] * math.log2(float(M2)) - N


def scale_exponent_at_threshold(M1: RealLike, M2: RealLike, v: Tuple[int, int],
                                beta: float, M: RealLike, tau: RealLike) -> float:
    """log2(M1^v1 * M2^v2 * (log_tau M)^-beta)."""
    return scale_exponent(M1, M2, v, threshold_level(M, beta, tau))


@dataclass(frozen=True)
class ScaleBook:
    """Threshold bookkeeping bound to one vertex and one beta/tau pair."""

    v: Tuple[int, int]
    beta: float
    tau: float

    def level(self, M: RealLike) -> float:
        return threshold_level(M, self.beta, self.tau)

    def exponent(self, M1: RealLike, M2: RealLike, N: float) -> float:
        return scale_exponent(M1, M2, self.v, N)

    def exponent_at_threshold(self, M1: RealLike, M2: RealLike, M: RealLike) -> float:
        return scale_exponent_at_threshold(M1, M2, self.v, self.beta, M, self.tau)


# ---------------------------------------------------------------------------
# Arc classification and the periodized approximant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcClassification:
    kind: str                      # "major" or "minor"
    center: Optional[Fraction]     # present iff major
    offset: Optional[float]        # xi - center, present iff major
    thresholds: Dict[str, float]


def arc_classify(P: Poly2, diagram: NewtonDiagram, j: int, xi: RealLike,
                 M1: RealLike, M2: RealLike, beta: float, tau: RealLike) -> ArcClassification:
    """Split a frequency into major (near a small-denominator rational) or minor.

    The rational approximation runs at resolution M1^v1*M2^v2/(log_tau M*)^beta
    rounded up, so a major center always satisfies the documented offset bound
    |xi - a/q| <= (log_tau M*)^beta / (q * M1^v1 * M2^v2).
    """
    mstar = dominant_scale(diagram, j, float(M1), float(M2))
    if mstar <= float(tau):
        raise ValueError("dominant scale must exceed tau so log thresholds are positive")
    L = log_scale(mstar, tau)
    q_threshold = L**beta
    v = diagram.vertices[j - 1]
    resolution = float(M1) ** v[0] * float(M2) ** v[1] / q_threshold
    if resolution < 1:
        raise ValueError(
            f"degenerate thresholds: rational resolution {resolution:.3g} is below 1"
        )
    Q = math.ceil(resolution)
    frac = dirichlet_approx(as_fraction(xi), Q)
    q = frac.denominator
    thresholds = {
        "q_threshold": q_threshold,
        "resolution": resolution,
        "m_star": mstar,
        "q": float(q),
    }
    if q <= q_threshold:
        return ArcClassification(
            kind="major",
            center=frac,
            offset=float(as_fraction(xi) - frac),
            thresholds=thresholds,
        )
    return ArcClassification(kind="minor", center=None, offset=None, thresholds=thresholds)


def major_approximant(P: Poly2, params: IWParams, n: int, xi: RealLike,
                      M1: RealLike, M2: RealLike, tau: RealLike,
                      G_mode: str = "full", frozen: Optional[int] = None) -> complex:
    """Periodized approximant: sum over level fractions of
    G(a/q) * m_cont(xi - a/q) * eta(xi - a/q).

    G_mode selects the arithmetic factor: 'full' the complete sum, 'axis1' or
    'axis2' a partial complete sum at the frozen integer, 'one' the constant 1
    (the bare periodization).
    """
    if G_mode not in ("full", "axis1", "axis2", "one"):
        raise ValueError("G_mode must be one of full, axis1, axis2, one")
    if G_mode in ("axis1", "axis2") and frozen is None:
        raise ValueError("axis-partial modes need the frozen integer")
    axis_partial = (int(G_mode[-1]), frozen) if G_mode in ("axis1", "axis2") else None
    x = as_fraction(xi)
    total = 0j
    for frac in _cached_fractions(params):
        delta = float(torus_representative(x - frac))
        eta = cutoff_eta(n, delta)
        if eta == 0.0:
            continue
        if G_mode == "one":
            G = 1.0 + 0j
        elif axis_partial is None:
            G = gauss_sum(P, frac)
        else:
            G = partial_gauss(P, frac, frozen, axis_partial[0])
        total += G * continuous_multiplier(P, delta, M1, M2, tau, axis_partial) * eta
    return total


def partial_approx_error(P: Poly2, diagram: NewtonDiagram, j: int, m1: int,
                         M2prime: int, xi: RealLike, center: Fraction,
                         tau: RealLike, beta: float, M1: RealLike,
                         M2: RealLike) -> Tuple[float, float]:
    """Measured vs budget for the single-bump partial approximation.

    measured = |axis-1 discrete partial multiplier at xi
                - partial complete sum times continuous partial at xi-center|;
    budget   = q / M2prime, the constant-free size of the error term.
    Requires q <= M2prime and xi within the major-arc window of the center.
    """
    q = center.denominator
    if q > M2prime:
        raise ValueError(f"need q <= M2prime, got q={q}, M2prime={M2prime}")
    v = diagram.vertices[j - 1]
    window = log_scale(M2, tau) ** beta / (float(M1) ** v[0] * float(M2) ** v[1])
    offset = as_fraction(xi) - center
    if abs(float(offset)) > window * (1 + 1e-12):
        raise ValueError(
            f"|xi - center| = {abs(float(offset)):.3g} outside the window {window:.3g}"
        )
    discrete = discrete_multiplier(P, xi, 1, M2prime, tau, axis_partial=(1, m1))
    G1 = partial_gauss(P, Fraction(center.numerator % q, q), m1, 1)
    mm1 = continuous_multiplier(P, offset if is_exact(xi) else float(offset),
                                1, M2prime, tau, axis_partial=(1, m1))
    measured = abs(discrete - G1 * mm1)
    return measured, q / M2prime
