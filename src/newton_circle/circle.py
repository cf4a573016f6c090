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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, dirichlet_approx, is_exact, torus_representative
from .complete import (_check_work, _histogram_peak, _residue_histogram, gauss_sum,
                       partial_gauss)
from .ergodic import EmptyRegionError
from .expsum import double_sum
from .iw import IWParams, sigma_fractions
from .newton import NewtonDiagram, dominant_scale
from .poly import Poly2, evaluate, pin, scale


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

    With h the histogram of P(m) mod n over the (M/tau, M] box
    (complete._residue_histogram, the kernel of the complete sums), the sum
    of e(i*P(m)/n) over the box is the sum of h[t] * e(i*t/n) over t, which
    is n times the inverse DFT of h at i.  The box and the n bins must fit
    WORK_CAP_CELLS, else WorkCapExceeded is raised first.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k1, m1 = _axis_count(M1, tau)
    k2, m2 = _axis_count(M2, tau)
    cells = (m1 - k1) * (m2 - k2)
    _check_work(cells + n, _histogram_peak(n), f"multiplier grid needs a {m1 - k1} x "
                f"{m2 - k2} residue table mod q = {n} and {n} bins")
    hist = _residue_histogram(P.terms, 1, n, range(k1 + 1, m1 + 1), range(k2 + 1, m2 + 1))
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


class QuadratureConvergenceError(RuntimeError):
    """Panel refinement exceeded the depth cap without meeting tolerance."""


# The 32-point Gauss-Legendre rule on [-1, 1], and the deepest refinement level
# (2**20 panels) before continuous_multiplier gives up.
_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(32)
_MAX_DEPTH = 20


def _e_dot(phase: np.ndarray, wts: np.ndarray):
    """Real and imaginary parts of e(phase) @ wts, from real cos and sin of
    2*pi*phase; phase is overwritten."""
    phase *= math.tau
    return np.cos(phase) @ wts, np.sin(phase, out=phase) @ wts


def _level(terms, M1: float, M2: float, nodes: np.ndarray, wts: np.ndarray,
           diagonal: bool) -> complex:
    """One refinement level of the rule for e(Q) at (M1 x, M2 y), x and y in nodes.

    Q(M1 x_i, M2 y_j) = sum over the terms (g1, g2, c) of U[t, i] * V[t, j], with
    U[t] = c (M1 x)**g1 and V[t] = (M2 y)**g2.  The diagonal rule (x = y) takes the
    phase (U * V).sum(0); the 2-D rule the rank-T product V.T @ U per 2**21 cells."""
    U = np.empty((len(terms), len(nodes)))
    V = np.empty_like(U)
    for t, (g1, g2, c) in enumerate(terms):
        # a zero exponent would multiply by exactly 1.0
        U[t] = c * (M1 * nodes) ** g1 if g1 else c
        V[t] = (M2 * nodes) ** g2 if g2 else 1.0
    if diagonal:
        return complex(*_e_dot((U * V).sum(axis=0), wts))
    block = max(1, (1 << 21) // len(nodes))
    total = 0j
    for i in range(0, len(nodes), block):
        re, im = _e_dot(V[:, i : i + block].T @ U, wts)
        total += complex(wts[i : i + block] @ re, wts[i : i + block] @ im)
    return total


def _least_depth(terms, M1: float, M2: float, lo: float, diagonal: bool) -> int:
    """A lower bound on the depth at which continuous_multiplier's refinement stops.

    The phase's slope at (1, 1) in turns per unit of an axis of the rule (the
    diagonal, for the diagonal rule), c * g * M1**g1 * M2**g2 summed over
    the terms with g = g1 along x, g2 along y and g1 + g2 on the diagonal, is
    at most its largest slope (equal to it when the terms share a sign).  A
    level with fewer nodes on [lo, 1] than (1 - lo) times that slope puts a
    32-point panel near (1, 1) across more than 32 turns, past what its
    degree-63 rule resolves.  The refinement stops when a level agrees with
    the one before, so not before the level after the first with enough nodes.
    """
    axes = ((1, 1),) if diagonal else ((1, 0), (0, 1))
    try:
        turns = (1.0 - lo) * max(abs(sum(c * (a1 * g1 + a2 * g2) * M1**g1 * M2**g2
                                         for g1, g2, c in terms)) for a1, a2 in axes)
    except OverflowError:           # a power M**g past the float range
        turns = math.inf
    if not turns < 2.0**64:         # inf or nan: past the float range and every cap
        turns = 2.0**64
    return max(math.ceil(turns / len(_LEG_X)) - 1, 0).bit_length() + 1


def continuous_multiplier(P: Poly2, xi: RealLike, M1: RealLike, M2: RealLike,
                          tau: RealLike,
                          axis_partial: Optional[Tuple[int, int]] = None) -> complex:
    """Normalized oscillatory integral of e(xi*P(M1 y1, M2 y2)) over [1/tau, 1]^2.

    Gauss-Legendre panels halve until two successive levels agree within 1e-10, else
    QuadratureConvergenceError past _MAX_DEPTH.  axis_partial=(axis, frozen) pins m_axis
    to the integer frozen and integrates the pinned polynomial along y1 = y2 only.
    Before any level, the least depth the phase needs (_least_depth) must fit
    WORK_CAP_CELLS, in cells of the 2-D rule or nodes of the diagonal one, else
    WorkCapExceeded, and _MAX_DEPTH, else QuadratureConvergenceError.
    """
    t = float(tau)
    if t <= 1:
        raise ValueError("tau must exceed 1")
    lo = 1.0 / t
    Q = scale(P, xi)
    diagonal = axis_partial is not None
    if diagonal:
        Q = pin(Q, *axis_partial)
    terms = [(g1, g2, float(c)) for (g1, g2), c in Q.terms.items()]
    least = _least_depth(terms, float(M1), float(M2), lo, diagonal)
    n = len(_LEG_X) << least
    _check_work(n if diagonal else n * n, 0,
                f"quadrature needs at least {n} nodes per axis to resolve the phase")
    if least > _MAX_DEPTH:
        raise QuadratureConvergenceError(f"the phase needs at least depth {least} > {_MAX_DEPTH}")
    prev = None
    for depth in range(_MAX_DEPTH + 1):
        edges = np.linspace(lo, 1.0, (1 << depth) + 1)
        half = (edges[1:] - edges[:-1]) / 2.0
        mid = (edges[1:] + edges[:-1]) / 2.0
        nodes = (mid[:, None] + half[:, None] * _LEG_X[None, :]).ravel()
        wts = (_LEG_W[None, :] * half[:, None]).ravel()
        cur = _level(terms, float(M1), float(M2), nodes, wts, diagonal)
        if prev is not None and abs(cur - prev) < 1e-10:
            norm = 1.0 / (1.0 - lo)
            return norm * cur if diagonal else norm * norm * cur
        prev = cur
    raise QuadratureConvergenceError(f"no convergence to 1e-10 within depth {_MAX_DEPTH}")


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


# ---------------------------------------------------------------------------
# Scale bookkeeping
# ---------------------------------------------------------------------------


def log_scale(M: RealLike, tau: RealLike) -> float:
    """log base tau of M."""
    m, t = float(M), float(tau)
    if m <= 1 or t <= 1:
        raise ValueError("need M > 1 and tau > 1 for positive logs")
    return math.log(m) / math.log(t)


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
                      M1: RealLike, M2: RealLike, tau: RealLike) -> complex:
    """Periodized approximant: sum over level fractions of
    G(a/q) * m_cont(xi - a/q) * eta(xi - a/q), with G the complete sum.
    """
    x = as_fraction(xi)
    total = 0j
    for frac in _cached_fractions(params):
        delta = float(torus_representative(x - frac))
        eta = cutoff_eta(n, delta)
        if eta == 0.0:
            continue
        total += gauss_sum(P, frac) * continuous_multiplier(P, delta, M1, M2, tau) * eta
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
