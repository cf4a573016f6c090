"""Discrete and continuous multipliers, smooth cutoffs, rational-bump
projections, arc classification, and the periodized major-arc approximant.

Axis-partial objects pin one variable once (_pinned: poly.pin of the integer
polynomial, then scaling by xi) and run the full-path kernel or quadrature
on the pinned polynomial.

Conventions fixed here: the smooth cutoff is the quintic smoothstep (any even
C^2 bump between the two indicator envelopes would do; reports should treat
cutoff-dependent numbers as tied to this choice), and every logarithmic
threshold uses log base tau, the lacunarity factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, dirichlet_approx, is_exact, torus_representative
from .complete import _check_work, gauss_sum, partial_gauss
from .ergodic import EmptyRegionError
from .expsum import BLOCK_CELLS, _box_histogram, _e, _histogram_peak, double_sum
from .iw import IWParams, sigma_fractions
from .newton import NewtonDiagram, dominant_scale
from .poly import Poly2, RealPoly2, evaluate, pin, scale


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


def _pinned(P: Poly2, xi: RealLike, M1: RealLike, M2: RealLike,
            axis_partial: Optional[Tuple[int, int]]) -> Tuple[RealPoly2, List[RealLike]]:
    """xi*P and [M1, M2]; axis_partial=(axis, frozen) pins m_axis to the
    integer frozen >= 1 and sets that axis's scale to 1.

    The integer polynomial is pinned first, in integers, and then scaled: an
    exact xi gives the same coefficients as pinning xi*P, and a float xi
    rounds each pinned coefficient once (poly.scale)."""
    Ms = [M1, M2]
    if axis_partial is not None:
        axis, frozen = axis_partial
        if frozen < 1:
            raise ValueError(f"frozen value must be a positive integer, got {frozen}")
        P = pin(P, axis, frozen)
        Ms[axis - 1] = 1
    return scale(P, xi), Ms


def discrete_multiplier(P: Poly2, xi: RealLike, M1: RealLike, M2: RealLike,
                        tau: RealLike, axis_partial: Optional[Tuple[int, int]] = None) -> complex:
    """Normalized truncated lattice sum of e(xi*P) over (M/tau, M] blocks.

    With axis_partial=(axis, frozen) m_axis is pinned to the integer frozen >= 1
    and the pinned polynomial is averaged over a box whose pinned axis is (0, 1]:
    (1/tau, 1] holds the one lattice point 1 for every tau > 1.
    """
    Q, Ms = _pinned(P, xi, M1, M2, axis_partial)
    (k1, m1), (k2, m2) = (_axis_count(M, tau) for M in Ms)
    return double_sum(Q, k1, m1, k2, m2).value / ((m1 - k1) * (m2 - k2))


def discrete_multiplier_grid(P: Poly2, n: int, M1: RealLike, M2: RealLike,
                             tau: RealLike) -> np.ndarray:
    """discrete_multiplier(P, i/n, M1, M2, tau) for every i in [0, n), as one array.

    With h the histogram of P(m) mod n over the (M/tau, M] box
    (expsum._box_histogram, the kernel of the complete sums), the sum
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
    hist = _box_histogram(P.terms, n, range(k1 + 1, m1 + 1), range(k2 + 1, m2 + 1))
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


# The 32-point Gauss-Legendre rule on [-1, 1], and the one-node midpoint
# rule, which is exact on an axis along which the phase does not move.
_GAUSS = np.polynomial.legendre.leggauss(32)
_MIDPOINT = (np.array([0.0]), np.array([2.0]))

# Each panel's error bound per unit half-width is at most _TOL, so each axis
# adds at most _TOL / 2 to the normalised error.
_TOL = 1e-11
_LOG_TOL = math.log(_TOL)

# Bernstein ellipses rho = e**eta tried on each panel, and the log of the eta
# part of the 32-point bound, (64/15) rho**-64 / (rho**2 - 1).  Built with
# math, not numpy ufuncs, so that importing touches no further numpy code.
_ETA = [0.25 + 0.125 * i for i in range(31)]
_KAPPA = [math.log(64 / 15) - 64 * eta - math.log(math.expm1(2 * eta)) for eta in _ETA]

# A passing panel rises the bounding polynomial by at most 2 * _TURNS turns.
_TURNS = max((_LOG_TOL - k) / (math.tau * math.sinh(eta)) for eta, k in zip(_ETA, _KAPPA))
_ETA, _KAPPA = np.array(_ETA), np.array(_KAPPA)

# _panels' first guess rises each panel by _FILL * 2 * _TURNS, on _GRID.
_FILL = 0.93
_GRID = np.array([i / 256 for i in range(257)])

# Panels per block of the bound's (panels x eta) arrays.
_BOUND_BLOCK = 1 << 15


@lru_cache(maxsize=None)
def _bound_tables(G: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables for bounding polynomials of degree G: sigma[j - 1] = 2 pi 2**-j
    sum over i of C(j, i) sinh(|j - 2i| eta), 2 pi times the sum over k >= 1
    of m_jk sinh(k eta) where s**j = sum of m_jk T_k(s); and for q = 0..G
    (the powers), binom[q, j] = C(q + j, j) (zero past q + j = G) and index[q,
    j] = min(q + j, G), so that c**q @ (binom * a[index]) is F^(j)(c) / j!."""
    sigma = [sum(math.comb(j, i) * np.sinh(abs(j - 2 * i) * _ETA) for i in range(j + 1))
             * (math.tau / 2.0**j) for j in range(1, G + 1)]
    q, j = np.indices((G + 1, G + 1))
    binom = np.array([[math.comb(n + k, k) * (n + k <= G) for k in range(G + 1)]
                      for n in range(G + 1)], dtype=float)
    return np.array(sigma).reshape(G, len(_ETA)), binom, np.minimum(q + j, G), q[:, 0]


def _log_bounds(a: np.ndarray, c, h):
    """log of the 32-point rule's error bound per unit half-width on the
    panels [c - h, c + h] (arrays), for every phase whose Chebyshev
    coefficients the bounding polynomial F = sum of a[g] x**g (a >= 0,
    a[0] = 0) majorises.

    F(c + h s) = sum of tau_j s**j, tau_j = h**j F^(j)(c) / j! >= 0, has
    nonnegative Chebyshev coefficients b_k.  On the Bernstein ellipse of
    rho = e**eta |Im T_k| <= sinh(k eta), so |e(p)| <= exp(2 pi S) with S =
    sum of b_k sinh(k eta) = sum of tau_j sigma_j(eta), and the error is at
    most h (64/15) exp(2 pi S) rho**-64 / (rho**2 - 1) (Trefethen, ATAP,
    Thm 19.3), minimised over _ETA.
    """
    if len(c) > _BOUND_BLOCK:
        return np.concatenate([_log_bounds(a, c[i : i + _BOUND_BLOCK], h[i : i + _BOUND_BLOCK])
                               for i in range(0, len(c), _BOUND_BLOCK)])
    sigma, binom, index, powers = _bound_tables(len(a) - 1)
    tau = (c[:, None] ** powers).dot(binom * a[index]) * h[:, None] ** powers
    return (tau[:, 1:].dot(sigma) + _KAPPA).min(axis=-1)


def _panels(a: np.ndarray, lo: float, count: int) -> Tuple[np.ndarray, np.ndarray, tuple, float]:
    """Centres and half-widths of panels on [lo, 1], the rule on [-1, 1]
    they take, and the sum of half-width times bound over them.

    A count of 0 (F does not rise) gives one midpoint panel.  Otherwise the
    32-point panels' bounds per unit half-width (_log_bounds) are at most
    _TOL.  The first guess is `count` panels of equal rise of F, the closed
    form of the greedy widths where F is nearly linear on a panel (F
    inverted on _GRID).  Panels that fail are halved until all pass, else
    ValueError once one is as narrow as the float spacing.
    """
    if count == 0:
        return np.array([(1.0 + lo) / 2.0]), np.array([(1.0 - lo) / 2.0]), _MIDPOINT, 0.0
    if count == 1:
        edges = np.array([lo, 1.0])
    else:
        grid = lo + (1.0 - lo) * _GRID
        rise = a[-1]
        for v in a[-2::-1]:
            rise = rise * grid + v
        edges = np.interp(rise[0] + (rise[-1] - rise[0]) / count * np.arange(count + 1),
                          rise, grid)
        edges[0], edges[-1] = lo, 1.0
    while True:
        c, h = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        logs = _log_bounds(a, c, h)
        bad = logs > _LOG_TOL
        if not np.count_nonzero(bad):
            return c, h, _GAUSS, float(h.dot(np.exp(logs)))
        if np.any(h[bad] <= np.spacing(c[bad])):
            raise ValueError("the phase turns too fast to be resolved by float nodes on "
                             f"[{lo!r}, 1]")
        edges = np.sort(np.concatenate((edges, c[bad])))


def _nodes(c: np.ndarray, h: np.ndarray, rule: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule (its nodes and weights on [-1, 1]) on
    the panels [c - h, c + h]."""
    h = h[:, None]
    return (c[:, None] + h * rule[0]).ravel(), (h * rule[1]).ravel()


def _level(terms: np.ndarray, Ms: Tuple[float, float], axes) -> complex:
    """The tensor rule for e(Q(M1 x1, M2 x2)) on the panels (centres,
    half-widths, rule) of each axis; terms holds the rows g1, g2 and c of Q's
    terms.  The axis with fewer nodes is held in full as U.T = c (M x)**g;
    the other is built per block of panels of at most 2**21 cells and 2**21
    / T nodes as V = (M y)**g, and each block takes its phase as U.T @ V,
    reduced mod 1 (exactly) into [-1/2, 1/2].  Slices of the block of at most
    BLOCK_CELLS cells, whole rows or a part of one, go through the table
    kernel (expsum._e) and are contracted with the weights by real matvecs.
    ndarray.dot has a lower fixed cost per call than @."""
    g, c = terms[:2], terms[2]
    small = int(len(axes[1][0]) * len(axes[1][2][0]) < len(axes[0][0]) * len(axes[0][2][0]))
    x, wx = _nodes(*axes[small])
    UT = c * (Ms[small] * x[:, None]) ** g[small]
    M, gb, (centres, halves, rule) = Ms[1 - small], g[1 - small][:, None], axes[1 - small]
    block = max(1, (1 << 21) // (len(rule[0]) * max(len(x), len(c))))
    total = 0j
    for i in range(0, len(centres), block):
        y, wy = _nodes(centres[i : i + block], halves[i : i + block], rule)
        phase = UT.dot((M * y) ** gb)
        phase -= np.rint(phase)
        rows = max(1, BLOCK_CELLS // len(y))
        for a in range(0, len(x), rows):
            for b in range(0, len(y), BLOCK_CELLS):
                z = _e(phase[a : a + rows, b : b + BLOCK_CELLS]).dot(wy[b : b + BLOCK_CELLS])
                total += complex(*z.dot(wx[a : a + rows]))
        del y, wy, phase                # before the next block's nodes are built
    return total


def _rule(terms: Sequence[Tuple[int, int, float]], M1: float, M2: float,
          lo: float) -> Tuple[complex, float]:
    """(value, bound) of continuous_multiplier: the normalised integral of
    e(Q(M1 y1, M2 y2)) over [lo, 1]^2, for the terms (g1, g2, c) of Q, and a
    bound on its error.

    Each axis gets panels (_panels) for a bounding polynomial F: along y1,
    for each g1, the sum of |c| M1**g1 M2**g2, the other variable's monomial
    at its maximum over [lo, 1]; along y2 likewise.  Where F = 0 (the pinned
    axis of a partial call, or zero phase) the midpoint node is exact.  The
    tensor rule's error is at most |P_2| sup E_1 + |P_1| sup E_2, the
    weights being positive, so the normalised shares of the axes add up,
    each at most _TOL / 2.  The least nodes per axis any certified rule
    needs, then the nodes chosen, must fit WORK_CAP_CELLS as cells before
    any node is evaluated, else WorkCapExceeded.

    The bound adds the float rounding, derived as FLOAT_TERM_BUDGET is
    (notes/decisions.md, "Certified quadrature"), with u = 2**-53, Phi the
    sum of |c| M1**g1 M2**g2, G the largest g1 + g2, T the number of terms
    and n the nodes of an axis: nodes off by 6u move the phase by 6u G Phi
    turns, the terms and their sum by (G + T + 3)u Phi; the reduction mod 1
    is exact.  The table kernel (expsum._e) forms no angle and lands within
    1.54u of e(phase) per component, 2.2u in modulus; on a slice below its
    break-even libm's angle adds u turns and cos and sin 6u in modulus,
    which bounds both.  The weights add 22u per axis, the sums (n + 1)
    sqrt(2) u per axis and the normalisation 4u.  In all: 2 pi (7G + T + 4)
    u Phi + 2u (n + 1) per axis + 64u.
    """
    sizes, degree, axes = 0.0, 0, ([0.0], [0.0])
    for g1, g2, c in terms:
        try:
            size = abs(c * M1**g1 * M2**g2)
        except OverflowError:       # a power M**g past the float range
            size = math.inf
        sizes += size
        degree = max(degree, g1 + g2)
        for a, g in zip(axes, (g1, g2)):
            a.extend([0.0] * (g + 1 - len(a)))
            a[g] += size
    rises = []
    for a in axes:
        a[0] = 0.0
        rise = sum(v * (1.0 - lo**g) for g, v in enumerate(a))
        rises.append(rise if rise < 2.0**64 else 2.0**64)  # inf or nan: past every cap
    least = [max(1, 32 * math.ceil(rise / (2.0 * _TURNS))) for rise in rises]
    _check_work(least[0] * least[1], 0, f"quadrature needs at least {least[0]} x {least[1]} "
                "nodes per axis to resolve the phase")
    panels = [_panels(np.array(a), lo, math.ceil(rise / (2.0 * _TURNS * _FILL)))
              for a, rise in zip(axes, rises)]
    nodes = [len(c) * len(rule[0]) for c, _, rule, _ in panels]
    if nodes != least:
        _check_work(nodes[0] * nodes[1], 0, "the certified rule needs "
                    f"{nodes[0]} x {nodes[1]} nodes per axis")
    value = _level(np.array(terms, dtype=float).reshape(-1, 3).T, (M1, M2),
                   [(c, h, rule) for c, h, rule, _ in panels])
    span = 1.0 - lo
    rounding = 2.0**-53 * (math.tau * sizes * (7 * degree + len(terms) + 4)
                           + 2 * sum(n + 1 for n in nodes) + 64)
    truncation = sum(err for *_, err in panels) / span
    return value / (span * span), truncation + rounding


def continuous_multiplier(P: Poly2, xi: RealLike, M1: RealLike, M2: RealLike,
                          tau: RealLike,
                          axis_partial: Optional[Tuple[int, int]] = None) -> complex:
    """Normalized oscillatory integral of e(xi*P(M1 y1, M2 y2)) over [1/tau, 1]^2.

    One certified tensor Gauss-Legendre rule (_rule): graded 32-point panels
    whose Bernstein-ellipse bounds keep the truncation error at most 1e-11,
    and one node on an axis along which the phase does not move.
    axis_partial=(axis, frozen) pins as discrete_multiplier does and runs
    the same rule on the pinned polynomial.  The nodes per axis must fit
    WORK_CAP_CELLS as cells, else WorkCapExceeded before any node is
    evaluated; a phase that needs panels narrower than the float spacing
    raises ValueError.
    """
    t = float(tau)
    if t <= 1:
        raise ValueError("tau must exceed 1")
    Q, (M1, M2) = _pinned(P, xi, M1, M2, axis_partial)
    terms = [(g1, g2, float(c)) for (g1, g2), c in Q.terms.items()]
    return _rule(terms, float(M1), float(M2), 1.0 / t)[0]


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


def _scale_monomial(M1: RealLike, M2: RealLike, v: Tuple[int, int]) -> float:
    """M1**v[0] * M2**v[1]; a ValueError naming the scales past the largest float."""
    try:
        value = float(M1) ** v[0] * float(M2) ** v[1]
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"M1**{v[0]} * M2**{v[1]} at M1 = {M1}, M2 = {M2} exceeds the "
                         f"largest float, {sys.float_info.max:.4g}")
    return value


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
    resolution = _scale_monomial(M1, M2, diagram.vertices[j - 1]) / q_threshold
    if not 1 <= resolution < math.inf:
        raise ValueError(
            f"degenerate thresholds: rational resolution {resolution:.3g} is not in [1, inf)"
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
    window = log_scale(M2, tau) ** beta / _scale_monomial(M1, M2, diagram.vertices[j - 1])
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
