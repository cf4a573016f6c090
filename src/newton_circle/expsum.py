"""One- and two-parameter exponential sums with exactly reduced phases.

Every coefficient is read as an exact rational: a Fraction or int as itself,
a binary float as the dyadic rational it denotes.  With L the common
denominator, the residues L*Q(m) mod L are formed by Horner's rule on numpy
blocks of the lattice, in one of two exact arithmetics: uint64 when L
divides 2**64 (every binary float), whose wraparound mod 2**64 keeps them
exact mod L, and int64 reduced mod L at each step when no intermediate can
reach 2**63.  So no phase error accumulates however large the polynomial
values get; the residues are histogrammed and each distinct phase t/L is
one correctly rounded division.  For any other wide L (big non-dyadic
rationals) each coefficient is scaled to 2**64 * c / L: its integer part
runs the same uint64 Horner, and its fractional part adds a float tail
below 2**-11 of a turn.  That phase is off by less than 2**-52 of a turn.
Each block's terms are added by an exact split into integer and fractional
parts (``_split_sum``), within 1 ulp of ``math.fsum``, and the block
partials with ``math.fsum``.

Two producers yield the blocks (``_phase_blocks`` picks one): exact
residues (``_residue_blocks``) or float tail phases
(``_tail_phase_blocks``), and two reductions read them.  The sum over the
whole box (``double_sum``, ``weyl_sum``) histograms each block's residues,
so each distinct phase takes one cos and one sin.  The row sums of
``double_sum_abs`` take cos and sin of every cell and add all rows of a
block in one ``_split_sum``: its rows are short and their residues mostly
distinct, so a histogram per row does not pay.  Each row sum is within
(row length) * ``FLOAT_TERM_BUDGET`` of the exact one, by the derivation
above ``FLOAT_TERM_BUDGET`` with count weights of 1.

``mode`` names the kind of input, exact (rational) or float.  Either way the
value carries the rounding of the phases, the trigonometry and the
summation, and every result reports an ``error_budget`` of
``FLOAT_TERM_BUDGET`` per term that bounds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, starmap
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, is_exact
from .poly import RealPoly2, transpose

# Lattice cells per numpy block of the phase kernel; bounds its working memory.
BLOCK_CELLS = 1 << 14

# Integers up to 2**53 convert to float64 exactly, so t / L rounds only once.
_FLOAT_EXACT = 1 << 53

# Modulus of uint64 arithmetic, a multiple of every dyadic L: uint64 residues
# that wrap mod 2**64 are exact mod L.
_WRAP = 1 << 64

# Per-term rounding error of a sum, u = 2**-53.  The phase (in turns) is off
# by less than 2u.  On the histogram paths it is t/L rounded once: below u.
# On the float-tail path (_tail_phase_blocks) the tail, below 2**-11, takes
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

    Residues are int64 with L <= 2**53, so each phase t/L rounds once, or
    uint64 with L dividing 2**64: float(t) rounds once and the division by
    the power of two L is exact, so each phase is fl(t/L) as for int64.
    """
    if getattr(residues, "dtype", None) != np.uint64:
        residues = np.asarray(residues, dtype=np.int64)
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
    return complex(*_split_sum(z, W).tolist())


def _split_sum(x: np.ndarray, W: int) -> np.ndarray:
    """Sums of the rows of x, each within 1 ulp of math.fsum, given that
    W < 2**52 bounds the sum of |x| over every row; x is scaled in place.

    With k = 2**(52 - W.bit_length()) each x*k splits exactly as hi + lo, hi
    = rint(x*k) and |lo| <= 1/2.  The hi are integers whose absolute sum stays
    below k*W + n/2 < 2**53, so their float sum is exact; the computed lo sum
    is off by less than n*n*u/2 (u = 2**-53) in any order, and one rounding of
    hi + lo and an exact division by k give the row sum.  That is within an
    ulp of the correctly rounded sum whenever the row sum reaches 2*n**2 in
    units of 1/k; only a row with a smaller sum (heavy cancellation) goes to
    math.fsum.
    """
    n = x.shape[-1]
    k = math.ldexp(1.0, 52 - W.bit_length())
    x *= k
    hi = np.rint(x)
    # np.add.reduce and np.minimum.reduce skip the Python wrappers of
    # ndarray.sum and .min, a fixed cost that a two-row sum notices
    s = np.add.reduce(hi, axis=-1)
    s += np.add.reduce(np.subtract(x, hi, out=hi), axis=-1)
    cut = 2.0 * n * n
    if np.minimum.reduce(abs(s)) < cut:
        for i in (abs(s) < cut).nonzero()[0]:
            s[i] = math.fsum(x[i].tolist())
    s /= k
    return s


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
    """Sum of e(Q(m1, m2)) over (K1, M1] x (K2, M2], with Q in integer form;
    the block partials are added with math.fsum."""
    # starmap lets go of each block before the producer builds the next
    parts = list(starmap(_block_sum, _phase_blocks(form, K1, M1, K2, M2)))
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def _block_sum(r, x, L, keep) -> complex:
    """A block's part of the box sum: its residues through their histogram
    (residue_sum), or its tail phases term by term."""
    if keep is not None:
        x = x[keep]
    return residue_sum(x, L) if L else _sum_e(math.tau * x, 1.0, x.size)


def _lattice_row_sums(form, K1: int, M1: int, K2: int, M2: int) -> np.ndarray:
    """Sums of e(Q(m1, m2)) over m2 in (K2, M2], one per row m1 in (K1, M1],
    with Q in integer form, as a complex array.

    A row spread over several column blocks or tail segments, which come
    in row order, adds its partials with math.fsum.  Each row sum is within
    (M2 - K2) * FLOAT_TERM_BUDGET of the exact one.
    """
    out = np.zeros(max(M1 - K1, 0), dtype=complex)
    blocks = list(starmap(_block_row_sums, _phase_blocks(form, K1, M1, K2, M2)))
    if not blocks:
        return out
    r = np.concatenate([r for r, _ in blocks])
    s = np.concatenate([s for _, s in blocks], axis=1)
    if r.size == out.size:          # one partial per row
        out.real[r], out.imag[r] = s
        return out
    bounds = np.searchsorted(r, np.arange(out.size + 1)).tolist()
    re, im = s.tolist()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        out[i] = complex(math.fsum(re[a:b]), math.fsum(im[a:b]))
    return out


def _block_row_sums(r, x, L, keep):
    """(r, sums): a block's part of each of its rows' sums, sums[0] real and
    sums[1] imaginary.  Every cell's phase goes through cos and sin directly,
    a cell outside keep weighs 0, and one _split_sum adds the 2*h rows of
    the h-row block, with W = its width."""
    angle = math.tau * (x / L if L else x)
    h, w = angle.shape
    z = np.empty((2, h, w))
    np.cos(angle, out=z[0])
    np.sin(angle, out=z[1])
    if keep is not None:
        z *= keep
    return r, _split_sum(z.reshape(2 * h, w), w).reshape(2, h)


def _phase_blocks(form, K1: int, M1: int, K2: int, M2: int):
    """Blocks of the box (K1, M1] x (K2, M2] for Q in integer form (L, rows),
    each as (r, x, L, keep): r lists the row offset m1 - K1 - 1 of each block
    row, and x the phases of the block's cells, as residues t mod L (uint64
    when L divides 2**64, else int64 with L <= 2**53) or, with L None, as
    float turns; keep, when not None, marks the cells inside the box.  The
    block rows come in row order: r never decreases from one block row to
    the next."""
    if M1 <= K1 or M2 <= K2:
        return iter(())
    L, rows = form
    # every int64 Horner step over m2 stays below (M2 + 1) * L
    exact = _WRAP % L == 0 or (L <= _FLOAT_EXACT and (M2 + 1) * L < 1 << 63)
    return (_residue_blocks if exact else _tail_phase_blocks)(L, rows, K1, M1, K2, M2)


def _residue_blocks(L: int, rows, K1: int, M1: int, K2: int, M2: int):
    """Blocks of exact residues mod L, by Horner's rule over m2: uint64 left
    to wrap mod 2**64 and masked to L - 1 at the end when L divides 2**64,
    else int64 reduced mod L at every step."""
    wrap = _WRAP % L == 0
    dtype = np.uint64 if wrap else np.int64
    cols = min(M2 - K2, BLOCK_CELLS)
    height = max(1, BLOCK_CELLS // cols)
    for r0 in range(K1 + 1, M1 + 1, height):
        # per row m1, the m2-coefficients of Q mod L, top degree first
        coeffs = np.array([[_horner(row, m1, L) for row in rows]
                           for m1 in range(r0, min(r0 + height, M1 + 1))], dtype=dtype)
        r = range(r0 - K1 - 1, r0 - K1 - 1 + len(coeffs))
        for c0 in range(K2 + 1, M2 + 1, cols):
            m2 = np.arange(c0, min(c0 + cols, M2 + 1), dtype=dtype)
            t = coeffs[:, :1].repeat(len(m2), axis=1)
            for j in range(1, len(rows)):
                t = t * m2 + coeffs[:, j:j + 1]
                if not wrap:
                    t %= L
            if wrap:
                t &= L - 1
            yield r, t, L, None


def _tail_phase_blocks(L: int, rows, K1: int, M1: int, K2: int, M2: int):
    """Blocks of float phases, in turns, for an L that does not divide 2**64
    and is too wide for int64 residues mod L.

    The box is cut into row segments m2 = o + u, u in [1, w], and each block
    holds up to BLOCK_CELLS // w of them.  Each row's m2-coefficients are
    Taylor-shifted mod L to the origin o, and a coefficient c splits as
    2**64 * c / L = H + rho / L with H = (c << 64) // L < 2**64.  Horner in
    uint64 wraps mod 2**64, so it gives exactly 2**64 times the fractional
    phase of the H part, however large the polynomial gets; the tail sum of
    rho_j/(L*2**64) * u**(d-j) is a float Horner over u added to it, and w
    keeps it below 2**-11 (see FLOAT_TERM_BUDGET).
    """
    d = len(rows) - 1
    n = M2 - K2
    w = min(n, _tail_width(d))
    segs = -(-n // w)
    w = -(-n // segs)                    # balanced widths, the same segment count
    u = np.arange(1, w + 1, dtype=np.uint64)
    uf = u.astype(np.float64)
    # per row m1, the m2-coefficients of Q mod L, top degree first
    row_coeffs = ([_horner(row, m1, L) for row in rows] for m1 in range(K1 + 1, M1 + 1))
    segments = ((i, b, o) for i, b in enumerate(row_coeffs) for o in range(K2, M2, w))
    while chunk := list(islice(segments, BLOCK_CELLS // w)):
        r = [i for i, _, _ in chunk]
        split = [[divmod(c << 64, L) for c in (_taylor_shift(b, o, L) if o else b)]
                 for _, b, o in chunk]
        head = np.array([[h for h, _ in row] for row in split], dtype=np.uint64)
        tail = np.array([[rho / (L << 64) for _, rho in row] for row in split])
        t = head[:, :1].repeat(w, axis=1)
        acc = tail[:, :1].repeat(w, axis=1)
        for j in range(1, d + 1):
            t = t * u + head[:, j:j + 1]
            acc = acc * uf + tail[:, j:j + 1]
        keep = u <= np.array([min(w, M2 - o) for _, _, o in chunk])[:, None]
        # (t >> 11) * 2**-53 and (t & 2047) * 2**-64 are exact floats; the sum
        # lies below 1 + 2**-10 and needs no reduction mod 1 before cos and sin
        yield r, ((t >> 11).astype(np.float64) * 2.0**-53
                  + ((t & 2047).astype(np.float64) * 2.0**-64 + acc)), None, keep


def _result(value: complex, exact: bool, count: int) -> ExpSumValue:
    return ExpSumValue(value=value, mode="exact" if exact else "float", term_count=count,
                       error_budget=count * FLOAT_TERM_BUDGET)


def weyl_sum(xi: Sequence[RealLike], N: int) -> ExpSumValue:
    """Sum of e(xi_1 n + ... + xi_k n^k) over n in [1, N]."""
    xs = tuple(xi)
    k = len(xs)
    if not 1 <= k <= 8:
        raise ValueError(f"moment-curve dimension must lie in [1, 8], got {k}")
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    form = _integer_form({(0, i + 1): x for i, x in enumerate(xs)})
    value = _lattice_phase_sum(form, 0, 1, 0, N)
    return _result(value, all(is_exact(x) for x in xs), N)


def _check_ranges(K1, M1, K2, M2):
    if not (0 <= K1 <= M1 and 0 <= K2 <= M2):
        raise ValueError(f"need 0 <= K1 <= M1 and 0 <= K2 <= M2, got {(K1, M1, K2, M2)}")


def double_sum(Q: RealPoly2, K1: int, M1: int, K2: int, M2: int) -> ExpSumValue:
    """Sum of e(Q(m1, m2)) over the lattice box (K1, M1] x (K2, M2]."""
    _check_ranges(K1, M1, K2, M2)
    value = _lattice_phase_sum(_integer_form(Q.terms), K1, M1, K2, M2)
    return _result(value, Q.exact, (M1 - K1) * (M2 - K2))


def double_sum_abs(Q: RealPoly2, K1: int, M1: int, K2: int, M2: int, outer_axis: int = 1) -> float:
    """Outer sum of absolute inner sums: axis 1 keeps m1 outside, axis 2 transposes.

    The inner sums are the row sums of one pass over the box
    (_lattice_row_sums), each within 50u per term of the exact one (u =
    2**-53).  The modulus is 1-Lipschitz and rounds by at most 2u per term of
    its row, and the math.fsum of the moduli by u per term, so the result is
    within term count * FLOAT_TERM_BUDGET of the exact outer sum.
    """
    _check_ranges(K1, M1, K2, M2)
    if outer_axis == 2:
        return double_sum_abs(transpose(Q), K2, M2, K1, M1, outer_axis=1)
    if outer_axis != 1:
        raise ValueError("outer_axis must be 1 or 2")
    rows = _lattice_row_sums(_integer_form(Q.terms), K1, M1, K2, M2)
    return math.fsum(np.abs(rows).tolist())
