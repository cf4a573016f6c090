"""One- and two-parameter exponential sums with exactly reduced phases.

Every coefficient is read as an exact rational: a Fraction or int as itself,
a binary float as the dyadic rational it denotes.  With L the common
denominator, one exact producer (``_residue_blocks``, which the complete
sums of ``complete`` read too) forms the residues L*Q(m) mod L on numpy
blocks of the lattice from per-axis power tables: in uint64 when L divides
2**64 (every binary float), whose wraparound keeps them exact mod L, else in
int64 under the one bound ``_histogram_peak(L)`` = 65*L**2 < 2**63 (L up to
about 3.7e8).  So no phase error accumulates however large the polynomial
values get, and each distinct phase t/L is one correctly rounded division.
For any other L the tail producer (``_tail_phase_blocks``) scales each
coefficient to 2**64 * c / L: its integer part runs a uint64 Horner over
row segments and its fractional part adds a float tail below 2**-11 of a
turn, so the phase is off by less than 2**-52 of a turn.

Two reductions read the residues of a box sum (``double_sum``,
``weyl_sum``), chosen by the input.  A dense box, with L at most its cell
count (and at most ``HISTOGRAM_BINS``), is read from its L-bin histogram
(``_box_histogram``, which the complete sums of ``complete`` read too): P
mod L depends on each coordinate only mod L, so only the first L rows and
columns are counted, each weighted by the periods it stands for, and each
distinct phase takes one cos and one sin.  A sparse box, with more bins
than cells, sorts the residues of each block (``residue_sum``); an L past
both exact arithmetics sums its tail phases term by term.  The row sums of
``double_sum_abs`` take cos and sin of every cell, as their rows are short
and their residues mostly distinct.  Up to ``_SHORT_SUM`` terms are added
with ``math.fsum``; longer runs by an exact split into integer and
fractional parts (``_split_sum``), within 1 ulp of ``math.fsum``, a block
or a slice of BLOCK_CELLS histogram bins at a time, and the partials with
``math.fsum``.  ``mode`` names the kind of input, exact (rational) or
float; either way every result reports an ``error_budget`` of
``FLOAT_TERM_BUDGET`` per term (per term of its row for a row sum) that
bounds the rounding of the phases, the trigonometry and the summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, starmap
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, is_exact
from .poly import MAX_EXPONENT, RealPoly2, transpose

# Lattice cells per numpy block of the phase kernel; bounds its working memory.
BLOCK_CELLS = 1 << 14

# Bins of the largest residue histogram a box sum builds: 2**20 int64 bins,
# 8 MB.  Without it an int64 L near 3.7e8 on a box of as many cells would
# allocate gigabytes at once; a larger L sorts block by block, in bounded
# memory, as a sparse box does.
HISTOGRAM_BINS = 1 << 20

# Terms up to which _sum_e adds term by term with math.fsum: below the fixed
# cost of its numpy path (about 4 against 18 us at 7 terms, even near 60).
_SHORT_SUM = 48

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
# the residue count adds u per term.  Within a block (or a slice of histogram
# bins) _split_sum lands within 1 ulp of the correctly rounded sum S, so off
# by at most 1.5 ulp(S) <= 3u|S|, and |S| is at most the block's term count:
# 3u per term; a short sum's math.fsum is correctly rounded, u|S|.  The fsum
# over the partials adds u: 35u per component, below sqrt(2)*35u < 50u for
# the complex term.  The budget rounds that up to 64u.
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
    """Sum of e(t/L) over residues t in [0, L), from a sort into runs of equal
    residues: the reduction of a sparse box's blocks (more bins than cells),
    and of the per-cell oracles that check the histogram (criterion 04a).

    Residues are int64 with L <= 2**53 (from the exact producer, 65*L**2 <
    2**63), so each phase t/L rounds once; or uint64 with L dividing 2**64:
    float(t) rounds once and the division by the power of two L is exact.
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
    """Sum of weights * e^(i*angle), with sum |weights| <= W: term by term
    with math.fsum up to _SHORT_SUM terms, by _split_sum past them."""
    if angle.size <= _SHORT_SUM:
        a = angle.tolist()
        w = weights.tolist() if isinstance(weights, np.ndarray) else [weights] * len(a)
        return complex(math.fsum(map(mul, w, map(math.cos, a))),
                       math.fsum(map(mul, w, map(math.sin, a))))
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


def _integer_form(terms: Dict[Tuple[int, int], RealLike]) -> Tuple[int, Dict[Tuple[int, int], int]]:
    """(L, ints): L*Q has the integer coefficients ints, reduced mod L."""
    fracs = {g: as_fraction(c) for g, c in terms.items()}
    L = math.lcm(*(f.denominator for f in fracs.values()))
    return L, {g: f.numerator * (L // f.denominator) % L for g, f in fracs.items()}


def _histogram_peak(L: int) -> int:
    """65*L**2; below 2**63, so is every int64 intermediate of _residue_blocks mod L."""
    return (MAX_EXPONENT + 1) * L * L


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
    """Sum of e(Q(m1, m2)) over (K1, M1] x (K2, M2], with Q in integer form
    (L, ints).  A dense box (L <= its cells, L <= HISTOGRAM_BINS, and fewer
    than 2**52 cells, the bound of _split_sum's W) is read from its L-bin
    histogram; any other box block by block (_block_sum)."""
    L, ints = form
    cells = max(M1 - K1, 0) * max(M2 - K2, 0)
    if L <= min(cells, HISTOGRAM_BINS) and cells < 1 << 52:
        hist = _box_histogram(ints, L, range(K1 + 1, M1 + 1), range(K2 + 1, M2 + 1))
        return _histogram_sum(hist, cells)
    # starmap lets go of each block before the producer builds the next
    return _fsum_complex(starmap(_block_sum, _phase_blocks(form, K1, M1, K2, M2)))


def _fsum_complex(parts) -> complex:
    """The complex sum of parts, each component by math.fsum."""
    parts = list(parts)
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def _box_histogram(terms: Dict[Tuple[int, int], int], L: int, rows: Sequence[int],
                   cols: Sequence[int]) -> np.ndarray:
    """int64 L-bin histogram of P(m1, m2) mod L over m1 in rows and m2 in
    cols, for the integer terms of P; L must divide 2**64 or have
    _histogram_peak(L) < 2**63, and the bins fit in memory.

    P mod L depends on each coordinate only mod L, so an axis of more than L
    consecutive integers is cut to its first L, each weighted by the number
    of times its class occurs (_period_fold): min(n1, L) * min(n2, L) cells
    in one pass of _residue_blocks, each weighted by the product of its row
    and column counts, exact in int64 as the total n1 * n2 is.  np.add.at
    counts in time linear in each block however many bins there are, and
    uint64 blocks (residues below L) through an int64 view, which it counts
    faster."""
    (rows, w1), (cols, w2) = _period_fold(rows, L), _period_fold(cols, L)
    folded = w1 is not None or w2 is not None
    if folded:
        w1 = np.ones(len(rows), dtype=np.int64) if w1 is None else w1
        w2 = np.ones(len(cols), dtype=np.int64) if w2 is None else w2
    hist = np.zeros(L, dtype=np.int64)
    end = 0
    for r, t, _, _ in _residue_blocks(terms, L, rows, cols):
        weight = 1
        if folded:
            if not r.start:             # r restarts with each column block, in order
                start, end = end, end + t.shape[1]
            weight = np.multiply.outer(w1[r.start:r.stop], w2[start:end]).reshape(-1)
        np.add.at(hist, t.reshape(-1).view(np.int64), weight)
    return hist


def _period_fold(axis: Sequence[int], L: int) -> Tuple[Sequence[int], Optional[np.ndarray]]:
    """(run, counts): of a range of n > L consecutive integers its first L,
    with the number of times each one's class mod L occurs in the range (n
    // L, one more for the first n % L) as an int64 array; any other axis as
    it is, with counts None (once each)."""
    if len(axis) <= L or not (isinstance(axis, range) and axis.step == 1):
        return axis, None
    c, s = divmod(len(axis), L)
    counts = np.full(L, c, dtype=np.int64)
    counts[:s] += 1
    return axis[:L], counts


def _histogram_sum(hist: np.ndarray, W: int) -> complex:
    """Sum of h[t] * e(t/L) over the bins of an L-bin histogram h of W
    cells, one _sum_e per slice of BLOCK_CELLS bins, so no array but h
    passes a block's size; the slice partials are added with math.fsum."""
    L = hist.size
    parts = []
    for a in range(0, L, BLOCK_CELLS):
        t = np.flatnonzero(hist[a:a + BLOCK_CELLS]) + a
        parts.append(_sum_e(math.tau * (t / L), hist[t], W))
    return parts[0] if len(parts) == 1 else _fsum_complex(parts)


def _block_sum(r, x, L, keep) -> complex:
    """A sparse block's part of the box sum: its residues through their sort
    (residue_sum), or its tail phases term by term."""
    if keep is not None:
        x = x[keep]
    return residue_sum(x, L) if L else _sum_e(math.tau * x, 1.0, x.size)


def _lattice_row_sums(form, K1: int, M1: int, K2: int, M2: int) -> np.ndarray:
    """Sums of e(Q(m1, m2)) over m2 in (K2, M2], one per row m1 in (K1, M1],
    with Q in integer form, as a complex array.

    A row spread over several column blocks or tail segments adds its
    partials with math.fsum, after a stable sort of the partials by row.
    Each row sum is within (M2 - K2) * FLOAT_TERM_BUDGET of the exact one.
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
    order = np.argsort(r, kind="stable")
    bounds = np.searchsorted(r[order], np.arange(out.size + 1)).tolist()
    re, im = s[:, order].tolist()
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
    """Blocks of the box (K1, M1] x (K2, M2] for Q in integer form (L, ints),
    each as (r, x, L, keep): r lists the row offset m1 - K1 - 1 of each block
    row, and x the phases of its cells, as residues mod L (_residue_blocks)
    or, with L None, as float turns (_tail_phase_blocks, for an L past both
    exact arithmetics); keep, when not None, marks the cells inside the box."""
    if M1 <= K1 or M2 <= K2:
        return iter(())
    L, ints = form
    if _WRAP % L and _histogram_peak(L) >= 1 << 63:
        return _tail_phase_blocks(L, ints, K1, M1, K2, M2)
    return _residue_blocks(ints, L, range(K1 + 1, M1 + 1), range(K2 + 1, M2 + 1))


def _residue_blocks(terms: Dict[Tuple[int, int], int], L: int, rows: Sequence[int],
                    cols: Sequence[int]):
    """Blocks (r, t, L, None), in the form of _phase_blocks, of the residues
    t = P(m1, m2) mod L over m1 in rows and m2 in cols for the integer terms
    of P; r is the range of the block's positions in rows, restarting with
    each column block.  L divides 2**64 (uint64, masked to L - 1) or has
    _histogram_peak(L) < 2**63 (int64).  Rows, columns and coefficients are
    reduced mod L first, so values of any size never reach numpy.  Per column
    block the vectors C_g1(m2) of the terms with m1-exponent g1 are the
    coefficients times the power table m2**g2, and a block is its rows' table
    m1**g1 times them.  In int64 a table entry stays below cap = 2**63 //
    (65*L) >= L, so each sum of at most 65 terms stays below 2**63, and a
    reduction t - L*(t // L) (numpy divides by a scalar with a multiply-shift
    but takes a remainder by hardware division) runs only when needed."""
    wrap = _WRAP % L == 0
    dtype, cap = (np.uint64, math.inf) if wrap else (np.int64, (L << 63) // _histogram_peak(L))

    def reduce(t: np.ndarray) -> np.ndarray:
        if wrap:
            t &= L - 1
        elif t.size < 1024:             # one call beats three on short arrays
            np.remainder(t, L, out=t)
        else:
            quot = t // L
            quot *= L
            t -= quot
        return t

    def powers(r: Sequence[int], k: int) -> np.ndarray:
        """(k + 1) x len(r) table of r**j, congruent mod L (int64: below cap)."""
        table = np.empty((k + 1, len(r)), dtype=dtype)
        table[0] = 1
        if k and isinstance(r, range) and r.step == 1:
            np.add(np.arange(len(r), dtype=dtype), r.start % L, out=table[1])
            if r.start % L + len(r) > L:
                reduce(table[1])
        elif k:
            table[1] = [v % L for v in r]
        bound = L                       # every entry of table[j] is below it
        for j in range(1, k):
            np.multiply(table[j], table[1], out=table[j + 1])
            bound *= L
            if bound > cap:
                reduce(table[j + 1])
                bound = L
        return table

    top = max((g2 for _, g2 in terms), default=0)
    groups: Dict[int, List[int]] = {}
    for (g1, g2), c in terms.items():
        groups.setdefault(g1, [0] * (top + 1))[g2] = c % L
    groups = groups or {0: [0]}     # the zero polynomial: one group, the zero vector
    coeffs = np.array(list(groups.values()), dtype=dtype)
    sel, g1_top = np.array(list(groups)), max(groups)
    width = min(len(cols), BLOCK_CELLS)
    height = BLOCK_CELLS // width
    step = max(1, BLOCK_CELLS // (top + 1))     # no column table passes BLOCK_CELLS
    for c0 in range(0, len(cols), width):
        part = cols[c0:c0 + width]
        vectors = [coeffs @ powers(part[a:a + step], top) for a in range(0, len(part), step)]
        vectors = reduce(vectors[0] if len(vectors) == 1 else np.concatenate(vectors, axis=1))
        for r0 in range(0, len(rows), height):
            block = rows[r0:r0 + height]
            if not g1_top:
                t = vectors if len(block) == 1 else vectors.repeat(len(block), axis=0)
            else:
                t = reduce(powers(block, g1_top).take(sel, axis=0).T @ vectors)
            yield range(r0, r0 + len(block)), t, L, None


def _tail_phase_blocks(L: int, ints: Dict[Tuple[int, int], int], K1: int, M1: int,
                       K2: int, M2: int):
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
    d = max(g2 for _, g2 in ints)
    n = M2 - K2
    w = min(n, _tail_width(d))
    segs = -(-n // w)
    w = -(-n // segs)                    # balanced widths, the same segment count
    u = np.arange(1, w + 1, dtype=np.uint64)
    uf = u.astype(np.float64)
    # per row m1, the m2-coefficients of Q mod L, top degree first
    row_coeffs = ([sum(c * pow(m1, g1, L) for (g1, g2), c in ints.items() if g2 == e) % L
                   for e in range(d, -1, -1)] for m1 in range(K1 + 1, M1 + 1))
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
