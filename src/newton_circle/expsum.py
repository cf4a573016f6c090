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
For any other L the tail producer (``_tail_phase_blocks``) cuts the box into
tiles of bounded growth (``_tile_shape``), one row high where a taller tile
would not pay for its shift, Taylor-shifts Q to each tile's origin and splits
each coefficient once as 2**64 * c / L: stacked, the integer heads give exact
uint64 phases by wraparound and the fractional parts a float tail below
2**-12 of a turn, each in one product with the column power table, so the
phase is off by less than 2**-52 of a turn.

Two reductions read the phases of a box sum (``double_sum``,
``weyl_sum``), chosen by the input.  A dense box, with L at most its cell
count (and at most ``HISTOGRAM_BINS``), is read from its L-bin histogram
(``_box_histogram``, which the complete sums of ``complete`` read too): P
mod L depends on each coordinate only mod L, so only the first L rows and
columns are counted, each weighted by the periods it stands for, and each
distinct phase takes one cos and one sin.  Any other box (more bins than
cells, or an L past both exact arithmetics) is the sum of its row sums
(``_lattice_row_sums``), the reduction ``double_sum_abs`` reads too: each
block takes e of every cell, residues t as the phases t/L, and adds its rows.
Row sums of residues with L at most a block's cells (``double_sum_abs``
only: a box sum with L at most its cells reads its histogram) read an
L-entry table instead.  A box sum takes fewer than 2**63 cells, which its
int64 histogram counts.  Phases travel in turns; ``_e`` takes their cos and
sin: below ``_E_MIN`` phases libm at 2*pi times the phase (``_cis``), from
it a table kernel, an exact reduction by multiples of 1/1024, one table
entry and a short polynomial, in 0.34-0.41 of libm's time from 8,192
unsorted phases on and 0.63-0.94 on sorted ones from 2,048.  The tail
producer reads its uint64 head as signed, so its phases come centred in
[-1/2, 1/2].  Up to ``_SHORT_SUM`` sorted phases are added with
``math.fsum``; longer runs, and the rows of every block, by an exact split
into integer and fractional parts (``_split_sum``), within 1 ulp of
``math.fsum``, a block or a slice of ``_E_SLICE`` histogram bins at a time,
and the partials with ``math.fsum``.  ``mode`` names the kind of input,
exact (rational) or float; either way every result reports an
``error_budget`` of ``FLOAT_TERM_BUDGET`` per term (per term of its row for
a row sum) that bounds the rounding of the phases, the trigonometry and the
summation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, starmap
from operator import mul
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import RealLike, as_fraction, is_exact
from .poly import MAX_EXPONENT, RealPoly2, transpose

# Lattice cells per numpy block of the phase kernel; bounds its working memory.
BLOCK_CELLS = 1 << 14

# Bins of the largest residue histogram a box sum builds: 2**20 int64 bins,
# 8 MB.  Without it an int64 L near 3.7e8 on a box of as many cells would
# allocate gigabytes at once; a larger L takes the row sums, block by block,
# in bounded memory, as a sparse box does.
HISTOGRAM_BINS = 1 << 20

# Terms up to which _sum_e adds term by term with math.fsum: below the fixed
# cost of its numpy path (about 4 against 18 us at 7 terms, even near 60).
_SHORT_SUM = 48

# Modulus of uint64 arithmetic, a multiple of every dyadic L: uint64 residues
# that wrap mod 2**64 are exact mod L.
_WRAP = 1 << 64

# Bound on a tail tile's growth (_tile_shape): it keeps the float tail below
# 2**-12 of a turn.
_TAIL_GROWTH = 1 << 52

# Per-term rounding error of a sum, u = 2**-53.  On the residue paths the
# phase (in turns) is t/L rounded once, in [0, 1): off by at most u/2.  On
# the tail path (_tail_phase_blocks) the tail is U1 @ (R @ U2), R @ U2 for
# h = 1: exact power tables and R = rho/(L*2**64), each entry rounded once,
# in inner products of D2 + 1 and D1 + 1 terms (D1, D2 the m1- and
# m2-degrees).  The tile growth cap of 2**52 keeps every table entry exact
# and the terms' absolute sum below 2**-12, so the tail rounds by at most (D1
# + D2 + 3)u * 2**-12 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# sec. 3.1; the 3 counts R's own rounding): below 131u * 2**-12 < 0.04u for
# every m1- and m2-degree up to MAX_EXPONENT = 64.  The head t, read as a
# signed integer, splits as hi + lo, (t >> 11) * 2**-53 in [-1/2, 1/2) and
# (t & 2047) * 2**-64, both exact; lo + tail, below 2**-11 in size, rounds by
# at most u * 2**-12 and hi + (lo + tail), below 1/2 + 2**-11 in size, by
# u/2: the phase is off by less than 0.55u, and centred.  Below _E_MIN
# phases _e takes libm (_cis): the angle 2*pi*phase adds the rounding of the
# float 2*pi (off by 4u, times |phase|) and of the product (half an ulp): 4u
# + 4u on the residue phases, 2u + 2u on the centred tail phases, so with
# 2*pi times the phase's error (pi*u, 3.46u) the angle is off by less than
# 11.2u.  cos and sin are 1-Lipschitz and add at most 4 ulp of a value below
# 1: 15.2u.  From _E_MIN phases on, the table kernel forms no angle: it
# reduces the phase exactly and lands within 1.54u of e(phase) per
# component, and e is 2*pi-Lipschitz in turns, so with the phase's error it
# is off by less than 2*pi * u/2 + 1.54u < 4.7u on residue phases and 2*pi *
# 0.55u + 1.54u < 5.1u on tail phases.  A histogram bin's count rounds once
# as a float (past 2**53) and its product once more: 2u per term.  Within a
# block's row (or a slice of histogram bins) _split_sum lands within 1 ulp
# of the correctly rounded sum S, so off by at most 1.5 ulp(S) <= 3u|S|, and
# |S| is at most its term count: 3u per term; a short sum's math.fsum is
# correctly rounded, u|S|.  The fsum over the partials adds u: 21.2u per
# component on the histogram route, and 20.2u on the row-sum route (no
# count; the fsum over a row's partials adds u), below sqrt(2)*21.2u < 30u
# for the complex term.  The budget stays at 64u.
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
    residues: an oracle, no box sum's path (suite_gauss and the per-cell
    oracles of the tests, which check the histogram and the row sums).

    Residues fit int64 and L <= 2**53, so each phase t/L rounds once.
    """
    t = np.sort(np.asarray(residues, dtype=np.int64), axis=None)
    # bounds of the runs of equal residues
    edge = np.empty(t.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(t[1:], t[:-1], out=edge[1:-1])
    idx = edge.nonzero()[0]
    counts = idx[1:] - idx[:-1]
    return _sum_e(np.asarray(t[idx[:-1]] / L, dtype=np.float64), counts, t.size)


def _cis(phase: np.ndarray) -> np.ndarray:
    """cos and sin of 2*pi*phase, phases in turns, stacked on a new first axis."""
    angle = math.tau * phase
    z = np.empty((2,) + angle.shape)
    np.cos(angle, out=z[0])
    np.sin(angle, out=z[1])
    return z


# Entries of the table kernel _e: e(j / _E_STEPS) for j in [0, _E_STEPS).
_E_STEPS = 1 << 10


def _e_table() -> np.ndarray:
    """(2, _E_STEPS) table of cos and sin of 2*pi*j/_E_STEPS: libm's on the
    first octant, where the angle math.tau * j / _E_STEPS is off by less
    than 0.8u (u = 2**-53), and exact symmetries elsewhere.  Every entry is
    within u of the exact value (all of them checked against mpmath in
    tests/test_expsum.py)."""
    angles = [math.tau * j / _E_STEPS for j in range(_E_STEPS // 8 + 1)]
    octant = np.array([(math.cos(a), math.sin(a)) for a in angles])
    c, s = np.concatenate((octant, octant[-2:0:-1, ::-1])).T      # the first quarter
    return np.array([np.concatenate((c, -s, -c, s)), np.concatenate((s, c, -s, -c))])


_E_COS, _E_SIN = _e_table()

# Taylor coefficients of cos(theta) - 1 and sin(theta) in r, theta = 2*pi*r /
# _E_STEPS for |r| <= 1/2: the first omitted terms, theta**6/720 < 0.011u and
# theta**7/5040 < 1e-5 u, are below the rounding (u = 2**-53).
_E_C2 = -(math.tau / _E_STEPS) ** 2 / 2
_E_C4 = (math.tau / _E_STEPS) ** 4 / 24
_E_S1 = math.tau / _E_STEPS
_E_S3 = -(math.tau / _E_STEPS) ** 3 / 6
_E_S5 = (math.tau / _E_STEPS) ** 5 / 120

# Phases below which _e takes libm (_cis), near the break-even: paired
# kernel/libm times read 1.38 at 1,024 phases, 1.05 at 2,048, 0.79 at 3,072
# and 0.34-0.41 from 8,192 on; on sorted phases, whose branches libm predicts
# well, 0.94 at 2,048, 0.75 at 4,096 and 0.63-0.65 from 8,192 on (numpy
# 2.4.6, 2-vCPU Xeon VM).
_E_MIN = 2048

# Values per slice of _e: its four scratch arrays of 64 KiB stay below
# glibc's default mmap threshold of 128 KiB, which slices of BLOCK_CELLS pass,
# paying for fresh pages on every call (1.5x the time at BLOCK_CELLS values).
# It slices _histogram_sum's bins too, fixed at import so that no sum's bits
# depend on a patched BLOCK_CELLS: up to 8,192 bins are one _sum_e.
_E_SLICE = BLOCK_CELLS // 2


def _e(x: np.ndarray) -> np.ndarray:
    """cos and sin of 2*pi*x for an array x of phases in turns, |x| < 2**53,
    stacked on a new first axis: the one choice between libm and the table
    kernel for every phase, sorted or not.  Below _E_MIN phases it is _cis,
    whose angle rounds in proportion to |x|, so callers pass phases centred
    or in [0, 1).

    Per slice of _E_SLICE phases: y = 1024 x and j = rint(y) are exact, so is
    r = y - j in [-1/2, 1/2] (Sterbenz), and e(x) = e(j/1024) e(r/1024), the
    first factor read from the table at j mod 1024 and the second cos(theta)
    = 1 + (cos(theta) - 1) and sin(theta) from their Taylor polynomials in r
    (|theta| <= pi/1024).  The outputs are C + (C c1 - S s) and S + (S c1 + C
    s), with C and S the table entries, c1 = cos(theta) - 1 and s =
    sin(theta).  With table entries within u, each component is within
    1.0031u + 0.53u < 1.54u of e(x) (notes/decisions.md, "One table kernel
    for unsorted phases").
    """
    if x.size < _E_MIN:
        return _cis(x)
    flat = x.reshape(-1)
    out = np.empty((2, flat.size))
    m = min(flat.size, _E_SLICE)
    r, z, t, k = np.empty(m), np.empty(m), np.empty(m), np.empty(m, dtype=np.int64)
    for a in range(0, flat.size, _E_SLICE):
        c, s = out[0, a:a + _E_SLICE], out[1, a:a + _E_SLICE]
        if c.size < m:
            r, z, t, k = r[:c.size], z[:c.size], t[:c.size], k[:c.size]
        np.multiply(flat[a:a + _E_SLICE], _E_STEPS, out=r)
        np.rint(r, out=s)
        r -= s
        np.copyto(k, s, casting="unsafe")
        k &= _E_STEPS - 1
        np.multiply(r, r, out=z)
        np.multiply(z, _E_S5, out=t)
        t += _E_S3
        t *= z
        t += _E_S1
        r *= t                          # sin(theta)
        np.multiply(z, _E_C4, out=t)
        t += _E_C2
        z *= t                          # cos(theta) - 1
        _E_COS.take(k, out=c, mode="clip")
        _E_SIN.take(k, out=s, mode="clip")
        kf = k.view(np.float64)         # the indices are read: scratch
        np.multiply(s, r, out=t)
        np.multiply(c, z, out=kf)
        kf -= t
        r *= c
        z *= s
        c += kf
        z += r
        s += z
    return out.reshape((2,) + x.shape)


def _sum_e(phase: np.ndarray, weights: np.ndarray, W: int) -> complex:
    """Sum of weights * e(phase) over a 1-D array of sorted phases in turns
    (histogram bins, the runs of residue_sum), with sum |weights| <= W: term
    by term with math.fsum up to _SHORT_SUM terms, past them by _split_sum of
    _e(phase)."""
    if phase.size <= _SHORT_SUM:
        a = (math.tau * phase).tolist()
        w = weights.tolist()
        return complex(math.fsum(map(mul, w, map(math.cos, a))),
                       math.fsum(map(mul, w, map(math.sin, a))))
    z = _e(phase)
    z *= weights
    return complex(*_split_sum(z, W).tolist())


def _split_sum(x: np.ndarray, W: int) -> np.ndarray:
    """Sums of the rows of x, each within 1 ulp of math.fsum, given that the
    integer W >= 1 bounds the sum of |x| over every row; x is scaled in place.

    With k = 2**(52 - W.bit_length()), so k*W < 2**52 for any W, each x*k
    (normal, as in every box sum, where k < 1) splits exactly as hi + lo, hi
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


def _lattice_phase_sum(form, K1: int, M1: int, K2: int, M2: int) -> complex:
    """Sum of e(Q(m1, m2)) over (K1, M1] x (K2, M2], with Q in integer form
    (L, ints).  A dense box (L <= its cells and L <= HISTOGRAM_BINS) is read
    from its L-bin histogram; any other box is the math.fsum of its row sums
    (_lattice_row_sums).  2**63 cells, past int64's counts, raise ValueError."""
    L, ints = form
    cells = max(M1 - K1, 0) * max(M2 - K2, 0)
    if cells >= 1 << 63:
        raise ValueError(f"a box sum takes fewer than 2**63 cells, got {cells}")
    if L <= min(cells, HISTOGRAM_BINS):
        hist = _box_histogram(ints, L, range(K1 + 1, M1 + 1), range(K2 + 1, M2 + 1))
        return _histogram_sum(hist, cells)
    return _fsum_complex(_lattice_row_sums(form, K1, M1, K2, M2).tolist())


def _fsum_complex(parts) -> complex:
    """The complex sum of a list of parts, each component by math.fsum."""
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


def _box_histogram(terms: Dict[Tuple[int, int], int], L: int, rows: range,
                   cols: range) -> np.ndarray:
    """int64 L-bin histogram of P(m1, m2) mod L over m1 in rows and m2 in
    cols, step-1 ranges, for the integer terms of P; L must divide 2**64 or
    have _histogram_peak(L) < 2**63, and the bins fit in memory.

    P mod L depends on each coordinate only mod L, so an axis of more than L
    consecutive integers is cut to its first L, each weighted by the number
    of times its class occurs (_period_fold): min(n1, L) * min(n2, L) cells
    in one pass of _residue_blocks, each weighted by the product of its row
    and column counts, exact in int64 as the total n1 * n2 is.  np.add.at
    counts in time linear in each block however many bins there are, and
    uint64 blocks (residues below L) through an int64 view, which it counts
    faster."""
    folded = max(len(rows), len(cols)) > L
    if folded:
        (rows, w1), (cols, w2) = _period_fold(rows, L), _period_fold(cols, L)
    hist = np.zeros(L, dtype=np.int64)
    end = 0
    for r, t, _ in _residue_blocks(terms, L, rows, cols):
        weight = 1
        if folded:
            if not r.start:             # r restarts with each column block, in order
                start, end = end, end + t.shape[1]
            weight = np.multiply.outer(w1[r.start:r.stop], w2[start:end]).reshape(-1)
        np.add.at(hist, t.reshape(-1).view(np.int64), weight)
    return hist


def _period_fold(axis: range, L: int) -> Tuple[range, np.ndarray]:
    """(run, counts): of a step-1 range of n integers its first min(n, L),
    with the number of times each one's class mod L occurs in the range (n
    // L, one more for the first n % L) as an int64 array."""
    c, s = divmod(len(axis), L)
    counts = np.full(min(len(axis), L), c, dtype=np.int64)
    counts[:s] += 1
    return axis[:L], counts


def _histogram_sum(hist: np.ndarray, W: int) -> complex:
    """Sum of h[t] * e(t/L) over the bins of an L-bin histogram h of W
    cells, one _sum_e per slice of _E_SLICE bins, so no array but h passes
    a slice's size; the slice partials are added with math.fsum."""
    L = hist.size
    parts = []
    for a in range(0, L, _E_SLICE):
        t = np.flatnonzero(hist[a:a + _E_SLICE]) + a
        parts.append(_sum_e(t / L, hist[t], W))
    return parts[0] if len(parts) == 1 else _fsum_complex(parts)


def _lattice_row_sums(form, K1: int, M1: int, K2: int, M2: int) -> np.ndarray:
    """Sums of e(Q(m1, m2)) over m2 in (K2, M2], one per row m1 in (K1, M1],
    with Q in integer form, as a complex array.

    A row spread over several column blocks or tail column tiles adds its
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


@lru_cache(maxsize=1)
def _residue_table(L: int) -> np.ndarray:
    """Read-only _e(arange(L) / L), built once for all blocks of a box."""
    z = _e(np.arange(L) / L)
    z.flags.writeable = False
    return z


def _block_row_sums(r, x, L):
    """(r, sums): a block's part of each of its rows' sums, sums[0] real and
    sums[1] imaginary.  Residues with L at most the block's cells read e(t/L)
    from the L-entry _residue_table; any other cell's phase goes through _e,
    as the table's L phases t/L did.  One _split_sum
    adds the 2*h rows of the h-row block, with W = its width."""
    h, w = x.shape
    if L and L <= x.size:
        z = _residue_table(L).take(x.view(np.int64), axis=1)
    else:
        z = _e(x / L if L else x)
    return r, _split_sum(z.reshape(2 * h, w), w).reshape(2, h)


def _phase_blocks(form, K1: int, M1: int, K2: int, M2: int):
    """Blocks of the box (K1, M1] x (K2, M2] for Q in integer form (L, ints),
    each as (r, x, L): r holds the row offsets m1 - K1 - 1 of the block's
    rows (a range, or a list for the tail's one-row tiles), and x the phases
    of its cells, as residues mod L (_residue_blocks) or, with L None, as
    float turns (_tail_phase_blocks, for an L past both exact arithmetics)."""
    if M1 <= K1 or M2 <= K2:
        return iter(())
    L, ints = form
    if _WRAP % L and _histogram_peak(L) >= 1 << 63:
        return _tail_phase_blocks(L, ints, K1, M1, K2, M2)
    return _residue_blocks(ints, L, range(K1 + 1, M1 + 1), range(K2 + 1, M2 + 1))


def _reduce(t: np.ndarray, L: int) -> np.ndarray:
    """t mod L in place: masked to L - 1 in uint64 when L divides 2**64 (at L
    = 2**64 uint64 arithmetic wraps by itself), else, for t >= 0 in int64, as
    t - L*(t // L) (numpy divides by a scalar with a multiply-shift but takes
    a remainder by hardware division)."""
    if _WRAP % L == 0:
        if L < _WRAP:
            t &= L - 1
    elif t.size < 1024:                 # one call beats three on short arrays
        np.remainder(t, L, out=t)
    else:
        quot = t // L
        quot *= L
        t -= quot
    return t


def _power_table(r: range, k: int, L: int) -> np.ndarray:
    """(k + 1) x len(r) table of r**j, r a step-1 range, congruent mod L; L
    alone sets the type: uint64 when L divides 2**64, else int64 with every
    entry below cap = (L << 63) // _histogram_peak(L), reduced when needed."""
    wrap = _WRAP % L == 0
    dtype, cap = (np.uint64, math.inf) if wrap else (np.int64, (L << 63) // _histogram_peak(L))
    table = np.empty((k + 1, len(r)), dtype=dtype)
    table[0] = 1
    if k:
        np.add(np.arange(len(r), dtype=dtype), r.start % L, out=table[1])
        if r.start % L + len(r) > L:
            _reduce(table[1], L)
    bound = L                           # every entry of table[j] is below it
    for j in range(1, k):
        np.multiply(table[j], table[1], out=table[j + 1])
        bound *= L
        if bound > cap:
            _reduce(table[j + 1], L)
            bound = L
    return table


def _residue_blocks(terms: Dict[Tuple[int, int], int], L: int, rows: range, cols: range):
    """Blocks (r, t, L), in the form of _phase_blocks, of the residues t =
    P(m1, m2) mod L over m1 in rows and m2 in cols, step-1 ranges, for the
    integer terms of P; r is the range of the block's positions in rows,
    restarting with each column block.  L divides 2**64 (uint64) or has
    _histogram_peak(L) < 2**63 (int64).  Rows, columns and coefficients are
    reduced mod L first, so values of any size never reach numpy.  Per column
    block the vectors C_g1(m2) of the terms with m1-exponent g1 are the
    coefficients times the power table m2**g2 (_power_table), and a block is
    its rows' table m1**g1 times them.  In int64 a table entry stays below
    2**63 // (65*L) >= L, so each sum of at most 65 terms stays below 2**63."""
    dtype = np.uint64 if _WRAP % L == 0 else np.int64
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
        vectors = [coeffs @ _power_table(part[a:a + step], top, L)
                   for a in range(0, len(part), step)]
        vectors = _reduce(vectors[0] if len(vectors) == 1 else np.concatenate(vectors, axis=1), L)
        for r0 in range(0, len(rows), height):
            block = rows[r0:r0 + height]
            if not g1_top:
                t = vectors if len(block) == 1 else vectors.repeat(len(block), axis=0)
            else:
                t = _reduce(_power_table(block, g1_top, L).take(sel, axis=0).T @ vectors, L)
            yield range(r0, r0 + len(block)), t, L


def _tail_phase_blocks(L: int, ints: Dict[Tuple[int, int], int], K1: int, M1: int,
                       K2: int, M2: int):
    """Blocks of float phases, in turns, for an L that does not divide 2**64
    and is too wide for int64 residues mod L.

    The box is cut into tiles of h x w cells (_tile_shape), the cells o + u,
    u in [0, h) x [1, w], of their origin o.  Per tile, Q is Taylor-shifted
    exactly mod L to o (_expand_m1 up to the m1-exponent e1, then _shift_m2
    on each row, none at column origin 0), and each coefficient c splits
    once as 2**64 * c / L = H + rho / L, H = (c << 64) // L < 2**64
    (_split).  e1 is 0 for a one-row tile (u1 = 0 keeps the m1-exponent 0
    only) and the m1-degree d1 for a taller one (_tile_shape gives h = 1 or
    h >= d1 + 2): this all-or-nothing rule keeps the expansion exact, as any
    e1 < d1 would drop the terms u1**i, i > e1, of a taller tile's rows.
    The split rows of the tiles of one width are stacked, as many as fit
    BLOCK_CELLS, into two products with the power table U2 of the column
    offsets (at most 4 * BLOCK_CELLS entries, since the growth bound caps
    w): the uint64 H @ U2, whose wraparound keeps the head, sum of H * u**g
    mod 2**64, exact however large Q gets, and the float tail R @ U2, R =
    rho / (L * 2**64).  A one-row tile is its row of both; a taller tile's
    rows are U1.T @ (.) of both, U1 the power table of its row offsets, per
    block of rows.

    The tail's terms are below 2**-64 * |u**g| in size, so the growth bound
    of 2**52 keeps it below 2**-12 of a turn and every table entry an exact
    float; the phase, the head read as a signed integer plus the tail, is
    centred and off by less than 0.55u (u = 2**-53; the derivation is in the
    comment above FLOAT_TERM_BUDGET).
    """
    # top[i]: the m2-degree of the down-closure of the support at m1-exponent i
    top = [0] * (max(g1 for g1, _ in ints) + 1)
    for g1, g2 in ints:
        top[g1] = max(top[g1], g2)
    top = list(accumulate(reversed(top), max))[::-1]
    h, w = _tile_shape(top, M1 - K1, M2 - K2)
    e1, e2 = 0 if h == 1 else len(top) - 1, top[0]
    # the column tiles' origins by their widths: all w but a narrower last one
    origins: Dict[int, List[int]] = {}
    for o2 in range(K2, M2, w):
        origins.setdefault(min(w, M2 - o2), []).append(o2)
    # the power table of the offsets [1, w]; a narrower tile's is its prefix
    full = _power_table(range(1, w + 1), e2, _WRAP)
    for width, o2s in origins.items():
        U2 = full[:, :width]
        height = BLOCK_CELLS // width
        # tiles as (first row offset s, Q expanded at row K1 + 1 + s, o2); no
        # table of a chunk passes BLOCK_CELLS
        tiles = ((s, c, o2) for s in range(0, M1 - K1, h)
                 for c in [_expand_m1(ints, K1 + 1 + s, L, e1, e2)] for o2 in o2s)
        while chunk := list(islice(tiles, max(1, BLOCK_CELLS // ((e1 + 1) * max(width, e2 + 1))))):
            H, R = _split([_shift_m2(row, o2, L) for _, c, o2 in chunk for row in c], L)
            T = H @ U2
            V = R @ U2
            if h == 1:
                x = _phase(T, V)
                del T, V                # let go of both before the consumer allocates
                yield [s for s, _, _ in chunk], x, None
            else:
                for (s, _, _), Tk, Vk in zip(chunk, np.split(T, len(chunk)), np.split(V, len(chunk))):
                    for a in range(s, min(s + h, M1 - K1), height):
                        r = range(a, min(a + height, s + h, M1 - K1))
                        U1 = _power_table(range(a - s, r.stop - s), e1, _WRAP)
                        yield r, _phase(U1.T @ Tk, U1.T @ Vk), None


def _split(coeffs: List[List[int]], L: int) -> Tuple[np.ndarray, np.ndarray]:
    """(H, R) for rows of coefficients c mod L, each split once as 2**64 * c
    / L = H + rho / L: H holds H = (c << 64) // L < 2**64 in uint64, R holds
    rho / (L * 2**64), each rounded once."""
    split = [[divmod(c << 64, L) for c in row] for row in coeffs]
    scale = L << 64
    return (np.array([[H for H, _ in row] for row in split], dtype=np.uint64),
            np.array([[rho / scale for _, rho in row] for row in split]))


def _phase(t: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Phases in turns, centred: the uint64 head t read as signed, in units of
    2**-64, plus the float tail, as (t >> 11) * 2**-53 + ((t & 2047) * 2**-64
    + tail).  t is shifted in place, which spares a temporary of its size."""
    x = (t & 2047) * 2.0**-64
    x += tail
    hi = t.view(np.int64)
    hi >>= 11
    x += hi * 2.0**-53
    return x


def _expand_m1(terms: Dict[Tuple[int, int], int], o1: int, L: int, e1: int,
               e2: int) -> List[List[int]]:
    """Coefficients c[i][j] of P(o1 + u1, m2) in u1**i * m2**j for i <= e1
    (with e1 = 0, those of P(o1, m2)), e2 the m2-degree of P: the binomial
    expansion of each term, congruent mod L."""
    c = [[0] * (e2 + 1) for _ in range(e1 + 1)]
    for (g1, g2), a in terms.items():
        for i in range(min(g1, e1) + 1):
            c[i][g2] += a * math.comb(g1, i) * pow(o1, g1 - i, L)
    return c


def _shift_m2(row: List[int], o2: int, L: int) -> List[int]:
    """Coefficients of p(o2 + u2) mod L from those of p, lowest degree first:
    synthetic division, whose pass k fixes the coefficient of u2**k."""
    row = [v % L for v in row]
    o2 %= L
    n = len(row) - 1
    for k in range(n if o2 else 0):
        for j in range(n - 1, k - 1, -1):
            row[j] = (row[j] + o2 * row[j + 1]) % L
    return row


def _growth(top: List[int], a1: int, a2: int) -> int:
    """Sum of a1**i * a2**j over the exponents (i, j) with j <= top[i]."""
    # the sum of a2**j over j <= t, once per distinct t
    row = {t: t + 1 if a2 == 1 else (a2**(t + 1) - 1) // (a2 - 1) for t in set(top)}
    total = 0
    for t in reversed(top):             # Horner in a1
        total = total * a1 + row[t]
    return total


def _tile_shape(top: List[int], n1: int, n2: int) -> Tuple[int, int]:
    """(h, w): tile sides for the tail producer on an n1 x n2 box, for a
    support whose down-closure holds the exponents (i, j) with j <= top[i].

    A tile's growth, the sum of h**i * w**j over the down-closure (the
    exponents a Taylor shift can reach), is at most _TAIL_GROWTH = 2**52, so
    a tail of terms below 2**-64 * |u**g| stays below 2**-12 of a turn and
    every power table entry is an exact float.  w is the widest whose row at
    u1 = 0, the sum of w**j over j <= top[0], meets the bound, and at most
    BLOCK_CELLS // (m1-degree + 1), so the products of a tile's shifted rows
    with its column power table fit a block; h is then the tallest within
    the bound.  A tile of 1 < h <= d1 + 1 rows (d1 the m1-degree) would
    shift (d1 + 1)(e2 + 1) coefficients, at least as many as its h rows one
    by one, so h is 1, cutting the box into one-row tiles of width w, or at
    least d1 + 2: the rule by which _tail_phase_blocks expands a tile.
    """
    def largest(n: int, growth) -> int:
        """Largest x in [1, n] whose growth(x) meets the bound (growth rises with x)."""
        if growth(n) <= _TAIL_GROWTH:
            return n
        return bisect_left(range(1, n + 1), True, key=lambda x: growth(x) > _TAIL_GROWTH)

    w = largest(min(n2, max(1, BLOCK_CELLS // len(top))), lambda x: _growth(top, 0, x))
    if n1 <= len(top) or _growth(top, len(top) + 1, w) > _TAIL_GROWTH:
        return 1, w
    return largest(n1, lambda x: _growth(top, x, w)), w


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
